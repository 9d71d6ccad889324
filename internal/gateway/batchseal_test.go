package gateway_test

import (
	"fmt"
	"net"
	"reflect"
	"testing"

	"dpsync/internal/client"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/refdb"
	"dpsync/internal/wire"
)

// mixedBatch is n records from tick on: both providers at shared pickup
// times (so Q3 joins them), fares for Q4, every fifth record a dummy.
func mixedBatch(tick, n int) []record.Record {
	rs := make([]record.Record, n)
	for i := range rs {
		p := record.YellowCab
		if i%2 == 1 {
			p = record.GreenTaxi
		}
		if i%5 == 4 {
			rs[i] = record.NewDummy(p)
			continue
		}
		rs[i] = record.Record{PickupTime: record.Tick(tick + i/4), PickupID: uint16(1 + (tick*7+i*13)%record.NumLocations), Provider: p, FareCents: uint32(100 + i)}
	}
	return rs
}

// shapeBatches is one owner's uploads: a 65-record setup and a 300-record
// update (both past the enclave's 64-record scratch), a 64-record one, an
// empty one and a single record.
func shapeBatches() [][]record.Record {
	return [][]record.Record{mixedBatch(0, 65), mixedBatch(100, 300), mixedBatch(500, 64), nil, mixedBatch(600, 1)}
}

// served is what a server shows of one owner: the transcript (tick and
// volume of every event), the split-blind stats and Q1–Q4 with the records
// each scanned.
type served struct {
	events                  [][2]int
	records, bytes, updates int64
	answers                 []string
}

var shapeQueries = []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}

func servedBy(t *testing.T, gw *gateway.Gateway, own *client.OwnerSession, owner string) served {
	t.Helper()
	var v served
	for _, e := range gw.ObservedPattern(owner).Events {
		v.events = append(v.events, [2]int{int(e.Tick), e.Volume})
	}
	st, err := own.RemoteStats()
	if err != nil {
		t.Fatal(err)
	}
	v.records, v.bytes, v.updates = int64(st.Records), int64(st.Bytes), int64(st.Updates)
	for _, q := range shapeQueries {
		ans, cost, err := own.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		v.answers = append(v.answers, fmt.Sprint(ans, cost.RecordsScanned))
	}
	return v
}

func servedByRef(t *testing.T, ref *refdb.DB) served {
	t.Helper()
	var v served
	for _, e := range ref.ObservedPattern().Events {
		v.events = append(v.events, [2]int{int(e.Tick), e.Volume})
	}
	st := ref.Stats()
	v.records, v.bytes, v.updates = int64(st.Records), int64(st.Bytes), int64(st.Updates)
	for _, q := range shapeQueries {
		ans, cost, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		v.answers = append(v.answers, fmt.Sprint(ans, cost.RecordsScanned))
	}
	return v
}

func sameServed(t *testing.T, what string, got, want served) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// uploadPerRecord sends the batches as a pre-batching owner did: every
// record its own one-record message, over a raw connection.
func uploadPerRecord(t *testing.T, addr string, key []byte, owner string, batches [][]record.Record) {
	t.Helper()
	conn := rawGatewayConn(t, addr)
	defer conn.Close()
	b := &rawBurst{t: t}
	for i, rs := range batches {
		typ := wire.MsgUpdate
		if i == 0 {
			typ = wire.MsgSetup
		}
		b.add(owner, wire.Request{Type: typ, Seq: uint64(i + 1), Sealed: sealedBatch(t, key, rs...)})
	}
	waitAcks(t, conn, b.flush(conn))
}

func waitAcks(t *testing.T, conn net.Conn, ids []uint64) {
	t.Helper()
	for _, id := range ids {
		if resp := readResp(t, conn); resp.ID != id || !resp.Resp.OK {
			t.Fatalf("request %d: response %d %+v", id, resp.ID, resp.Resp)
		}
	}
}

// uploadOneMessage sends the batches through a client session, which seals
// each as one message.
func uploadOneMessage(t *testing.T, own *client.OwnerSession, batches [][]record.Record) {
	t.Helper()
	for i, rs := range batches {
		up := own.Update
		if i == 0 {
			up = own.Setup
		}
		if err := up(rs); err != nil {
			t.Fatalf("upload %d (%d records): %v", i, len(rs), err)
		}
	}
}

func referenceFor(t *testing.T, key []byte, batches [][]record.Record) served {
	t.Helper()
	ref, err := refdb.New(key)
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range batches {
		up := ref.Update
		if i == 0 {
			up = ref.Setup
		}
		if err := up(rs); err != nil {
			t.Fatal(err)
		}
	}
	return servedByRef(t, ref)
}

// TestBatchShapesServeTheSame sends the same batches as one message each and
// as one message per record, to two owners of one gateway: transcripts,
// stats and answers are identical, and both are refdb's — so batches of 65
// and 300 records sealed as one message are counted and answered record for
// record.
func TestBatchShapesServeTheSame(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	batches := shapeBatches()
	uploadPerRecord(t, gw.Addr(), key, "owner-each", batches)
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	uploadOneMessage(t, conn.Owner("owner-one"), batches)

	each := servedBy(t, gw, conn.Owner("owner-each"), "owner-each")
	one := servedBy(t, gw, conn.Owner("owner-one"), "owner-one")
	if one.records != 430 || len(one.events) != 5 || one.events[1] != [2]int{2, 300} {
		t.Fatalf("served %+v: want 430 records, and 300 at tick 2 of 5 events", one)
	}
	sameServed(t, "one message per record against one message per batch", each, one)
	sameServed(t, "both shapes against refdb", one, referenceFor(t, key, batches))
}

// TestPerRecordDirectoryRecovers: a store directory holding syncs sent one
// message per record — what every directory written before owners sealed a
// batch as one message holds — beside syncs sent as one message, recovers
// to exactly what it served, through WAL replay, snapshots and spilled
// history alike.
func TestPerRecordDirectoryRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := gateway.Config{StoreDir: dir, SyncEpsilon: 0.5, SnapshotEvery: 3, HistoryWindow: 1}
	gw, key := startGateway(t, cfg)
	cfg.Key = key
	batches := shapeBatches()
	uploadPerRecord(t, gw.Addr(), key, "owner-each", batches)
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	uploadOneMessage(t, conn.Owner("owner-one"), batches)
	before := map[string]served{}
	for _, o := range []string{"owner-each", "owner-one"} {
		before[o] = servedBy(t, gw, conn.Owner(o), o)
	}
	conn.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}

	gw2, _ := startGateway(t, cfg)
	conn2, err := client.DialGateway(gw2.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	for o, want := range before {
		sameServed(t, o+" after reopening the directory", servedBy(t, gw2, conn2.Owner(o), o), want)
	}
	sameServed(t, "the per-record owner against refdb", before["owner-each"], referenceFor(t, key, batches))
}
