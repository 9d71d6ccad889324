package gateway_test

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// The completion path's faults: what a group commit that fails, or is
// abandoned, does to every request that waits on it.

// holdWriter parks shard 0's WAL writer inside the callback of an entry the
// test appends itself, so everything the gateway appends after it waits in
// the queue and becomes one group — committed, failed or abandoned — once
// release is called. Cleanup releases it too, before the gateway closes.
func holdWriter(t *testing.T, s *store.Store) (release func()) {
	t.Helper()
	held, free := make(chan struct{}), make(chan struct{})
	e := store.Entry{Owner: "writer-holder", Batch: store.Batch{Tick: 1}}
	if err := s.Append(0, e, func(error) { close(held); <-free }); err != nil {
		t.Fatal(err)
	}
	<-held
	var once sync.Once
	release = func() { once.Do(func() { close(free) }) }
	t.Cleanup(release)
	return release
}

// rawBurst builds pipelined request frames for one write.
type rawBurst struct {
	t    *testing.T
	buf  bytes.Buffer
	ids  []uint64
	next uint64
}

// add appends one request and returns its ID.
func (b *rawBurst) add(owner string, req wire.Request) uint64 {
	b.t.Helper()
	b.next++
	payload, err := wire.CodecBinary.EncodeGatewayRequest(wire.GatewayRequest{ID: b.next, Owner: owner, Req: req})
	if err != nil {
		b.t.Fatal(err)
	}
	if err := wire.WriteFrame(&b.buf, payload); err != nil {
		b.t.Fatal(err)
	}
	b.ids = append(b.ids, b.next)
	return b.next
}

// flush writes the burst in one write, and forgets it.
func (b *rawBurst) flush(conn net.Conn) (ids []uint64) {
	b.t.Helper()
	if _, err := conn.Write(b.buf.Bytes()); err != nil {
		b.t.Fatal(err)
	}
	ids, b.ids = b.ids, nil
	b.buf.Reset()
	return ids
}

// readResp reads one response envelope, bounded.
func readResp(t *testing.T, conn net.Conn) wire.GatewayResponse {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.CodecBinary.DecodeGatewayResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func sealedBatch(t *testing.T, key []byte, rs ...record.Record) [][]byte {
	t.Helper()
	sealer, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	cts, err := sealer.SealAll(rs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(cts))
	for i, ct := range cts {
		out[i] = ct
	}
	return out
}

// marker is a resume for an owner nobody set up: the shard answers it at
// once, after everything queued before it — so its answer says every request
// sent before it has been dispatched.
func marker(t *testing.T, conn net.Conn, b *rawBurst) {
	t.Helper()
	id := b.add("owner-marker", wire.Request{Type: wire.MsgResume})
	b.flush(conn)
	if resp := readResp(t, conn); resp.ID != id || !resp.Resp.OK {
		t.Fatalf("response %d (%+v) arrived before the marker %d: a request behind the held group was answered", resp.ID, resp.Resp, id)
	}
}

// TestFailedGroupRefusesEveryoneBehindIt: one group commit that fails (the
// store failpoint) holding the syncs of three owners, with a parked read of
// each and a duplicate retransmit queued behind them. Every one of the seven
// is refused suspended exactly once, none is acknowledged, and each owner's
// ledger and transcript stay at the committed prefix.
func TestFailedGroupRefusesEveryoneBehindIt(t *testing.T) {
	reg := telemetry.New()
	gw, key := startGateway(t, gateway.Config{StoreDir: t.TempDir(), Shards: 1, SyncEpsilon: 0.5, Telemetry: reg})
	conn := rawGatewayConn(t, gw.Addr())
	owners := []string{"owner-a", "owner-b", "owner-c"}
	b := &rawBurst{t: t}
	for i, o := range owners {
		b.add(o, wire.Request{Type: wire.MsgSetup, Seq: 1, Sealed: sealedBatch(t, key, yellow(0, uint16(10+i)))})
	}
	b.flush(conn)
	for range owners {
		if resp := readResp(t, conn); !resp.Resp.OK {
			t.Fatalf("setup refused: %+v", resp.Resp)
		}
	}
	type committed struct {
		ledger  []byte
		pattern string
	}
	prefix := func(o string) committed {
		ledger, err := gw.ObservedLedger(o).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return committed{ledger, gw.ObservedPattern(o).String()}
	}
	before := map[string]committed{}
	for _, o := range owners {
		before[o] = prefix(o)
	}

	release := holdWriter(t, gw.Store())
	gw.Store().SetCommitFailpoint(true)
	update := wire.Request{Type: wire.MsgUpdate, Seq: 2, Sealed: sealedBatch(t, key, yellow(1, 20), record.NewDummy(record.YellowCab))}
	for _, o := range owners {
		b.add(o, update)
	}
	q1, q2 := wire.FromQuery(query.Q1()), wire.FromQuery(query.Q2())
	b.add(owners[0], wire.Request{Type: wire.MsgQuery, Query: &q1})
	b.add(owners[1], wire.Request{Type: wire.MsgStats})
	b.add(owners[2], wire.Request{Type: wire.MsgQuery, Query: &q2})
	b.add(owners[0], update) // the retransmit: parked on the sync it repeats
	waiting := b.flush(conn)
	marker(t, conn, b)
	if pending := gw.ShardStatuses()[0].PendingWAL; pending != int64(len(owners)) {
		t.Fatalf("%d appends wait behind the held writer, want the %d syncs", pending, len(owners))
	}

	release()
	answered := map[uint64]int{}
	for range waiting {
		resp := readResp(t, conn)
		if resp.Resp.OK || resp.Resp.Refusal.Code != wire.CodeSuspended {
			t.Fatalf("request %d behind the failed group: %+v, want the suspended refusal", resp.ID, resp.Resp)
		}
		answered[resp.ID]++
	}
	for _, id := range waiting {
		if answered[id] != 1 {
			t.Fatalf("request %d answered %d times, want once (answers %v)", id, answered[id], answered)
		}
	}
	gw.Store().SetCommitFailpoint(false)
	marker(t, conn, b) // and nothing else was owed
	failedGroups := -1.0
	for _, s := range reg.Snapshot() {
		if s.Name == "store_commit_errors_total" {
			failedGroups = s.Value
		}
	}
	if failedGroups != 1 {
		t.Fatalf("%v failed group commits, want the one that held all three syncs", failedGroups)
	}
	for _, o := range owners {
		if got := prefix(o); !bytes.Equal(got.ledger, before[o].ledger) || got.pattern != before[o].pattern {
			t.Fatalf("%s moved past its committed prefix: transcript %s, want %s", o, got.pattern, before[o].pattern)
		}
	}
}

// TestReplicaFailedGroupFailsEveryOwnerInIt: a replica's own WAL group that
// fails carries shipped entries of three owners. Every one of them is
// suspended — a read is refused — while an owner outside the group is still
// served, and Promote refuses to flip the replica.
func TestReplicaFailedGroupFailsEveryOwnerInIt(t *testing.T) {
	gw, key := startReplica(t, gateway.Config{Shards: 1})
	owners := []string{"owner-a", "owner-b", "owner-c", "owner-outside"}
	for _, o := range owners {
		replicate(t, gw, key, o, 1, yellow(0, 10))
	}
	waitUntil(t, 10*time.Second, "the setups' appends never committed", func() bool { return gw.ShardStatuses()[0].PendingWAL == 0 })

	release := holdWriter(t, gw.Store())
	gw.Store().SetCommitFailpoint(true)
	for _, o := range owners[:3] {
		replicate(t, gw, key, o, 2, yellow(1, 20))
	}
	if pending := gw.ShardStatuses()[0].PendingWAL; pending != 3 {
		t.Fatalf("%d appends wait behind the held writer, want 3", pending)
	}
	release()
	waitUntil(t, 10*time.Second, "the failed group was never reported", func() bool { return gw.ShardStatuses()[0].PendingWAL == 0 })
	gw.Store().SetCommitFailpoint(false)

	conn := rawReadConn(t, gw.Addr())
	b := &rawBurst{t: t}
	for i, o := range owners {
		b.add(o, wire.Request{Type: wire.MsgStats})
		b.flush(conn)
		resp := readResp(t, conn)
		switch suspended := !resp.Resp.OK && resp.Resp.Refusal.Code == wire.CodeSuspended; {
		case i < 3 && !suspended:
			t.Fatalf("%s, whose entry was in the failed group, answered a read: %+v", o, resp.Resp)
		case i == 3 && !resp.Resp.OK:
			t.Fatalf("%s, outside the failed group, refused a read: %+v", o, resp.Resp)
		}
	}
	if err := gw.Promote(nil); !errors.Is(err, gateway.ErrUnhealthyReplica) {
		t.Fatalf("Promote over a failed group: %v, want ErrUnhealthyReplica", err)
	}
}

// TestKillMidGroupAnswersEverySyncOnce: Kill lands while six syncs of three
// owners and a parked read of each wait in one group. The store abandons the
// group, and every one of the nine is answered exactly once — an unanswered
// request would hold its connection's handler, and Kill with it, forever; a
// second answer would drive the handler's count of owed replies negative.
func TestKillMidGroupAnswersEverySyncOnce(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{StoreDir: t.TempDir(), Shards: 1, SyncEpsilon: 0.5})
	conn := rawGatewayConn(t, gw.Addr())
	owners := []string{"owner-a", "owner-b", "owner-c"}
	b := &rawBurst{t: t}
	for _, o := range owners {
		b.add(o, wire.Request{Type: wire.MsgSetup, Seq: 1, Sealed: sealedBatch(t, key, yellow(0, 10))})
	}
	b.flush(conn)
	for range owners {
		if resp := readResp(t, conn); !resp.Resp.OK {
			t.Fatalf("setup refused: %+v", resp.Resp)
		}
	}

	release := holdWriter(t, gw.Store())
	q := wire.FromQuery(query.Q1())
	for _, o := range owners {
		for seq := uint64(2); seq <= 3; seq++ {
			b.add(o, wire.Request{Type: wire.MsgUpdate, Seq: seq, Sealed: sealedBatch(t, key, yellow(int(seq), 20))})
		}
		b.add(o, wire.Request{Type: wire.MsgQuery, Query: &q})
	}
	waiting := b.flush(conn)
	marker(t, conn, b)
	if pending := gw.ShardStatuses()[0].PendingWAL; pending != 6 {
		t.Fatalf("%d appends wait behind the held writer, want 6", pending)
	}

	killed := make(chan struct{})
	go func() {
		gw.Kill()
		close(killed)
	}()
	// Kill severs the connections, then abandons the store; once the store
	// refuses an append, the writer finds its queue abandoned when released.
	probe := store.Entry{Owner: "kill-probe", Batch: store.Batch{Tick: 1}}
	waitUntil(t, 10*time.Second, "Kill never reached the store", func() bool {
		return gw.Store().Append(0, probe, func(error) {}) != nil
	})
	release()
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("Kill did not return: a request behind the abandoned group was never answered")
	}
	if n := gw.Refused(wire.CodeSuspended); n != int64(len(waiting)) {
		t.Fatalf("%d suspended refusals for the %d requests behind the abandoned group, want one each", n, len(waiting))
	}
}
