package gateway_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"dpsync/internal/client"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/oblidb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// ask sends one request over a raw connection and returns its response.
func ask(t *testing.T, conn net.Conn, owner string, req wire.Request) wire.Response {
	t.Helper()
	return askAs(t, conn, wire.GatewayRequest{ID: 1, Owner: owner, Req: req})
}

// askAs is ask for an envelope the test builds: an owner by handle, say.
func askAs(t *testing.T, conn net.Conn, g wire.GatewayRequest) wire.Response {
	t.Helper()
	frame, err := wire.CodecBinary.EncodeGatewayRequest(g)
	if err != nil {
		t.Fatal(err)
	}
	return roundTripRaw(t, conn, frame).Resp
}

// askRefused is ask for a request that must be refused: it returns the
// refusal and the bytes its frame took on the wire (the codec is a bijection,
// so the re-encoding is the frame that came in).
func askRefused(t *testing.T, conn net.Conn, owner string, req wire.Request) (int64, *wire.Refusal) {
	t.Helper()
	resp := ask(t, conn, owner, req)
	if resp.OK {
		t.Fatalf("%s for %q was served: %+v", req.Type, owner, resp)
	}
	return refusalSize(t, resp), resp.Refusal
}

// refusalSize is the bytes a refusal's frame takes on the wire, request ID 1
// or 0 (a malformed frame's) alike.
func refusalSize(t *testing.T, resp wire.Response) int64 {
	t.Helper()
	b, err := wire.CodecBinary.EncodeGatewayResponse(wire.GatewayResponse{ID: 1, Resp: resp})
	if err != nil {
		t.Fatal(err)
	}
	return framedLen(len(b))
}

// framedLen is the bytes a frame of an n-byte payload takes on the wire: its
// length first, as a uvarint in the fewest bytes that hold it.
func framedLen(n int) int64 {
	return int64(len(binary.AppendUvarint(nil, uint64(n))) + n)
}

func queryReq(q query.Query) wire.Request {
	spec := wire.FromQuery(q)
	return wire.Request{Type: wire.MsgQuery, Query: &spec}
}

// emptyRange is a query every backend fails: its text is what CodeFailed
// carries.
var emptyRange = query.Query{Kind: query.RangeCount, Provider: record.YellowCab, Lo: 9, Hi: 1}

// refusalCounts reads gateway_refusals_total off a registry, by code label.
func refusalCounts(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Snapshot() {
		if label, ok := strings.CutPrefix(s.Name, `gateway_refusals_total{code="`); ok {
			out[strings.TrimSuffix(label, `"}`)] = s.Value
		}
	}
	return out
}

// gate holds a query on its shard worker: the one way to keep a request in
// flight for as long as a test needs. Armed, the next Query to reach a gated
// backend announces itself on entered and waits for release.
type gate struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

func newGate() *gate { return &gate{entered: make(chan struct{}), release: make(chan struct{})} }

// backend is a gateway.Config.NewBackend: the default backend under key,
// gated.
func (g *gate) backend(key []byte) func(string) (edb.Database, error) {
	return func(string) (edb.Database, error) {
		db, err := oblidb.NewWithKey(key)
		return gatedDB{db, g}, err
	}
}

type gatedDB struct {
	*oblidb.DB
	g *gate
}

func (d gatedDB) Query(q query.Query) (query.Answer, edb.Cost, error) {
	if d.g.armed.CompareAndSwap(true, false) {
		d.g.entered <- struct{}{}
		<-d.g.release
	}
	return d.DB.Query(q)
}

// shed draws one backpressure refusal from a gateway whose MaxInFlight is 1:
// a Q1 of owner's, held on the shard worker (it must miss the answer cache),
// is the connection's whole in-flight allowance, so the stats request behind
// it is shed by the reader. It returns that refusal and its size on the wire.
func (g *gate) shed(t *testing.T, conn *client.GatewayConn, owner string) (int64, error) {
	t.Helper()
	own := conn.Owner(owner)
	g.armed.Store(true)
	held := make(chan error, 1)
	go func() { _, _, err := own.Query(query.Q1()); held <- err }()
	<-g.entered
	in0 := conn.BytesIn()
	_, err := own.RemoteStats()
	size := conn.BytesIn() - in0
	g.release <- struct{}{}
	if herr := <-held; herr != nil {
		t.Errorf("the held query: %v", herr)
	}
	return size, err
}

// TestRefusalsAreTyped provokes every refusal code a node can answer with and
// holds each to the one mechanism: the caller's error is the code's sentinel
// under errors.Is and a *wire.Refusal with the right cursor under errors.As
// (through client.GatewayConn wherever the client can be made to send the
// request; over a raw connection for the three it never sends — a sync out of
// sequence and anything but a read on the read-only plane — where the error is
// the decoded Refusal itself, which is all the client wraps);
// gateway_refusals_total{code} moves by exactly one, and no other code's
// moves; the refusal's frame is the size TestFrameSizes pins for its code;
// and the refusal is neutral — the owner's transcript, ε ledger and stored
// totals are what they were, PR 6's shed rule for every code.
func TestRefusalsAreTyped(t *testing.T) {
	reg, rreg := telemetry.New(), telemetry.New()
	hold := newGate()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	gw, _ := startGateway(t, gateway.Config{
		Key: key, Shards: 1, MaxInFlight: 1, StoreDir: t.TempDir(), SyncEpsilon: 0.5, Telemetry: reg,
		NewBackend: hold.backend(key),
	})
	rep, rkey := startReplica(t, gateway.Config{Shards: 1, Telemetry: rreg})
	replicate(t, rep, rkey, "owner-r", 1, yellow(0, 10))

	dial := func() *client.GatewayConn {
		conn, err := client.DialGateway(gw.Addr(), key)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	conn, witness := dial(), dial()
	for _, name := range []string{"owner-a", "owner-hog", "owner-s"} {
		own := conn.Owner(name)
		if err := own.Setup([]record.Record{yellow(0, 10)}); err != nil {
			t.Fatal(err)
		}
		if err := own.Update([]record.Record{yellow(1, 20), record.NewDummy(record.YellowCab)}); err != nil {
			t.Fatal(err)
		}
	}
	// owner-s is suspended by a sync whose group commit fails; what the table
	// provokes is the refusal every later request of its gets.
	gw.Store().SetCommitFailpoint(true)
	if err := conn.Owner("owner-s").Update([]record.Record{yellow(2, 30)}); !errors.Is(err, wire.ErrSuspended) {
		t.Fatalf("update through a failing group commit: %v, want the suspended refusal", err)
	}
	gw.Store().SetCommitFailpoint(false)

	rw, ro := rawGatewayConn(t, gw.Addr()), rawReadConn(t, rep.Addr())
	// A row provokes one refusal and reports its frame's size: over a raw
	// connection, or through the client, whose BytesIn moves by one frame.
	raw := func(c net.Conn, owner string, req wire.Request) func() (int64, error) {
		return func() (int64, error) { return askRefused(t, c, owner, req) }
	}
	// rawBytes sends a payload no encoder writes and decodes the refusal.
	rawBytes := func(c net.Conn, payload []byte) func() (int64, error) {
		return func() (int64, error) {
			resp := roundTripRaw(t, c, payload).Resp
			if resp.OK {
				t.Fatalf("payload %x was served", payload)
			}
			return refusalSize(t, resp), resp.Refusal
		}
	}
	through := func(call func() error) func() (int64, error) {
		return func() (int64, error) {
			in0 := conn.BytesIn()
			err := call()
			return conn.BytesIn() - in0, err
		}
	}
	// state renders what a refusal must leave alone, and returns the ledger
	// beside it. On the replica the stored totals come over the raw read
	// connection; on the primary from a second client connection (a refused
	// RemoteStats renders as its refusal).
	state := func(g *gateway.Gateway, owner string) (string, *dp.Budget) {
		var stats string
		if g == rep {
			stats = fmt.Sprintf("%+v", ask(t, ro, owner, wire.Request{Type: wire.MsgStats}).Stats)
		} else {
			st, err := witness.Owner(owner).RemoteStats()
			stats = fmt.Sprintf("%+v %v", st, err)
		}
		return fmt.Sprintf("owners=%d pattern=%s stats=%s", g.Owners(), g.ObservedPattern(owner), stats), g.ObservedLedger(owner)
	}

	for _, row := range []struct {
		code    wire.RefusalCode
		is      error
		cursor  uint64
		size    int64
		on      *gateway.Gateway
		owner   string
		provoke func() (int64, error)
	}{
		{wire.CodeBackpressure, wire.ErrBackpressure, 0, 6, gw, "owner-hog", func() (int64, error) {
			return hold.shed(t, conn, "owner-hog")
		}},
		{wire.CodeNotPrimary, wire.ErrNotPrimary, 0, 6, rep, "owner-r", raw(ro, "owner-r", wire.Request{Type: wire.MsgResume})},
		{wire.CodeNotSetup, edb.ErrNotSetup, 0, 6, gw, "owner-nobody", through(func() error {
			_, _, err := conn.Owner("owner-nobody").Query(query.Q1())
			return err
		})},
		{wire.CodeSeqGap, wire.ErrSeqGap, 3, 6, gw, "owner-a", raw(rw, "owner-a", wire.Request{Type: wire.MsgUpdate, Seq: 9})},
		{wire.CodeSuspended, wire.ErrSuspended, 0, 6, gw, "owner-s", through(func() error {
			_, err := conn.Owner("owner-s").RemoteStats()
			return err
		})},
		// A malformed frame: owner length 0, then handle 0, which no connection
		// ever binds — the codec's error restated.
		{wire.CodeBadRequest, wire.ErrBadRequest, 0, 6 + int64(len("wire: malformed frame: owner handle 0")), gw, "owner-a",
			rawBytes(rw, []byte{1, 0, 0, 4})},
		// A setup anywhere but tick 1 can never apply: refused by the reader,
		// before it could create the tenant (state holds the owner count).
		{wire.CodeBadRequest, wire.ErrBadRequest, 0, 6 + int64(len("gateway: setup not at seq 1")), gw, "owner-new",
			raw(rw, "owner-new", wire.Request{Type: wire.MsgSetup, Seq: 5, Sealed: [][]byte{make([]byte, seal.SealedSize)}})},
		// A well-formed frame naming an owner by a handle its connection never
		// bound: refused by the reader, touching nothing.
		{wire.CodeBadRequest, wire.ErrBadRequest, 0, 6 + int64(len("gateway: unbound handle 9")), gw, "owner-a", func() (int64, error) {
			resp := askAs(t, rw, wire.GatewayRequest{ID: 1, Handle: 9, Req: wire.Request{Type: wire.MsgUpdate, Seq: 3}})
			if resp.OK {
				t.Fatal("a sync by an unbound handle was served")
			}
			return refusalSize(t, resp), resp.Refusal
		}},
		{wire.CodeFailed, wire.ErrFailed, 0, 6 + int64(len("query: empty range 9..1")), gw, "owner-a", through(func() error {
			_, _, err := conn.Owner("owner-a").Query(emptyRange)
			return err
		})},
		{wire.CodeClosing, wire.ErrClosing, 0, 6, gw, "", through(func() error {
			// The shard workers are gone (see StopShards): nothing can touch a
			// tenant any more, and nothing can read one either.
			t.Cleanup(gw.StopShards())
			_, err := conn.Owner("owner-a").RemoteStats()
			return err
		})},
	} {
		t.Run(row.code.String(), func(t *testing.T) {
			r := reg
			if row.on == rep {
				r = rreg
			}
			var before string
			var ledger *dp.Budget
			if row.owner != "" {
				before, ledger = state(row.on, row.owner)
			}
			counted := refusalCounts(r)
			size, err := row.provoke()
			if size != row.size {
				t.Errorf("the refusal took %d B on the wire, want %d", size, row.size)
			}
			for code, n := range refusalCounts(r) {
				want := counted[code]
				if code == row.code.String() {
					want++
				}
				if n != want {
					t.Errorf("gateway_refusals_total{code=%q} went %v → %v, want %v", code, counted[code], n, want)
				}
			}
			if !errors.Is(err, row.is) {
				t.Fatalf("error %v is not %v", err, row.is)
			}
			var ref *wire.Refusal
			if !errors.As(err, &ref) || ref.Code != row.code || ref.Cursor != row.cursor {
				t.Fatalf("error %v carries %+v, want code %v cursor %d", err, ref, row.code, row.cursor)
			}
			if row.owner != "" {
				if after, afterLedger := state(row.on, row.owner); after != before || !afterLedger.Equal(ledger) {
					t.Errorf("the refusal moved the owner's state:\n before: %s ledger %q\n after:  %s ledger %q",
						before, ledger.Describe(), after, afterLedger.Describe())
				}
			}
		})
	}
	// Eight codes, eight series: code 2, codec 8's stale refusal, is retired
	// and has none.
	if counts := refusalCounts(reg); len(counts) != 8 {
		t.Errorf("gateway_refusals_total has %d code series, want one per code (8): %v", len(counts), counts)
	}
	for _, r := range []*telemetry.Registry{reg, rreg} {
		if _, ok := refusalCounts(r)["stale"]; ok {
			t.Error(`gateway_refusals_total{code="stale"} is still emitted`)
		}
	}
}

// provokePlainRefusals draws, over raw connections, one refusal of each code
// a node answers without being configured for it: on a read-write connection
// (nil on a replica, which accepts none) not-setup, seq-gap, bad-request and
// failed; on a read-only one not-primary, not-setup, bad-request and failed.
// owner is an established namespace. It returns the
// Detail texts that went out, which no admin surface may repeat.
func provokePlainRefusals(t *testing.T, rw, ro net.Conn, owner string) (details []string) {
	t.Helper()
	expect := func(c net.Conn, owner string, req wire.Request, code wire.RefusalCode) {
		t.Helper()
		resp := ask(t, c, owner, req)
		if resp.OK || resp.Refusal.Code != code {
			t.Fatalf("%s for %q: %+v, want the %v refusal", req.Type, owner, resp, code)
		}
		if resp.Refusal.Detail != "" {
			details = append(details, resp.Refusal.Detail)
		}
	}
	if rw != nil {
		expect(rw, "owner-nobody", queryReq(query.Q1()), wire.CodeNotSetup)
		expect(rw, owner, wire.Request{Type: wire.MsgUpdate, Seq: 99}, wire.CodeSeqGap)
		expect(rw, owner, wire.Request{Type: wire.MsgUpdate}, wire.CodeBadRequest)
		expect(rw, owner, queryReq(emptyRange), wire.CodeFailed)
	}
	expect(ro, owner, wire.Request{Type: wire.MsgResume}, wire.CodeNotPrimary)
	expect(ro, "owner-nobody", queryReq(query.Q1()), wire.CodeNotSetup)
	if resp := askAs(t, ro, wire.GatewayRequest{ID: 1, Handle: wire.MaxBindings, Req: wire.Request{Type: wire.MsgStats}}); resp.OK || resp.Refusal.Code != wire.CodeBadRequest {
		t.Fatalf("stats by an unbound handle: %+v, want the bad-request refusal", resp)
	} else {
		details = append(details, resp.Refusal.Detail)
	}
	expect(ro, owner, queryReq(emptyRange), wire.CodeFailed)
	return details
}
