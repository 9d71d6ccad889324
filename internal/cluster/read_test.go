package cluster_test

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/cluster"
	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/refdb"
	"dpsync/internal/seal"
	"dpsync/internal/wire"
)

// readFingerprint renders a query result to an exact byte string — IEEE
// bits of the answer plus the deterministic cost counters. Cost.Seconds is
// wall-clock and excluded (the one field two evaluations may disagree on).
func readFingerprint(ans query.Answer, cost edb.Cost) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%016x", math.Float64bits(ans.Scalar))
	for _, g := range ans.Groups {
		fmt.Fprintf(&sb, ",%016x", math.Float64bits(g))
	}
	fmt.Fprintf(&sb, "|scan=%d|pairs=%d", cost.RecordsScanned, cost.PairsCompared)
	return sb.String()
}

// replGate pauses a follower's replication stream on demand: while paused,
// every gated connection's Read holds whatever it read off the socket until
// the gate reopens, so the follower's applied cursor freezes at a known
// offset — a deterministic network partition the test can open and heal.
// Holding after the socket read (not before it) is what makes the freeze
// independent of how many bytes the follower asks for per read: a Read
// already parked in the socket when the gate closes delivers nothing that
// arrives afterwards.
type replGate struct {
	mu     sync.Mutex
	paused chan struct{}
}

func (g *replGate) pause() {
	g.mu.Lock()
	if g.paused == nil {
		g.paused = make(chan struct{})
	}
	g.mu.Unlock()
}

func (g *replGate) resume() {
	g.mu.Lock()
	if g.paused != nil {
		close(g.paused)
		g.paused = nil
	}
	g.mu.Unlock()
}

func (g *replGate) wait() {
	g.mu.Lock()
	ch := g.paused
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

type gatedConn struct {
	net.Conn
	g *replGate
}

func (c *gatedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.g.wait()
	return n, err
}

// dialReadPlane opens a raw read-only connection to a node: the "DPSQ"
// hello, codec negotiated. The raw wire view is what lets the test assert
// the typed staleness refusal itself, beneath the client's fallback.
func dialReadPlane(t *testing.T, addr string) (net.Conn, wire.Codec) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := wire.WriteReadHello(conn, wire.CodecBinary); err != nil {
		t.Fatal(err)
	}
	codec, err := wire.ReadHelloAck(conn)
	if err != nil {
		t.Fatalf("read hello refused: %v", err)
	}
	return conn, codec
}

func rawRoundTrip(t *testing.T, conn net.Conn, codec wire.Codec, id uint64, owner string, req wire.Request) wire.Response {
	t.Helper()
	payload, err := codec.EncodeGatewayRequest(wire.GatewayRequest{ID: id, Owner: owner, Req: req})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	raw, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	gresp, err := codec.DecodeGatewayResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if gresp.ID != id {
		t.Fatalf("response id %d, want %d", gresp.ID, id)
	}
	return gresp.Resp
}

// TestReadPlaneDifferential is the follower read plane's correctness pin:
//
//   - every answer the follower serves is computed from committed replicated
//     state only, bit-identical to the primary's answer and to a
//     single-owner reference EDB fed the same batches;
//   - a freshness demand the replica's cursor cannot meet gets the typed
//     wire.ErrStale carrying that cursor — never a silently stale answer —
//     and the client falls back to the trivially-fresh primary;
//   - across a replication partition the frozen replica keeps serving its
//     committed prefix byte-for-byte, refuses fresher bounds, and converges
//     to the primary once the partition heals.
func TestReadPlaneDifferential(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := cluster.NewMemLease(nil)
	gate := &replGate{}
	gatedDialer := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &gatedConn{Conn: c, g: gate}, nil
	}
	a := startNode(t, "node-ra", lease, key, failoverTTL, nil)
	b := startNode(t, "node-rb", lease, key, failoverTTL, gatedDialer)
	if a.Role() != cluster.RolePrimary || b.Role() != cluster.RoleFollower {
		t.Fatalf("roles: a=%v b=%v", a.Role(), b.Role())
	}
	waitFor(t, 10*time.Second, "the follower to connect", func() bool { return a.Stats().Hub.Followers > 0 })

	const owner = "owner-read"
	wconn, err := client.DialGateway(a.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer wconn.Close()
	wOwn := wconn.Owner(owner)
	// Read-routed connection: syncs to the primary, queries to the follower,
	// fallback to the primary on any refusal.
	rconn, err := client.DialGateway(a.Addr(), key, client.WithReadReplica(b.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer rconn.Close()
	rOwn := rconn.Owner(owner)

	// Deterministic trace; every update lands in Q1's 50–100 range so the
	// range count distinguishes each committed prefix.
	setup := []record.Record{yellow(0, 60), yellow(0, 70)}
	update := func(i int) []record.Record { return []record.Record{yellow(i, uint16(50+i))} }
	if err := wOwn.Setup(setup); err != nil {
		t.Fatal(err)
	}
	const updates = 9
	for i := 1; i <= updates; i++ {
		if err := wOwn.Update(update(i)); err != nil {
			t.Fatal(err)
		}
	}
	const cursor = updates + 1 // one owner, one shard stream: setup + updates
	waitFor(t, 10*time.Second, "the replica to reach the cursor", func() bool { return b.Stats().Follower.Applied >= cursor })

	// Single-owner reference: the same batches through the in-process
	// single-owner stack.
	ref, err := refdb.New(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Setup(setup); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= updates; i++ {
		if err := ref.Update(update(i)); err != nil {
			t.Fatal(err)
		}
	}

	kinds := []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}
	replicaAt := map[query.Kind]string{} // follower fingerprints at the frozen cursor, reused after the partition
	for _, q := range kinds {
		rAns, rCost, err := rOwn.Query(q)
		if err != nil {
			t.Fatalf("%v via replica: %v", q.Kind, err)
		}
		pAns, pCost, err := wOwn.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sAns, sCost, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got := readFingerprint(rAns, rCost)
		if want := readFingerprint(pAns, pCost); got != want {
			t.Fatalf("%v: replica diverged from primary:\n got: %s\nwant: %s", q.Kind, got, want)
		}
		if want := readFingerprint(sAns, sCost); got != want {
			t.Fatalf("%v: replica diverged from single-owner reference:\n got: %s\nwant: %s", q.Kind, got, want)
		}
		replicaAt[q.Kind] = got
	}
	served, stale, fallbacks := rconn.ReplicaStats()
	if served != int64(len(kinds)) || stale != 0 || fallbacks != 0 {
		t.Fatalf("replica stats = served %d stale %d fallbacks %d; every query must have been follower-served", served, stale, fallbacks)
	}

	// Freshness bounds. A demand the cursor meets is served; a demand beyond
	// it is refused as stale, carrying the cursor, on the raw wire — never
	// an answer computed from less history than asked.
	if _, _, err := rOwn.QueryAt(query.Q1(), cursor); err != nil {
		t.Fatalf("QueryAt(cursor) must be served: %v", err)
	}
	raw, codec := dialReadPlane(t, b.Addr())
	resp := rawRoundTrip(t, raw, codec, 1, owner, wire.Request{
		Type: wire.MsgQuery, Query: specPtr(query.Q1()), MinOffset: cursor + 5,
	})
	if resp.OK || resp.Refusal.Code != wire.CodeStale {
		t.Fatalf("fresher-than-cursor demand answered: %+v", resp)
	}
	if resp.Refusal.Cursor != cursor {
		t.Fatalf("stale refusal carries %+v, want cursor %d", resp.Refusal, cursor)
	}
	// The same demand through the client falls back to the primary, which is
	// trivially fresh — the caller still gets a correct answer.
	if _, _, err := rOwn.QueryAt(query.Q1(), cursor+5); err != nil {
		t.Fatalf("client freshness fallback: %v", err)
	}
	if _, stale2, fb2 := rconn.ReplicaStats(); stale2 != 1 || fb2 != 1 {
		t.Fatalf("after freshness fallback: stale %d fallbacks %d, want 1/1", stale2, fb2)
	}
	// Writes on a read-only connection are refused as not-primary, on the
	// follower and on the primary alike.
	wresp := rawRoundTrip(t, raw, codec, 2, owner, wire.Request{Type: wire.MsgResume})
	if wresp.OK || wresp.Refusal.Code != wire.CodeNotPrimary {
		t.Fatalf("resume on read plane = %+v, want the not-primary refusal", wresp)
	}
	praw, pcodec := dialReadPlane(t, a.Addr())
	presp := rawRoundTrip(t, praw, pcodec, 3, owner, wire.Request{Type: wire.MsgResume})
	if presp.OK || presp.Refusal.Code != wire.CodeNotPrimary {
		t.Fatalf("resume on primary read conn = %+v, want the not-primary refusal", presp)
	}

	// Partition: freeze replication, advance the primary. The frozen replica
	// keeps serving its committed prefix — byte-identical to what it served
	// before the partition — and keeps refusing fresher bounds with its
	// unchanged cursor. It must never leak the primary's newer state.
	gate.pause()
	const extra = 3
	for i := updates + 1; i <= updates+extra; i++ {
		if err := wOwn.Update(update(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range kinds {
		rAns, rCost, err := rOwn.Query(q)
		if err != nil {
			t.Fatalf("%v via partitioned replica: %v", q.Kind, err)
		}
		if got := readFingerprint(rAns, rCost); got != replicaAt[q.Kind] {
			t.Fatalf("%v: partitioned replica diverged from its own committed prefix:\n got: %s\nwant: %s", q.Kind, got, replicaAt[q.Kind])
		}
	}
	pAns, pCost, err := wOwn.Query(query.Q1())
	if err != nil {
		t.Fatal(err)
	}
	fresh := readFingerprint(pAns, pCost)
	if fresh == replicaAt[query.RangeCount] {
		t.Fatal("primary's advanced Q1 equals the frozen replica's — the partition test is vacuous")
	}
	sresp := rawRoundTrip(t, raw, codec, 4, owner, wire.Request{
		Type: wire.MsgQuery, Query: specPtr(query.Q1()), MinOffset: cursor + extra,
	})
	if sresp.OK || *sresp.Refusal != (wire.Refusal{Code: wire.CodeStale, Cursor: cursor}) {
		t.Fatalf("partitioned stale refusal = %+v, want cursor %d", sresp, cursor)
	}
	// Through the client, the same bound lands on the primary and observes
	// the advanced state.
	fAns, fCost, err := rOwn.QueryAt(query.Q1(), cursor+extra)
	if err != nil {
		t.Fatal(err)
	}
	if got := readFingerprint(fAns, fCost); got != fresh {
		t.Fatalf("freshness fallback answer:\n got: %s\nwant: %s", got, fresh)
	}

	// Heal. The replica catches up and converges: the same query, now served
	// by the follower at the advanced cursor, matches the primary's bytes.
	gate.resume()
	waitFor(t, 10*time.Second, "the healed replica to catch up", func() bool { return b.Stats().Follower.Applied >= cursor+extra })
	cAns, cCost, err := rOwn.QueryAt(query.Q1(), cursor+extra)
	if err != nil {
		t.Fatal(err)
	}
	if got := readFingerprint(cAns, cCost); got != fresh {
		t.Fatalf("healed replica diverged from primary:\n got: %s\nwant: %s", got, fresh)
	}
	if rp := b.Stats().ReadPlane; rp.Queries == 0 || rp.Stale == 0 {
		t.Fatalf("read-plane counters unmoved: %+v", rp)
	}
}

// TestReadPlaneServesSpilledHistory pins the tiered-follower read path: once
// an owner's replicated history has spilled past the follower's in-RAM
// window, a rebuild streams refs whose bytes may still sit in the history
// writer's buffer (no rotation since the spill). The read plane must flush
// before streaming — every replica read is served by the follower, none
// falls back to the primary, and the answer matches the primary's.
func TestReadPlaneServesSpilledHistory(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := cluster.NewMemLease(nil)
	a := startNode(t, "node-sa", lease, key, failoverTTL, nil)
	b := startNode(t, "node-sb", lease, key, failoverTTL, nil)
	if a.Role() != cluster.RolePrimary || b.Role() != cluster.RoleFollower {
		t.Fatalf("roles: a=%v b=%v", a.Role(), b.Role())
	}
	const owner = "owner-spill"
	conn, err := client.DialGateway(a.Addr(), key, client.WithReadReplica(b.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner(owner)
	if err := own.Setup([]record.Record{yellow(0, 60)}); err != nil {
		t.Fatal(err)
	}
	// startNode's window is 8 and its rotation floor 16 entries: the replica
	// spills at this owner's 16th and 24th sync and rotates (flushing the
	// spill) at the 16th — a fresh replica has no image for the log to
	// outweigh, so the floor alone decides — and no earlier than the 32nd
	// after that, so after 27 syncs the second spill's bytes have been
	// referenced but never flushed by a rotation.
	const syncs = 27
	for i := 1; i < syncs; i++ {
		if err := own.Update([]record.Record{yellow(i, uint16(50+i%40))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "the replica to apply every sync", func() bool { return b.Stats().Follower.Applied >= syncs })

	pconn, err := client.DialGateway(a.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer pconn.Close()
	kinds := []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}
	for _, q := range kinds {
		rAns, rCost, err := own.QueryAt(q, syncs)
		if err != nil {
			t.Fatalf("%v via replica: %v", q.Kind, err)
		}
		pAns, pCost, err := pconn.Owner(owner).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := readFingerprint(rAns, rCost), readFingerprint(pAns, pCost); got != want {
			t.Fatalf("%v: replica diverged from primary:\n got: %s\nwant: %s", q.Kind, got, want)
		}
	}
	served, stale, fallbacks := conn.ReplicaStats()
	if served != int64(len(kinds)) || stale != 0 || fallbacks != 0 {
		t.Fatalf("replica stats = served %d stale %d fallbacks %d; every read over spilled history must be follower-served",
			served, stale, fallbacks)
	}
}

func specPtr(q query.Query) *wire.QuerySpec {
	spec := wire.FromQuery(q)
	return &spec
}
