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
// bits of the answer and of the modelled seconds, and the cost counters.
// Every field is deterministic: the seconds are the backend's cost model
// applied to the two counts, wherever they are derived.
func readFingerprint(ans query.Answer, cost edb.Cost) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%016x", math.Float64bits(ans.Scalar))
	for _, g := range ans.Groups {
		fmt.Fprintf(&sb, ",%016x", math.Float64bits(g))
	}
	fmt.Fprintf(&sb, "|s=%016x|scan=%d|pairs=%d", math.Float64bits(cost.Seconds), cost.RecordsScanned, cost.PairsCompared)
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
// hello, codec negotiated. The raw wire view is what lets the test assert a
// typed refusal itself, beneath the client's fallback.
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
	if _, err := wire.ReadHelloAck(conn); err != nil {
		t.Fatalf("read hello refused: %v", err)
	}
	return conn, wire.CodecBinary
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
//   - a write on a read-only connection is refused as not-primary, on the
//     follower and on the primary alike;
//   - across a replication partition the frozen replica keeps serving its
//     committed prefix byte-for-byte, and converges to the primary once the
//     partition heals — every one of those reads follower-served.
func TestReadPlaneDifferential(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := tempLease(t)
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
	// followerServed fails the test unless every read so far was the
	// follower's: want of them, none fallen back to the primary.
	followerServed := func(want int) {
		t.Helper()
		if served, _, fallbacks := rconn.ReplicaStats(); served != int64(want) || fallbacks != 0 {
			t.Fatalf("replica stats = served %d fallbacks %d; all %d queries must have been follower-served", served, fallbacks, want)
		}
	}
	followerServed(len(kinds))

	// Writes on a read-only connection are refused as not-primary, on the
	// follower and on the primary alike.
	raw, codec := dialReadPlane(t, b.Addr())
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
	// before the partition. It must never leak the primary's newer state.
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
	followerServed(2 * len(kinds))

	// Heal. The replica catches up and converges: the same query, served by
	// the follower once it has applied the advanced cursor, matches the
	// primary's bytes.
	gate.resume()
	waitFor(t, 10*time.Second, "the healed replica to catch up", func() bool { return b.Stats().Follower.Applied >= cursor+extra })
	cAns, cCost, err := rOwn.Query(query.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if got := readFingerprint(cAns, cCost); got != fresh {
		t.Fatalf("healed replica diverged from primary:\n got: %s\nwant: %s", got, fresh)
	}
	followerServed(2*len(kinds) + 1)
	if rp := b.Stats().ReadPlane; rp.Queries != int64(2*len(kinds)+1) {
		t.Fatalf("read-plane counters = %+v, want %d queries", rp, 2*len(kinds)+1)
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
	lease := tempLease(t)
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
		rAns, rCost, err := own.Query(q)
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
	if served, _, fallbacks := conn.ReplicaStats(); served != int64(len(kinds)) || fallbacks != 0 {
		t.Fatalf("replica stats = served %d fallbacks %d; every read over spilled history must be follower-served",
			served, fallbacks)
	}
}
