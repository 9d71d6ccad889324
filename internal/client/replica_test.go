package client

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/wire"
)

// scriptedReplica is a read-only node whose every answer is the test's: it
// accepts, acks the read-only hello, reads request frames — counting them and
// their bytes per accepted connection — and says nothing on its own. A test
// that never answers has a follower behind a partition that sends no RST.
// auto, when set, answers for the test: a request it returns a response for
// is answered at once and never reaches the test.
type scriptedReplica struct {
	lis     net.Listener
	auto    func(wire.GatewayRequest) *wire.Response
	accepts atomic.Int64
	conns   chan *scriptedConn // every accepted connection, hello acked; sized past any test's redials
}

// scriptedConn is one accepted connection of a scriptedReplica.
type scriptedConn struct {
	nc      net.Conn
	auto    func(wire.GatewayRequest) *wire.Response
	reqs    chan wire.GatewayRequest // every frame read, in arrival order; sized past any test's reads
	frames  atomic.Int64
	in, out atomic.Int64 // frame bytes read and written, length headers included
}

func startScriptedReplica(t *testing.T, auto func(wire.GatewayRequest) *wire.Response) *scriptedReplica {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedReplica{lis: lis, auto: auto, conns: make(chan *scriptedConn, 16)}
	var mu sync.Mutex
	var open []net.Conn
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			open = append(open, nc)
			mu.Unlock()
			var hello [5]byte
			if _, err := io.ReadFull(nc, hello[:]); err != nil || wire.WriteHelloAck(nc, obliDB) != nil {
				continue
			}
			sc := &scriptedConn{nc: nc, auto: auto, reqs: make(chan wire.GatewayRequest, 256)}
			go sc.read()
			s.accepts.Add(1)
			s.conns <- sc
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range open {
			nc.Close()
		}
	})
	return s
}

func (c *scriptedConn) read() {
	for {
		payload, err := wire.ReadFrame(c.nc)
		if err != nil {
			return
		}
		req, err := wire.CodecBinary.DecodeGatewayRequest(payload)
		if err != nil {
			return
		}
		c.in.Add(int64(wire.FrameLen(len(payload))))
		c.frames.Add(1)
		if c.auto != nil {
			if resp := c.auto(req); resp != nil {
				if c.write(req.ID, *resp) != nil {
					return
				}
				continue
			}
		}
		c.reqs <- req
	}
}

// write sends the response to request id.
func (c *scriptedConn) write(id uint64, resp wire.Response) error {
	payload, err := wire.CodecBinary.EncodeGatewayResponse(wire.GatewayResponse{ID: id, Resp: resp})
	if err == nil {
		err = wire.WriteFrame(c.nc, payload)
	}
	if err == nil {
		c.out.Add(int64(wire.FrameLen(len(payload))))
	}
	return err
}

// within bounds every wait of these tests on the client: far above a
// loopback round trip, below helloTimeout, so a wait that only the replica
// deadline would end fails the test instead of passing late.
const within = helloTimeout / 2

// accepted returns the replica's next accepted connection.
func (s *scriptedReplica) accepted(t *testing.T) *scriptedConn {
	t.Helper()
	select {
	case sc := <-s.conns:
		return sc
	case <-time.After(within):
		t.Fatal("the client did not dial the replica")
		return nil
	}
}

// next returns the next request frame the connection read.
func (c *scriptedConn) next(t *testing.T) wire.GatewayRequest {
	t.Helper()
	select {
	case req := <-c.reqs:
		return req
	case <-time.After(within):
		t.Fatalf("the replica has read %d frames and no more are coming: a read is queued inside the client", c.frames.Load())
		return wire.GatewayRequest{}
	}
}

// answer is write from the test's goroutine.
func (c *scriptedConn) answer(t *testing.T, id uint64, resp wire.Response) {
	t.Helper()
	if err := c.write(id, resp); err != nil {
		t.Fatal(err)
	}
}

func scalar(v float64) wire.Response {
	return wire.Response{OK: true, Answer: &wire.AnswerSpec{Scalar: v}, Cost: &wire.CostSpec{}}
}

// countAt is the range query whose answer over stairs(n) is i, for i up to n:
// it tells callers' answers apart.
func countAt(i int) query.Query {
	return query.Query{Kind: query.RangeCount, Provider: record.YellowCab, Lo: uint16(i), Hi: uint16(i)}
}

// stairs is a table holding i records at every location i in 1..n.
func stairs(n int) []record.Record {
	var rs []record.Record
	for i := 1; i <= n; i++ {
		for j := 0; j < i; j++ {
			rs = append(rs, yellowAt(j, uint16(i)))
		}
	}
	return rs
}

// readers starts one countAt(i) read per i in 1..n and returns where each
// one's outcome lands.
func readers(own *OwnerSession, n int) []chan readResult {
	out := make([]chan readResult, n+1)
	for i := 1; i <= n; i++ {
		out[i] = make(chan readResult, 1)
		go func() {
			ans, _, err := own.Query(countAt(i))
			out[i] <- readResult{ans.Scalar, err}
		}()
	}
	return out
}

type readResult struct {
	scalar float64
	err    error
}

// want receives one reader's outcome and holds it to the expected answer.
func want(t *testing.T, what string, ch <-chan readResult, scalar float64, bound time.Duration) {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil || r.scalar != scalar {
			t.Fatalf("%s: answer %v, %v — want %v", what, r.scalar, r.err, scalar)
		}
	case <-time.After(bound):
		t.Fatalf("%s did not return within %v", what, bound)
	}
}

func wantReplicaStats(t *testing.T, conn *GatewayConn, served, fallbacks int64) {
	t.Helper()
	if s, b, f := conn.ReplicaStats(); s != served || b != 0 || f != fallbacks {
		t.Fatalf("replica stats = served %d stale %d fallbacks %d, want %d 0 %d", s, b, f, served, fallbacks)
	}
}

// TestReplicaReadsArePipelined pins that the replica link is multiplexed: N
// reads from N callers are all on the replica's socket before any of them is
// answered (the replica withholds every answer until it has read N frames — a
// client that takes one replica read at a time never gets past the first),
// and answers released in reverse order reach the callers that asked.
func TestReplicaReadsArePipelined(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	rep := startScriptedReplica(t, nil)
	conn, err := DialGateway(gw.Addr(), key, WithReadReplica(rep.lis.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 8
	results := readers(conn.Owner("owner-fan-in"), n)
	sc := rep.accepted(t)
	var reqs [n]wire.GatewayRequest
	for i := range reqs {
		reqs[i] = sc.next(t)
	}
	for i := n - 1; i >= 0; i-- {
		sc.answer(t, reqs[i].ID, scalar(100+float64(reqs[i].Req.Query.Lo)))
	}
	for i := 1; i <= n; i++ {
		want(t, "a pipelined replica read", results[i], 100+float64(i), within)
	}
	wantReplicaStats(t, conn, n, 0)
	if a := rep.accepts.Load(); a != 1 {
		t.Fatalf("%d replica connections for %d concurrent readers, want the one link", a, n)
	}
}

// quiet waits until no write is under way on any of links. A link writes only
// under wmu, so once wmu has been free every write has returned: the
// link's sentConn, which counts a write whole before it starts, has taken
// back whatever part of it the socket did not accept, however late the
// writing goroutine was scheduled again.
func quiet(links ...*link) {
	for _, l := range links {
		l.wmu.Lock()
		l.wmu.Unlock()
	}
}

// countedConn counts the raw bytes of one connection; with the hello done
// they are exactly its frame bytes.
type countedConn struct {
	net.Conn
	read, written *atomic.Int64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// TestReplicaLinkDeathFallsBackOnce kills the replica link with K reads in
// flight: each is answered by the primary, exactly once (served + fallbacks
// is the number of reads issued), the next read redials, and the new
// connection carries that read alone — nothing is replayed to a replica. Each
// connection names the owner inline in its first frame and by handle 1 after.
// Over the whole exchange BytesOut and BytesIn are, to the byte, what the
// replica's two connections and the primary received and sent. The counters are read
// only once every link that wrote is quiet (see quiet).
func TestReplicaLinkDeathFallsBackOnce(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	rep := startScriptedReplica(t, nil)
	var primaryRead, primaryWritten atomic.Int64
	dial := func(addr string) (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil || addr != gw.Addr() {
			return nc, err
		}
		return countedConn{nc, &primaryRead, &primaryWritten}, nil
	}
	conn, err := DialGateway(gw.Addr(), key, WithReadReplica(rep.lis.Addr().String()), WithDialer(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const k = 6
	own := conn.Owner("owner-cut")
	if err := own.Setup(stairs(k)); err != nil {
		t.Fatal(err)
	}
	quiet(conn.primary)
	out0, in0 := conn.BytesOut()-primaryWritten.Load(), conn.BytesIn()-primaryRead.Load()

	results := readers(own, k)
	first := rep.accepted(t)
	for i := 0; i < k; i++ {
		// The link's first frame names the owner inline and binds handle 1;
		// the others name it by that handle.
		if req := first.next(t); (i == 0) != (req.Owner == "owner-cut" && req.Handle == 0) || (i > 0 && req.Handle != 1) {
			t.Fatalf("frame %d on the replica link names %q by handle %d", i, req.Owner, req.Handle)
		}
	}
	first.nc.Close() // every read is on it: the replica read them all
	for i := 1; i <= k; i++ {
		want(t, "a read in flight on the killed link", results[i], float64(i), within)
	}
	wantReplicaStats(t, conn, 0, k)

	again := readers(own, 1)
	second := rep.accepted(t)
	req := second.next(t)
	if req.Req.Query == nil || req.Req.Query.Lo != 1 {
		t.Fatalf("the redialed replica's first frame is %+v, want the new read: a dead link's request was replayed", req)
	}
	if req.Owner != "owner-cut" || req.Handle != 0 {
		t.Fatalf("the redialed replica's first frame names %q by handle %d, want the owner inline: a new link binds afresh", req.Owner, req.Handle)
	}
	second.answer(t, req.ID, scalar(42))
	want(t, "the read after the redial", again[1], 42, within)
	wantReplicaStats(t, conn, 1, k)
	if f1, f2 := first.frames.Load(), second.frames.Load(); f1 != k || f2 != 1 {
		t.Fatalf("the replica read %d frames on the killed connection and %d on the next, want %d and 1", f1, f2, k)
	}

	quiet(conn.primary, conn.replica)
	out, in := conn.BytesOut()-primaryWritten.Load()-out0, conn.BytesIn()-primaryRead.Load()-in0
	if sent, got := first.in.Load()+second.in.Load(), first.out.Load()+second.out.Load(); out != sent || in != got {
		t.Fatalf("beside the primary's bytes the client counted %d out and %d in; the replica read %d and wrote %d", out, in, sent, got)
	}
}

// TestSilentReplicaFallsBack pins the replica link's contract against a
// replica that goes silent after the hello: the reads in flight on it — four
// callers, one accepted connection — wait out ONE bounded deadline
// (helloTimeout) together, not one each, and are then answered by the primary;
// the next read redials; and a Close that races a read blocked on the replica
// returns at once, severing the socket under it.
func TestSilentReplicaFallsBack(t *testing.T) {
	t.Parallel() // one helloTimeout of waiting
	gw, key := startGateway(t, gateway.Config{})
	silent := startScriptedReplica(t, nil)
	conn, err := DialGateway(gw.Addr(), key, WithReadReplica(silent.lis.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-partitioned")
	const k = 4
	if err := own.Setup(stairs(k)); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	results := readers(own, k)
	for i := 1; i <= k; i++ {
		want(t, "a read behind a silent replica", results[i], float64(i), time.Until(start.Add(helloTimeout+3*time.Second)))
	}
	wantReplicaStats(t, conn, 0, k)
	if a := silent.accepts.Load(); a != 1 {
		t.Fatalf("%d replica connections for %d concurrent readers, want them to share one", a, k)
	}
	silent.accepted(t)

	// The next read redials, and blocks on the second silent connection.
	blocked := readers(own, 1)[1]
	silent.accepted(t).next(t) // its frame is on the replica's socket: it is waiting for the answer
	closed := make(chan readResult, 1)
	go func() { closed <- readResult{err: conn.Close()} }()
	for what, ch := range map[string]<-chan readResult{"Close": closed, "the blocked read": blocked} {
		select {
		case <-ch: // the read's outcome after a Close is the connection's business, only its return matters
		case <-time.After(within):
			t.Fatalf("%s did not return: it is waiting out the silent replica", what)
		}
	}
}

// TestHelloSilentReplicaFallsBackOnce pins the dial half of the same
// contract, against a replica that accepts TCP and reads the hello but never
// acks it: four concurrent reads wait out ONE dial (helloTimeout) together —
// those queued behind the dial take its failure instead of dialing again —
// and are answered by the primary, over one accepted connection.
func TestHelloSilentReplicaFallsBackOnce(t *testing.T) {
	t.Parallel() // one helloTimeout of waiting
	gw, key := startGateway(t, gateway.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int64
	var mu sync.Mutex
	var open []net.Conn
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			mu.Lock()
			open = append(open, nc)
			mu.Unlock()
			var hello [5]byte
			_, _ = io.ReadFull(nc, hello[:]) // and never a word back
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range open {
			nc.Close()
		}
	})
	conn, err := DialGateway(gw.Addr(), key, WithReadReplica(lis.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-hello-silent")
	const k = 4
	if err := own.Setup(stairs(k)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	results := readers(own, k)
	for i := 1; i <= k; i++ {
		want(t, "a read behind a replica that never acks the hello", results[i], float64(i), time.Until(start.Add(helloTimeout+3*time.Second)))
	}
	wantReplicaStats(t, conn, 0, k)
	if a := accepts.Load(); a != 1 {
		t.Fatalf("%d replica dials for %d concurrent readers, want them to share one", a, k)
	}
}

// TestReplicaDeadlineFollowsTheOldestRead pins what the link's one deadline
// measures: how long the oldest read in flight has waited, not how long the
// replica has been silent. The replica withholds one answer and keeps
// answering every other read on the same connection; the withheld read is
// still handed to the primary after helloTimeout — answers to its neighbours
// do not extend its wait.
//
// A neighbour in flight when that deadline kills the link falls back to the
// primary with the withheld read, as every read on a dying link does, and
// the primary answers 0. The test accepts that answer only once it has
// proved the withheld read's deadline is what killed the link
// (deadlineKilled); any other answer, or a link dead for another reason,
// fails it.
func TestReplicaDeadlineFollowsTheOldestRead(t *testing.T) {
	t.Parallel() // one helloTimeout of waiting
	gw, key := startGateway(t, gateway.Config{})
	seven := scalar(7)
	rep := startScriptedReplica(t, func(req wire.GatewayRequest) *wire.Response {
		if req.Req.Query.Lo == 1 {
			return nil
		}
		return &seven
	})
	conn, err := DialGateway(gw.Addr(), key, WithReadReplica(rep.lis.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-straggler")
	if err := own.Setup([]record.Record{yellowAt(0, 1)}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	withheld := readers(own, 1)[1]
	rep.accepted(t).next(t) // countAt(1) is on the replica's socket, and stays unanswered
	for {
		select {
		case r := <-withheld:
			if r.err != nil || r.scalar != 1 {
				t.Fatalf("the withheld read: answer %v, %v — want the primary's 1", r.scalar, r.err)
			}
			if served, _, _ := conn.ReplicaStats(); served < 10 {
				t.Fatalf("the replica served %d reads beside the withheld one, want a steady flow", served)
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
		if d := time.Since(start); d > helloTimeout+3*time.Second {
			t.Fatalf("the withheld read is still waiting after %v: answers to other reads extend its deadline", d)
		}
		ans, _, err := own.Query(countAt(2))
		if err != nil {
			t.Fatalf("a read beside the withheld one: %v", err)
		}
		if ans.Scalar != 7 {
			deadlineKilled(t, conn, rep, start, ans.Scalar)
		}
	}
}

// deadlineKilled holds a neighbour's answer other than the replica's 7 to the
// one way it may arise: the primary's 0 for a read that was on the transport
// the withheld read's deadline killed. That transport must be the first and
// only one the replica accepted (so the neighbour rode it, not a redialed
// one), the link must have lost it to a read deadline, and the fall-back must
// come no earlier than helloTimeout after the withheld read was issued at
// start.
func deadlineKilled(t *testing.T, conn *GatewayConn, rep *scriptedReplica, start time.Time, answer float64) {
	t.Helper()
	elapsed := time.Since(start)
	if answer != 0 {
		t.Fatalf("a read beside the withheld one: %v — want the replica's 7 (or the primary's 0 once the link died)", answer)
	}
	if dials := rep.accepts.Load(); dials != 1 {
		t.Fatalf("a read beside the withheld one fell back after %d replica dials: it did not ride the withheld read's transport", dials)
	}
	l := conn.replica
	l.mu.Lock()
	err := l.down
	l.mu.Unlock()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a read beside the withheld one fell back from a link that died of %v, not of a read deadline", err)
	}
	if elapsed < helloTimeout {
		t.Fatalf("a read beside the withheld one fell back %v after the withheld read, before its %v deadline", elapsed, helloTimeout)
	}
}

// TestReplicaRefusalsReachTheCaller runs two refusals a replica answers —
// not-setup for an owner it has not applied, not-primary for a write on its
// read-only connection — through the client's replica link against a real
// replica-role gateway: the error is the code's sentinel under errors.Is and
// a *wire.Refusal under errors.As, and readRoundTrip counts the query's
// refusal as a fallback on its way to the primary.
func TestReplicaRefusalsReachTheCaller(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	rep, err := gateway.NewReplica("127.0.0.1:0", gateway.Config{Key: key, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = rep.Serve() }()
	t.Cleanup(func() { _ = rep.Close() })
	conn, err := DialGateway(gw.Addr(), key, WithReadReplica(rep.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-x")
	if err := own.Setup([]record.Record{yellowAt(0, 10)}); err != nil {
		t.Fatal(err)
	}

	spec := wire.FromQuery(query.Q1())
	for _, tc := range []struct {
		req  wire.Request
		is   error
		want wire.Refusal
	}{
		{wire.Request{Type: wire.MsgQuery, Query: &spec}, edb.ErrNotSetup, wire.Refusal{Code: wire.CodeNotSetup}},
		{wire.Request{Type: wire.MsgResume}, wire.ErrNotPrimary, wire.Refusal{Code: wire.CodeNotPrimary}},
	} {
		_, _, err := conn.replica.roundTrip("owner-x", tc.req)
		var ref *wire.Refusal
		if !errors.Is(err, tc.is) || !errors.As(err, &ref) || *ref != tc.want {
			t.Errorf("%s on the replica link: %v (%+v), want %v as %+v", tc.req.Type, err, ref, tc.is, tc.want)
		}
	}
	// Through the public surface the replica's refusal is its own problem:
	// counted, and answered by the primary.
	if _, _, err := own.Query(query.Q1()); err != nil {
		t.Fatalf("Query of an owner the replica has not applied: %v", err)
	}
	wantReplicaStats(t, conn, 0, 1)
	// A refusal is an answer, not a failure of the link: all three rode one
	// transport.
	conn.replica.mu.Lock()
	lost := conn.replica.tr == nil
	conn.replica.mu.Unlock()
	if lost {
		t.Fatal("a refusal lost the replica link's transport")
	}
}
