package gateway_test

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// callCounter counts the Read and Write calls of every connection it wraps —
// one system call each on a TCP connection.
type callCounter struct{ reads, writes atomic.Int64 }

type countedConn struct {
	net.Conn
	n *callCounter
}

func (c countedConn) Read(p []byte) (int, error)  { c.n.reads.Add(1); return c.Conn.Read(p) }
func (c countedConn) Write(p []byte) (int, error) { c.n.writes.Add(1); return c.Conn.Write(p) }

// dial is a client.WithDialer transport constructor counting into n.
func (n *callCounter) dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return countedConn{conn, n}, nil
}

// countedListener counts the accepted side of every connection.
type countedListener struct {
	net.Listener
	n *callCounter
}

func (l countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{conn, l.n}, nil
}

// nopBackend stores nothing and answers nothing: the serving stack in front
// of it is what the coalescing tests and benchmark measure.
type nopBackend struct{}

func (nopBackend) Name() string                     { return "nop" }
func (nopBackend) Leakage() edb.LeakageClass        { return edb.L0 }
func (nopBackend) Supports(query.Query) bool        { return true }
func (nopBackend) Stats() edb.StorageStats          { return edb.StorageStats{} }
func (nopBackend) Setup([]record.Record) error      { return nil }
func (nopBackend) Update([]record.Record) error     { return nil }
func (nopBackend) SetupSealed([]seal.Sealed) error  { return nil }
func (nopBackend) UpdateSealed([]seal.Sealed) error { return nil }
func (nopBackend) Query(query.Query) (query.Answer, edb.Cost, error) {
	return query.Answer{}, edb.Cost{}, nil
}

// startCounted runs a no-op-backend gateway behind a counting listener and
// dials it through a counting dialer.
func startCounted(tb testing.TB, cfg gateway.Config, opts ...client.GatewayOption) (conn *client.GatewayConn, server, cl *callCounter) {
	tb.Helper()
	key, err := seal.NewRandomKey()
	if err != nil {
		tb.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	server, cl = &callCounter{}, &callCounter{}
	cfg.Key, cfg.Listener = key, countedListener{lis, server}
	cfg.NewBackend = func(string) (edb.Database, error) { return nopBackend{}, nil }
	gw, err := gateway.New("", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	tb.Cleanup(func() { _ = gw.Close() })
	conn, err = client.DialGateway(gw.Addr(), key, append(opts, client.WithDialer(cl.dial))...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	return conn, server, cl
}

// setupOwners establishes n namespaces (three serial round trips each) and
// returns their sessions.
func setupOwners(tb testing.TB, conn *client.GatewayConn, n int) []*client.OwnerSession {
	tb.Helper()
	owners := make([]*client.OwnerSession, n)
	for i := range owners {
		owners[i] = conn.Owner(fmt.Sprintf("owner-%d", i))
		if err := owners[i].Setup([]record.Record{yellow(0, 1)}); err != nil {
			tb.Fatal(err)
		}
	}
	return owners
}

// TestBurstCoalescesSocketWrites pins what the buffered connection is for: a
// burst of N pipelined one-record syncs — N callers released at once on one
// connection — costs at most N/2 socket writes on the client and at most N/2
// on the gateway (measured: a handful). The burst is run on one scheduler
// thread, the configuration the benchmark's generator and server each run
// in: there, "every sender already runnable" and "every response already
// queued" are exact, so the bound does not depend on timing. On more threads
// the same code coalesces whatever happens to be waiting, which no test can
// pin to a number.
func TestBurstCoalescesSocketWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = client.DefaultWindow
	conn, server, cl := startCounted(t, gateway.Config{Shards: 1})
	owners := setupOwners(t, conn, n)

	sw, cw := server.writes.Load(), cl.writes.Load()
	release := make(chan struct{})
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i, own := range owners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			errs <- own.Update([]record.Record{yellow(1, uint16(i+1))})
		}()
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	cw, sw = cl.writes.Load()-cw, server.writes.Load()-sw
	t.Logf("%d pipelined syncs: %d client writes, %d gateway writes", n, cw, sw)
	if cw > n/2 {
		t.Errorf("client made %d socket writes for a burst of %d requests, want at most %d", cw, n, n/2)
	}
	if sw > n/2 {
		t.Errorf("gateway made %d socket writes for a burst of %d responses, want at most %d", sw, n, n/2)
	}
}

// TestLoneRequestWrittenAtOnce pins the liveness rule coalescing must not
// bend: a request with nothing queued behind it costs exactly one socket
// write on each side and is answered promptly — no flush waits for a timer
// or for a later frame. The bound is far below every timeout in the stack
// (the shortest is seconds) and far above a loopback round trip.
func TestLoneRequestWrittenAtOnce(t *testing.T) {
	conn, server, cl := startCounted(t, gateway.Config{})
	own := setupOwners(t, conn, 1)[0]
	for i := 1; i <= 20; i++ {
		sw, cw := server.writes.Load(), cl.writes.Load()
		start := time.Now()
		if err := own.Update([]record.Record{yellow(i, uint16(i))}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Fatalf("lone sync %d took %v: its frame or its ack waited for something", i, d)
		}
		if cw, sw = cl.writes.Load()-cw, server.writes.Load()-sw; cw != 1 || sw != 1 {
			t.Fatalf("lone sync %d: %d client writes and %d gateway writes, want exactly 1 and 1", i, cw, sw)
		}
	}
}

// TestAckObservedOncePerFlushedResponse pins where the ack stage ends now
// that responses share writes: every response is observed exactly once, after
// the flush that carried it — an ack batched behind another is neither
// dropped nor counted at encode time. The burst goes out in one raw write so
// the responses do queue behind each other.
func TestAckObservedOncePerFlushedResponse(t *testing.T) {
	reg := telemetry.New()
	gw, key := startGateway(t, gateway.Config{Telemetry: reg, Shards: 1})
	sealer, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	conn := rawGatewayConn(t, gw.Addr())
	const syncs = 40
	var burst bytes.Buffer
	for i := 1; i <= syncs; i++ {
		ct, err := sealer.SealAll([]record.Record{yellow(i, uint16(i))})
		if err != nil {
			t.Fatal(err)
		}
		typ := wire.MsgUpdate
		if i == 1 {
			typ = wire.MsgSetup
		}
		payload, err := wire.CodecBinary.EncodeGatewayRequest(wire.GatewayRequest{
			ID: uint64(i), Owner: "owner-ack", Req: wire.Request{Type: typ, Seq: uint64(i), Sealed: [][]byte{ct[0]}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(&burst, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= syncs; i++ {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := wire.CodecBinary.DecodeGatewayResponse(payload); err != nil || !resp.Resp.OK || resp.ID != uint64(i) {
			t.Fatalf("response %d = %+v, %v", i, resp, err)
		}
	}
	// The observation follows the flush, and this reader is only ordered
	// after the write: give the writer goroutine its last few instructions.
	var acks int64
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, s := range reg.Snapshot() {
			if s.Name == "gateway_sync_ack_us" {
				acks = s.Hist.Count
			}
		}
		if acks >= syncs {
			break
		}
	}
	if acks != syncs {
		t.Fatalf("gateway_sync_ack_us observed %d acks for %d acked syncs", acks, syncs)
	}
}

// BenchmarkPipelinedRoundTrip drives one-record syncs through the whole
// serving stack — client session, seal, frame I/O both ways, gateway reader,
// shard dispatch, writer — against a backend that does nothing, with 1 and
// with 8 callers in flight on one connection, and reports the socket calls
// (reads and writes, both ends) per sync.
func BenchmarkPipelinedRoundTrip(b *testing.B) {
	for _, inflight := range []int{1, 8} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			conn, server, cl := startCounted(b, gateway.Config{})
			owners := setupOwners(b, conn, inflight)
			calls := func() int64 {
				return server.reads.Load() + server.writes.Load() + cl.reads.Load() + cl.writes.Load()
			}
			before := calls()
			rs := []record.Record{yellow(1, 7)}
			closedLoop(b, owners, func(own *client.OwnerSession, _ int64) error { return own.Update(rs) })
			b.ReportMetric(float64(calls()-before)/float64(b.N), "syscalls/op")
		})
	}
}

// closedLoop is a benchmark's timed section: b.N operations, numbered from 1,
// drawn by one caller per owner, each starting its next as its last returns.
func closedLoop(b *testing.B, owners []*client.OwnerSession, op func(own *client.OwnerSession, i int64) error) {
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, own := range owners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				if err := op(own, i); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
}

// BenchmarkReplicaRoundTrip is the read side of BenchmarkPipelinedRoundTrip:
// Q1–Q4 through one connection's read replica (client.WithReadReplica)
// against a replica-role gateway holding a few replicated syncs per owner,
// with 1, 2 and 8 callers in flight. It reports reads per second and the
// socket calls (reads and writes, both ends of the replica connection) per
// read; every read must have been answered by the replica.
func BenchmarkReplicaRoundTrip(b *testing.B) {
	queries := []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}
	for _, inflight := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			server, cl := &callCounter{}, &callCounter{}
			rep, key := startReplica(b, gateway.Config{Shards: 1, Listener: countedListener{lis, server}})
			primary, _ := startGateway(b, gateway.Config{Key: key})
			conn, err := client.DialGateway(primary.Addr(), key, client.WithReadReplica(rep.Addr()), client.WithDialer(cl.dial))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { conn.Close() })
			owners := make([]*client.OwnerSession, inflight)
			for i := range owners {
				owners[i] = conn.Owner(fmt.Sprintf("owner-%d", i))
				for tick := 1; tick <= 4; tick++ {
					replicate(b, rep, key, owners[i].OwnerID(), uint64(tick), yellow(tick, uint16(tick)), yellow(tick, uint16(tick+40)))
				}
				if _, _, err := owners[i].Query(queries[0]); err != nil { // dials the replica
					b.Fatal(err)
				}
			}
			calls := func() int64 {
				return server.reads.Load() + server.writes.Load() + cl.reads.Load() + cl.writes.Load()
			}
			before, servedBefore := calls(), int64(inflight)
			closedLoop(b, owners, func(own *client.OwnerSession, i int64) error {
				_, _, err := own.Query(queries[i%4])
				return err
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
			b.ReportMetric(float64(calls()-before)/float64(b.N), "syscalls/op")
			if served, _, fallbacks := conn.ReplicaStats(); served-servedBefore != int64(b.N) || fallbacks != 0 {
				b.Fatalf("%d reads: the replica served %d and %d fell back to the primary", b.N, served-servedBefore, fallbacks)
			}
		})
	}
}
