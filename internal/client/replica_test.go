package client

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/wire"
)

// silentReplica is a follower behind a partition that sends no RST: it
// accepts, acks the read-only hello, and then neither reads nor writes.
type silentReplica struct {
	lis     net.Listener
	accepts atomic.Int64
	mu      sync.Mutex
	conns   []net.Conn
}

func startSilentReplica(t *testing.T) *silentReplica {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &silentReplica{lis: lis}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			var hello [5]byte
			if _, err := io.ReadFull(conn, hello[:]); err == nil {
				_ = wire.WriteHelloAck(conn, wire.CodecBinary)
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn) // held open, never read again
			s.mu.Unlock()
			s.accepts.Add(1)
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, c := range s.conns {
			c.Close()
		}
	})
	return s
}

// TestSilentReplicaFallsBack pins the side channel's contract against a
// replica that goes silent after the hello: the read waits one bounded
// deadline (helloTimeout) and is then answered by the primary, the next read
// redials, and a Close that races a read blocked on the replica returns at
// once — it severs the socket instead of queueing behind the read's lock.
func TestSilentReplicaFallsBack(t *testing.T) {
	t.Parallel() // one helloTimeout of waiting
	gw, key := startGateway(t, gateway.Config{})
	silent := startSilentReplica(t)
	conn, err := DialGateway(gw.Addr(), key, WithReadReplica(silent.lis.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-partitioned")
	if err := own.Setup([]record.Record{yellowAt(0, 10), yellowAt(0, 20)}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	ans, _, err := own.Query(query.Q2())
	if err != nil || ans.Total() != 2 {
		t.Fatalf("query behind a silent replica: %+v, %v — want the primary's answer", ans, err)
	}
	if d := time.Since(start); d > helloTimeout+3*time.Second {
		t.Fatalf("the read took %v, want it bounded by %v", d, helloTimeout)
	}
	if served, stale, fallbacks := conn.ReplicaStats(); served != 0 || stale != 0 || fallbacks != 1 {
		t.Fatalf("replica stats = served %d stale %d fallbacks %d, want one fallback", served, stale, fallbacks)
	}

	// The next read redials, and blocks on the second silent connection.
	blocked := make(chan error, 1)
	go func() { _, _, err := own.Query(query.Q1()); blocked <- err }()
	for deadline := time.Now().Add(5 * time.Second); silent.accepts.Load() < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the read after a fallback did not redial the replica")
		}
	}
	time.Sleep(50 * time.Millisecond) // let it reach the blocking read
	closed := make(chan struct{})
	go func() { conn.Close(); close(closed) }()
	for what, ch := range map[string]<-chan struct{}{"Close": closed, "the blocked read": wait(blocked)} {
		select {
		case <-ch:
		case <-time.After(helloTimeout / 2):
			t.Fatalf("%s did not return: it is waiting out the silent replica", what)
		}
	}
}

// wait adapts an error channel to a signal: the read's outcome after a Close
// is the connection's business, only its return matters.
func wait(errs <-chan error) <-chan struct{} {
	done := make(chan struct{})
	go func() { <-errs; close(done) }()
	return done
}

// TestReplicaRefusalsReachTheCaller runs the two refusals only a read-only
// connection draws through the client's replica side channel against a real
// replica-role gateway: the error is the code's sentinel under errors.Is, a
// *wire.Refusal with the replica's cursor under errors.As, and readRoundTrip
// counts the stale one on its way to the primary.
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
		{wire.Request{Type: wire.MsgQuery, Query: &spec, MinOffset: 7}, wire.ErrStale, wire.Refusal{Code: wire.CodeStale}},
		{wire.Request{Type: wire.MsgResume}, wire.ErrNotPrimary, wire.Refusal{Code: wire.CodeNotPrimary}},
	} {
		_, err := conn.replicaRoundTrip("owner-x", tc.req)
		var ref *wire.Refusal
		if !errors.Is(err, tc.is) || !errors.As(err, &ref) || *ref != tc.want {
			t.Errorf("%s on the replica channel: %v (%+v), want %v as %+v", tc.req.Type, err, ref, tc.is, tc.want)
		}
	}
	// Through the public surface the stale refusal is the replica's problem:
	// counted, and answered by the primary.
	if _, _, err := own.QueryAt(query.Q1(), 7); err != nil {
		t.Fatalf("QueryAt past the replica's cursor: %v", err)
	}
	if served, stale, fallbacks := conn.ReplicaStats(); served != 0 || stale != 1 || fallbacks != 1 {
		t.Fatalf("replica stats = served %d stale %d fallbacks %d, want the one stale fallback", served, stale, fallbacks)
	}
}
