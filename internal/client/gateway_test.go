package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"dpsync/internal/core"
	"dpsync/internal/crypte"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/strategy"
	"dpsync/internal/wire"
)

func startGateway(t *testing.T, cfg gateway.Config) (*gateway.Gateway, []byte) {
	t.Helper()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Key = key
	gw, err := gateway.New("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	t.Cleanup(func() { _ = gw.Close() })
	return gw, key
}

func TestOwnerSessionImplementsDatabase(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	conn, err := DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-1")
	var _ edb.Database = own
	if own.Name() != "ObliDB-gateway" {
		t.Errorf("name = %q", own.Name())
	}
	if err := edb.CheckCompatibility(own); err != nil {
		t.Errorf("gateway session should pass the §6 gate: %v", err)
	}
	if !own.Supports(query.Q3()) {
		t.Error("structurally valid join refused client-side")
	}
	if own.OwnerID() != "owner-1" {
		t.Errorf("owner id = %q", own.OwnerID())
	}
}

// obliDB is the backend a default gateway states in its hello ack, and so
// what a scripted node standing in for one of its replicas states.
var obliDB = wire.Backend{Scheme: "ObliDB", Leakage: edb.L0}

// TestNewOverAFreshSessionWritesNoFrame pins that the §6 gate reads what the
// hello said: core.New over a fresh session sends nothing, and reports the
// node's class — L-0 for ObliDB, L-DP for Cryptε, and L2, which the gate
// refuses, for a node whose backend constructor builds none without an owner.
func TestNewOverAFreshSessionWritesNoFrame(t *testing.T) {
	for _, tc := range []struct {
		name       string
		newBackend func(string) (edb.Database, error)
		want       wire.Backend
	}{
		{"ObliDB", nil, obliDB},
		{"Crypteps", func(string) (edb.Database, error) { return crypte.New() }, wire.Backend{Scheme: "Crypteps", Leakage: edb.LDP}},
		{"unidentified", func(owner string) (edb.Database, error) {
			if owner == "" {
				return nil, fmt.Errorf("no backend without an owner")
			}
			return crypte.New()
		}, wire.Backend{Scheme: "unidentified", Leakage: edb.L2}},
	} {
		gw, key := startGateway(t, gateway.Config{NewBackend: tc.newBackend})
		conn, err := DialGateway(gw.Addr(), key)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		own := conn.Owner("owner-1")
		out0 := conn.BytesOut()
		_, err = core.New(core.Config{Database: own, Strategy: strategy.NewSUR()})
		if compatible := tc.want.Leakage.Compatible(); compatible != (err == nil) {
			t.Errorf("%s: core.New = %v, want it to pass the §6 gate: %v", tc.name, err, compatible)
		}
		if out := conn.BytesOut() - out0; out != 0 {
			t.Errorf("%s: core.New sent %d bytes, want none", tc.name, out)
		}
		if own.Name() != tc.want.Scheme+"-gateway" || own.Leakage() != tc.want.Leakage {
			t.Errorf("%s: session is %q at %v, want the node's %v", tc.name, own.Name(), own.Leakage(), tc.want)
		}
	}
}

// TestHelloNamingAnotherBackendFailsTheDial: a connection's owners passed the
// §6 gate on the backend its first hello stated, so a node that states
// another is not one of the connection's. A redial that reaches only such a
// node fails, having sent it nothing; a replica that states another fails
// its dial, and the read falls back to the primary.
func TestHelloNamingAnotherBackendFailsTheDial(t *testing.T) {
	t.Run("redial", func(t *testing.T) {
		gw, key := startGateway(t, gateway.Config{})
		other, _ := startGateway(t, gateway.Config{NewBackend: func(string) (edb.Database, error) { return crypte.New() }})
		conn, err := DialGateway(gw.Addr(), key, WithAddrs(other.Addr()), WithReconnect(2))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		own := conn.Owner("owner-redial")
		if err := own.Setup(stairs(2)); err != nil {
			t.Fatal(err)
		}
		_ = gw.Close()
		if err := own.Update(stairs(1)); !errors.Is(err, errOtherBackend) {
			t.Fatalf("update after the only node left serves Cryptε: %v, want errOtherBackend", err)
		}
		if n := other.Owners(); n != 0 {
			t.Fatalf("the other backend's node holds %d owners, want none", n)
		}
	})
	t.Run("replica", func(t *testing.T) {
		gw, key := startGateway(t, gateway.Config{})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		var accepts, read atomic.Int64
		go func() {
			for {
				nc, err := lis.Accept()
				if err != nil {
					return
				}
				accepts.Add(1)
				var hello [5]byte
				if _, err := io.ReadFull(nc, hello[:]); err == nil && wire.WriteHelloAck(nc, wire.Backend{Scheme: "Crypteps", Leakage: edb.LDP}) == nil {
					n, _ := io.Copy(io.Discard, nc) // until the client hangs up
					read.Add(n)
				}
				nc.Close()
			}
		}()
		conn, err := DialGateway(gw.Addr(), key, WithReadReplica(lis.Addr().String()))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		own := conn.Owner("owner-replica")
		if err := own.Setup(stairs(3)); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 2; i++ {
			if ans, _, err := own.Query(countAt(3)); err != nil || ans.Scalar != 3 {
				t.Fatalf("read %d behind a Cryptε replica: %v, %v; want the primary's 3", i, ans.Scalar, err)
			}
			wantReplicaStats(t, conn, 0, int64(i))
		}
		conn.Close()
		if accepts.Load() != 2 || read.Load() != 0 {
			t.Fatalf("the replica accepted %d dials and read %d bytes after their hellos; want 2 and none", accepts.Load(), read.Load())
		}
	})
}

// TestPipelinedResponseMatching pins the request-ID demultiplexing: 100
// goroutines share one connection and one owner, each asking a different
// range query; every goroutine must get *its* answer, not a neighbor's.
// Before the pipelined client, the mutex serialized these silently; now
// they are genuinely in flight together (up to DefaultWindow), so a matching bug
// would cross answers immediately. Run under -race.
func TestPipelinedResponseMatching(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{Shards: 4})
	conn, err := DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-shared")
	// Location i gets exactly i records, i = 1..100.
	var rs []record.Record
	for i := 1; i <= 100; i++ {
		for k := 0; k < i; k++ {
			rs = append(rs, record.Record{PickupTime: record.Tick(k + 1), PickupID: uint16(i), Provider: record.YellowCab})
		}
	}
	if err := own.Setup(rs); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for g := 1; g <= 100; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				q := query.Query{Kind: query.RangeCount, Provider: record.YellowCab, Lo: uint16(i), Hi: uint16(i)}
				ans, _, err := own.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if ans.Scalar != float64(i) {
					errs <- fmt.Errorf("goroutine %d got answer %v (crossed responses?)", i, ans.Scalar)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentOwnersStress is the 100-goroutine end-to-end stress: each
// goroutine drives its own namespace (setup + updates + query) over one
// shared pipelined connection. Run under -race; it also pins that owner-
// side stats stay per-session.
func TestConcurrentOwnersStress(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{Shards: 4})
	conn, err := DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const goroutines = 100
	const updates = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			own := conn.Owner(fmt.Sprintf("stress-owner-%03d", i))
			if err := own.Setup(nil); err != nil {
				errs <- err
				return
			}
			for u := 1; u <= updates; u++ {
				batch := []record.Record{
					{PickupTime: record.Tick(u), PickupID: uint16(u), Provider: record.YellowCab},
				}
				if u%2 == 0 {
					batch = append(batch, record.NewDummy(record.YellowCab))
				}
				if err := own.Update(batch); err != nil {
					errs <- err
					return
				}
			}
			ans, _, err := own.Query(query.Q2())
			if err != nil {
				errs <- err
				return
			}
			if ans.Total() != updates {
				errs <- fmt.Errorf("owner %d: Q2 total = %v, want %d", i, ans.Total(), updates)
				return
			}
			st := own.Stats()
			if st.RealRecords != updates || st.DummyRecords != updates/2 {
				errs <- fmt.Errorf("owner %d: stats %+v", i, st)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if gw.Owners() != goroutines {
		t.Errorf("owners = %d, want %d", gw.Owners(), goroutines)
	}
}

// send is post for tests that pin pipelining: the request goes out, and the
// caller holds only its response channel and its window slot.
func (l *link) send(owner string, req wire.Request) (<-chan wire.Response, func(), error) {
	p, release, err := l.post(owner, req)
	if err != nil {
		return nil, nil, err
	}
	return p.ch, release, nil
}

// TestPerOwnerFIFO pins the ordering half of the pipelining contract: many
// requests launched back-to-back without waiting (via the low-level send)
// must be applied to the owner's namespace in send order. The observed
// transcript's volume sequence is the witness.
func TestPerOwnerFIFO(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{Shards: 2})
	conn, err := DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sealer, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	const owner = "fifo-owner"
	const batches = 50
	type inflight struct {
		ch      <-chan wire.Response
		release func()
	}
	var flights []inflight
	// Batch i carries i sealed records (batch 1 is the setup); all 50
	// requests are written before any response is awaited.
	for i := 1; i <= batches; i++ {
		var rs []record.Record
		for k := 0; k < i; k++ {
			rs = append(rs, record.Record{PickupTime: record.Tick(i), PickupID: uint16(k + 1), Provider: record.YellowCab})
		}
		cts, err := sealer.SealAll(rs)
		if err != nil {
			t.Fatal(err)
		}
		raw := make([][]byte, len(cts))
		for j, ct := range cts {
			raw[j] = ct
		}
		typ := wire.MsgUpdate
		if i == 1 {
			typ = wire.MsgSetup
		}
		ch, release, err := conn.primary.send(owner, wire.Request{Type: typ, Seq: uint64(i), Sealed: raw})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		flights = append(flights, inflight{ch, release})
	}
	for i, f := range flights {
		resp, ok := <-f.ch
		f.release()
		if !ok {
			t.Fatalf("response %d: connection lost", i+1)
		}
		if !resp.OK {
			t.Fatalf("response %d: %v", i+1, resp.Refusal)
		}
	}
	// FIFO witness: the transcript's volumes must be exactly 1..50 in order
	// — if any two pipelined uploads were reordered, some batch would have
	// been refused (update before setup) or the sequence would be permuted.
	pat := gw.ObservedPattern(owner)
	if pat.Updates() != batches {
		t.Fatalf("transcript has %d events, want %d", pat.Updates(), batches)
	}
	for i, e := range pat.Events {
		if e.Volume != i+1 {
			t.Fatalf("event %d volume = %d, want %d: pipelined uploads reordered", i, e.Volume, i+1)
		}
	}
}

// TestWindowBackpressure pins that the in-flight window still drains
// correctly under more concurrent senders than it has slots (no deadlock, no
// lost slots).
func TestWindowBackpressure(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	conn, err := DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("window-owner")
	if err := own.Setup(nil); err != nil {
		t.Fatal(err)
	}
	const senders = 4 * DefaultWindow
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := own.RemoteStats(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_ = gw
}

// TestGatewayConnFailurePropagates pins that tearing the gateway down mid-
// stream fails pending calls instead of hanging them.
func TestGatewayConnFailurePropagates(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	conn, err := DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	own := conn.Owner("doomed-owner")
	if err := own.Setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := own.Update([]record.Record{{PickupTime: 1, PickupID: 1, Provider: record.YellowCab}}); err == nil {
		t.Fatal("update on closed connection succeeded")
	}
	_ = gw
}

// TestGatewayConnSurvivesServerError pins that an application-level error is
// surfaced to the caller without poisoning the multiplexed connection.
func TestGatewayConnSurvivesServerError(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	conn, err := DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("err-owner")
	if _, _, err := own.Query(query.Q1()); err == nil {
		t.Fatal("query before setup accepted")
	}
	if err := own.Setup(nil); err != nil {
		t.Fatalf("connection unusable after server error: %v", err)
	}
	if err := own.Setup(nil); err == nil {
		t.Error("double setup accepted")
	}
	if err := own.Update([]record.Record{{PickupTime: 1, PickupID: 1, Provider: record.YellowCab}}); err != nil {
		t.Fatalf("connection unusable after refused setup: %v", err)
	}
	_ = gw
}

func TestDialGatewayErrors(t *testing.T) {
	if _, err := DialGateway("127.0.0.1:1", make([]byte, 32)); err == nil {
		t.Error("dial to dead port succeeded")
	}
	if _, err := DialGateway("127.0.0.1:0", []byte("short")); err == nil {
		t.Error("bad key accepted")
	}
}

// TestResyncWindowIsARing pins the bounded resync window past its bound: it
// retains exactly the newest acked uploads, contiguous and in seq order
// through ackedAt, which is all resync reads it through.
func TestResyncWindowIsARing(t *testing.T) {
	const window, uploads = 4, 11
	s := &OwnerSession{conn: &GatewayConn{resyncWin: window}}
	for seq := uint64(1); seq <= uploads; seq++ {
		s.recordAcked(seq, wire.MsgUpdate, [][]byte{{byte(seq)}})
	}
	if len(s.acked) != window {
		t.Fatalf("window holds %d uploads, want %d", len(s.acked), window)
	}
	for i := 0; i < window; i++ {
		want := uint64(uploads - window + 1 + i)
		if a := s.ackedAt(i); a.seq != want || a.sealed[0][0] != byte(want) {
			t.Fatalf("ackedAt(%d) = seq %d payload %v, want seq %d", i, a.seq, a.sealed, want)
		}
	}
	// Unbounded (negative) windows just grow.
	u := &OwnerSession{conn: &GatewayConn{resyncWin: -1}}
	for seq := uint64(1); seq <= uploads; seq++ {
		u.recordAcked(seq, wire.MsgUpdate, nil)
	}
	if len(u.acked) != uploads || u.ackedAt(0).seq != 1 || u.ackedAt(uploads-1).seq != uploads {
		t.Fatalf("unbounded window: %d uploads, first %d, last %d", len(u.acked), u.ackedAt(0).seq, u.ackedAt(uploads-1).seq)
	}
}
