package client

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dpsync/internal/gateway"
	"dpsync/internal/record"
	"dpsync/internal/wire"
)

func yellowAt(tick int, id uint16) record.Record {
	return record.Record{PickupTime: record.Tick(tick), PickupID: id, Provider: record.YellowCab}
}

// TestReconnectHealsDrops pins the reconnect/replay/resume loop end to end:
// with the transport repeatedly yanked mid-stream, every upload must still
// land exactly once — the gateway transcript counts one event per sync, no
// loss and no duplication — and the client must report the outages it
// healed.
func TestReconnectHealsDrops(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	conn, err := DialGateway(gw.Addr(), key, WithReconnect(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const uploads = 200
	sess := conn.Owner("owner-drop")
	if err := sess.Setup([]record.Record{yellowAt(0, 10)}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= uploads; i++ {
		if i%25 == 0 {
			// Yank the transport; the next upload writes into the dead
			// connection and must heal via redial + replay + resume.
			conn.Drop()
		}
		if err := sess.Update([]record.Record{yellowAt(i, uint16(i%record.NumLocations+1))}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}

	if got := gw.ObservedPattern("owner-drop").Updates(); got != uploads+1 {
		t.Fatalf("gateway observed %d events, want %d (setup + %d uploads): a drop lost or duplicated a sync",
			got, uploads+1, uploads)
	}
	if n, total := conn.ReconnectStats(); n == 0 {
		t.Fatalf("no reconnects recorded despite %d transport drops", uploads/25)
	} else if total <= 0 {
		t.Fatalf("reconnects %d recorded with non-positive resume time %v", n, total)
	}
}

// TestExplicitCloseDoesNotReconnect pins that Close is final even on a
// reconnect-enabled connection: the healing loop must not resurrect a
// transport the caller deliberately tore down.
func TestExplicitCloseDoesNotReconnect(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	conn, err := DialGateway(gw.Addr(), key, WithReconnect(0))
	if err != nil {
		t.Fatal(err)
	}
	sess := conn.Owner("owner-close")
	if err := sess.Setup([]record.Record{yellowAt(0, 10)}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := sess.Update([]record.Record{yellowAt(1, 20)}); err == nil {
		t.Fatal("update succeeded on an explicitly closed connection")
	}
	if n, _ := conn.ReconnectStats(); n != 0 {
		t.Fatalf("%d reconnects after explicit Close", n)
	}
}

// TestReconnectExhaustionFailsFast pins the bounded-backoff contract: when
// the gateway is gone for good, a reconnect-enabled connection must give up
// after its attempt budget and surface the failure, not spin forever.
func TestReconnectExhaustionFailsFast(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	conn, err := DialGateway(gw.Addr(), key, WithReconnect(3))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess := conn.Owner("owner-doomed")
	if err := sess.Setup([]record.Record{yellowAt(0, 10)}); err != nil {
		t.Fatal(err)
	}
	gw.Kill()

	start := time.Now()
	var uerr error
	for i := 1; i <= 5; i++ {
		if uerr = sess.Update([]record.Record{yellowAt(i, 20)}); uerr != nil {
			break
		}
	}
	if uerr == nil {
		t.Fatal("uploads kept succeeding against a killed gateway")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("failure took %v: backoff is not bounded by the attempt budget", elapsed)
	}
	// The connection is latched dead: later calls fail immediately.
	start = time.Now()
	if err := sess.Update([]record.Record{yellowAt(99, 20)}); err == nil {
		t.Fatal("update succeeded after reconnect exhaustion")
	} else if errors.Is(err, nil) {
		t.Fatal("unreachable")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("post-exhaustion failure took %v, want immediate", elapsed)
	}
}

// hookConn runs onWrite before every write after the hello (the hello is the
// first write of a transport); a true return swallows the write as if the
// kernel had buffered it.
type hookConn struct {
	net.Conn
	writes  int
	onWrite func() (swallow bool)
}

func (h *hookConn) Write(p []byte) (int, error) {
	h.writes++
	if h.writes > 1 && h.onWrite() {
		return len(p), nil
	}
	return h.Conn.Write(p)
}

// TestCloseDuringReplay pins Close racing the tail of a reconnect: the
// caller closes the connection after the redial has snapshotted its replay
// set and while the replay is being written. Close has then already opened
// the send gate, so the redial must stand down instead of opening it again
// (which used to panic the process with "close of closed channel").
func TestCloseDuringReplay(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	var conn *GatewayConn
	dials := 0
	dial := func(addr string) (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		dials++
		if dials == 1 {
			// First transport: die on the first request, leaving it pending.
			return &hookConn{Conn: nc, onWrite: func() bool { nc.Close(); return false }}, nil
		}
		// Redialed transport: the caller closes mid-replay, and the replay
		// write still "succeeds".
		return &hookConn{Conn: nc, onWrite: func() bool { conn.Close(); return true }}, nil
	}
	conn, err := DialGateway(gw.Addr(), key, WithReconnect(0), WithDialer(dial))
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Owner("owner-race").Setup(nil); err == nil {
		t.Fatal("setup succeeded on a connection closed mid-replay")
	}
	if n, _ := conn.ReconnectStats(); n != 0 {
		t.Fatalf("%d reconnects recorded; the closed connection must not come back", n)
	}
}

// doomedConn counts writes and, once doomed, dies on the next one — the
// transport failing under a flush.
type doomedConn struct {
	net.Conn
	writes atomic.Int64
	doomed atomic.Bool
}

func (d *doomedConn) Write(p []byte) (int, error) {
	d.writes.Add(1)
	if d.doomed.Load() {
		d.Conn.Close()
		return 0, errors.New("doomedConn: transport died")
	}
	return d.Conn.Write(p)
}

// TestReconnectReplaysUnflushedOutbox pins reconnect against the send
// buffer: a pipeline of syncs whose frames are all still sitting unflushed in
// the transport's buffer when the transport dies is replayed whole — every
// sync lands exactly once, and the owner's transcript and ε ledger equal an
// undisturbed run's. One scheduler thread makes "still unflushed" exact: the
// flusher cannot run until the sending goroutine blocks.
func TestReconnectReplaysUnflushedOutbox(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	gw, key := startGateway(t, gateway.Config{SyncEpsilon: 0.25})
	var first *doomedConn
	dial := func(addr string) (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil || first != nil {
			return nc, err
		}
		first = &doomedConn{Conn: nc}
		return first, nil
	}
	conn, err := DialGateway(gw.Addr(), key, WithReconnect(0), WithDialer(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const pipeline = 16
	batch := func(i int) []record.Record { return []record.Record{yellowAt(i, uint16(i+1))} }
	if err := conn.Owner("owner-outbox").Setup(batch(0)); err != nil {
		t.Fatal(err)
	}
	flushed := first.writes.Load()
	type flight struct {
		ch      <-chan wire.Response
		release func()
	}
	var flights []flight
	for i := 1; i <= pipeline; i++ {
		cts, err := conn.sealer.SealAll(batch(i))
		if err != nil {
			t.Fatal(err)
		}
		ch, release, err := conn.primary.send("owner-outbox", wire.Request{Type: wire.MsgUpdate, Seq: uint64(i + 1), Sealed: [][]byte{cts[0]}})
		if err != nil {
			t.Fatal(err)
		}
		flights = append(flights, flight{ch, release})
	}
	if got := first.writes.Load(); got != flushed {
		t.Fatalf("%d socket writes during the pipeline: the frames were not left sitting in the buffer", got-flushed)
	}
	first.doomed.Store(true) // the flush that would carry all sixteen fails
	for i, f := range flights {
		resp, ok := <-f.ch
		f.release()
		if !ok || !resp.OK {
			t.Fatalf("sync %d after the transport died: ok=%v %+v", i+1, ok, resp)
		}
	}
	if n, _ := conn.ReconnectStats(); n != 1 {
		t.Fatalf("%d reconnects, want the one that replayed the buffer", n)
	}

	ref := conn.Owner("owner-calm")
	for i := 0; i <= pipeline; i++ {
		up := ref.Update
		if i == 0 {
			up = ref.Setup
		}
		if err := up(batch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := gw.ObservedPattern("owner-outbox").String(), gw.ObservedPattern("owner-calm").String(); got != want {
		t.Fatalf("transcript after replaying the buffer:\n got: %s\nwant: %s", got, want)
	}
	if got, want := gw.ObservedLedger("owner-outbox"), gw.ObservedLedger("owner-calm"); !got.Equal(want) {
		t.Fatalf("ε ledger after replaying the buffer differs from the undisturbed run's:\n got: %s\nwant: %s", got.Describe(), want.Describe())
	}
}

// TestReconnectLeaksNoGoroutines pins the transport's lifetime: every epoch
// starts a reader and a flusher, and both must end with it. Across fifty
// forced reconnects the process's goroutine count returns to where it was —
// the gateway's handlers for the dead connections included.
func TestReconnectLeaksNoGoroutines(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	conn, err := DialGateway(gw.Addr(), key, WithReconnect(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess := conn.Owner("owner-churn")
	if err := sess.Setup([]record.Record{yellowAt(0, 1)}); err != nil {
		t.Fatal(err)
	}
	// Goroutines still winding down from earlier tests only make base an
	// overestimate that the final count settles below.
	base := runtime.NumGoroutine()
	const drops = 50
	for i := 1; i <= drops; i++ {
		conn.Drop()
		if err := sess.Update([]record.Record{yellowAt(i, uint16(i))}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if n, _ := conn.ReconnectStats(); n != drops {
		t.Fatalf("%d reconnects for %d drops", n, drops)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after %d reconnects, %d before: an epoch's reader or flusher outlived it", n, drops, base)
	}
}
