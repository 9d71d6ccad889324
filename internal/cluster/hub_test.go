package cluster

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"dpsync/internal/dp"
	"dpsync/internal/gateway"
	"dpsync/internal/seal"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// startHub runs a one-shard durable gateway with a bound hub.
func startHub(t *testing.T) (*Hub, *gateway.Gateway) {
	t.Helper()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(HubConfig{})
	gw, err := gateway.New("127.0.0.1:0", gateway.Config{Key: key, Shards: 1, StoreDir: t.TempDir(), Replicator: hub})
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Bind(gw); err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	t.Cleanup(func() {
		_ = gw.Close()
		hub.Close()
	})
	return hub, gw
}

// joinRaw opens a replication stream the way a follower does — hello, join
// from offset zero on the one shard — and returns the conn positioned at the
// first stream frame.
func joinRaw(t *testing.T, addr, node string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteReplHello(conn, wire.ReplVersion); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadReplHelloAck(conn); err != nil {
		t.Fatal(err)
	}
	jb, err := wire.EncodeReplJoin(wire.ReplJoin{Node: node, Cursors: []wire.ReplCursor{{Shard: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, jb); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := wire.DecodeReplJoinAck(payload); err != nil || ack.Snapshot {
		t.Fatalf("join ack = %+v, %v", ack, err)
	}
	return conn
}

// readEntries reads stream frames until n entry frames have arrived
// (heartbeats skipped) and returns their raw payloads.
func readEntries(t *testing.T, conn net.Conn, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for len(out) < n {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("after %d entries: %v", len(out), err)
		}
		if payload[0] != wire.ReplHeartbeat {
			out = append(out, payload)
		}
	}
	return out
}

// TestHubShipsOneEncodingPerEntry pins the single-payload ring: a sampled
// entry is framed once, as ReplEntryTraced, and that one frame goes to every
// follower; an unsampled entry is framed once as ReplEntry; the ring holds
// exactly one payload per offset; and however many followers tail, the
// entry's repl-ship span is recorded once.
func TestHubShipsOneEncodingPerEntry(t *testing.T) {
	hub, gw := startHub(t)
	followers := []net.Conn{joinRaw(t, gw.Addr(), "f1"), joinRaw(t, gw.Addr(), "f2")}

	// Commit six entries straight into the hub, every other one sampled.
	const entries = 6
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})
	var sampled []telemetry.TraceContext
	for i := 1; i <= entries; i++ {
		var tc telemetry.TraceContext
		if i%2 == 0 {
			tc = tracer.Admit("client-admit", time.Now())
			sampled = append(sampled, tc)
		}
		hub.Committed(0, store.Entry{Owner: "o", Batch: store.Batch{
			Tick: uint64(i), Setup: i == 1, Sealed: [][]byte{{byte(i)}},
			Charge: store.Charge{Name: "m", Eps: 0.1, Rule: dp.Sequential},
		}}, tc)
	}

	got := [][][]byte{readEntries(t, followers[0], entries), readEntries(t, followers[1], entries)}
	for i := 0; i < entries; i++ {
		if !bytes.Equal(got[0][i], got[1][i]) {
			t.Fatalf("offset %d: followers received different bytes", i+1)
		}
		fr, err := wire.DecodeReplFrame(got[0][i])
		if err != nil {
			t.Fatal(err)
		}
		wantKind := byte(wire.ReplEntry)
		if (i+1)%2 == 0 {
			wantKind = wire.ReplEntryTraced
		}
		if fr.Kind != wantKind || fr.Offset != uint64(i+1) {
			t.Fatalf("offset %d: frame kind %d offset %d, want kind %d", i+1, fr.Kind, fr.Offset, wantKind)
		}
		if wantKind == wire.ReplEntryTraced && fr.TraceID != sampled[i/2].TraceID() {
			t.Fatalf("offset %d: trace id %x, want %x", i+1, fr.TraceID, sampled[i/2].TraceID())
		}
	}

	hub.mu.Lock()
	r := hub.rings[0]
	hub.mu.Unlock()
	if r.head != entries || len(r.frames) != entries || len(r.times) != entries || len(r.meta) != entries {
		t.Fatalf("ring: head %d, %d frames, %d times, %d metas; want %d of each",
			r.head, len(r.frames), len(r.times), len(r.meta), entries)
	}
	for i, payload := range r.frames {
		if !bytes.Equal(payload, got[0][i]) {
			t.Fatalf("offset %d: ring payload differs from what was shipped", i+1)
		}
		if traced := payload[0] == wire.ReplEntryTraced; traced != (r.meta[i] != nil) {
			t.Fatalf("offset %d: traced=%v but ship meta present=%v", i+1, traced, r.meta[i] != nil)
		}
	}

	// Two senders shipped every sampled entry; each trace carries exactly one
	// repl-ship span. The spans land after each sender's flush, so wait for
	// both senders to go idle first.
	hub.Flush(5 * time.Second)
	for _, tc := range sampled {
		tracer.Finish(tc, "client-admit")
	}
	recent := tracer.Dump().Recent
	if len(recent) != len(sampled) {
		t.Fatalf("%d traces published, want %d", len(recent), len(sampled))
	}
	for _, tr := range recent {
		ships := 0
		for _, s := range tr.Spans {
			if s.Name == "repl-ship" {
				ships++
			}
		}
		if ships != 1 {
			t.Errorf("trace %s: %d repl-ship spans, want 1", tr.TraceID, ships)
		}
	}
}

// TestHubRefusesOtherReplVersions pins that the replication version is not
// negotiated: a hello proposing anything but ReplVersion — the old v1
// included — gets the refusal byte, not a downgraded stream.
func TestHubRefusesOtherReplVersions(t *testing.T) {
	_, gw := startHub(t)
	for _, v := range []byte{0, 1, wire.ReplVersion + 1} {
		conn, err := net.Dial("tcp", gw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := wire.WriteReplHello(conn, v); err != nil {
			t.Fatal(err)
		}
		if err := wire.ReadReplHelloAck(conn); !errors.Is(err, wire.ErrNotPrimary) {
			t.Errorf("version %d: ack err = %v, want the refusal", v, err)
		}
		conn.Close()
	}
}
