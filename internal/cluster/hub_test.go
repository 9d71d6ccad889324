package cluster

import (
	"bytes"
	"errors"
	"net"
	"strings"
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
func startHub(t *testing.T) (*Hub, *gateway.Gateway) { return startHubRing(t, 0) }

// startHubRing is startHub with the catch-up ring's size chosen (0 = default).
func startHubRing(t *testing.T, ring int) (*Hub, *gateway.Gateway) {
	return startHubWith(t, HubConfig{RingSize: ring})
}

// startHubWith is startHub with the hub built from cfg.
func startHubWith(t *testing.T, cfg HubConfig) (*Hub, *gateway.Gateway) {
	t.Helper()
	return startHubShards(t, cfg, 1)
}

// startHubShards is startHubWith over a gateway of the given shard count.
func startHubShards(t *testing.T, cfg HubConfig, shards int) (*Hub, *gateway.Gateway) {
	t.Helper()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(cfg)
	gw, err := gateway.New("127.0.0.1:0", gateway.Config{Key: key, Shards: shards, StoreDir: t.TempDir(), Replicator: hub})
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
// first stream frame. What the stream starts with is the caller's to check
// (readEntries does: the first catch-up entry).
func joinRaw(t *testing.T, addr, node string) net.Conn {
	t.Helper()
	return joinRawAt(t, addr, node, 0)
}

// joinRawAt is joinRaw from a chosen cursor.
func joinRawAt(t *testing.T, addr, node string, cursors ...uint64) net.Conn {
	t.Helper()
	conn, shards := joinRawShards(t, addr, node, cursors...)
	if shards != 1 {
		t.Fatalf("join ack names %d shards, want 1", shards)
	}
	return conn
}

// joinRawShards sends a join with the given cursors, one per shard in order,
// and returns the conn and the shard count the primary acked.
func joinRawShards(t *testing.T, addr, node string, cursors ...uint64) (net.Conn, uint64) {
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
	jb, err := wire.EncodeReplJoin(wire.ReplJoin{Node: node, Cursors: cursors})
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
	shards, err := wire.DecodeReplJoinAck(payload)
	if err != nil {
		t.Fatalf("join ack: %v", err)
	}
	return conn, shards
}

// readEntries reads stream frames until n entry frames have arrived
// (heartbeats skipped) and returns their raw payloads. The stream must be the
// live suffix after cursor: live entries at offsets cursor+1, cursor+2, … —
// a snapshot transfer, or a gap, fails the test.
func readEntries(t *testing.T, conn net.Conn, cursor uint64, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for len(out) < n {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("after %d entries: %v", len(out), err)
		}
		if payload[0] == wire.ReplHeartbeat {
			continue
		}
		fr, err := wire.DecodeReplFrame(payload)
		if want := cursor + uint64(len(out)) + 1; err != nil || fr.Kind != wire.ReplEntry || fr.Offset != want {
			t.Fatalf("frame %d after cursor %d: kind %d offset %d (%v), want the live entry at offset %d",
				len(out), cursor, fr.Kind, fr.Offset, err, want)
		}
		out = append(out, payload)
	}
	return out
}

// TestHubShipsOneEncodingPerEntry pins the single-payload ring: a sampled
// entry is framed once, with its trace context, and that one frame goes to
// every follower; an unsampled entry is framed once without; the ring holds
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

	got := [][][]byte{readEntries(t, followers[0], 0, entries), readEntries(t, followers[1], 0, entries)}
	for i := 0; i < entries; i++ {
		if !bytes.Equal(got[0][i], got[1][i]) {
			t.Fatalf("offset %d: followers received different bytes", i+1)
		}
		fr, err := wire.DecodeReplFrame(got[0][i])
		if err != nil {
			t.Fatal(err)
		}
		var wantTrace uint64
		if (i+1)%2 == 0 {
			wantTrace = sampled[i/2].TraceID()
		}
		if fr.TraceID != wantTrace {
			t.Fatalf("offset %d: trace id %x, want %x", i+1, fr.TraceID, wantTrace)
		}
	}

	hub.mu.Lock()
	r := hub.rings[0]
	hub.mu.Unlock()
	if r.head != entries || r.n != entries {
		t.Fatalf("ring: head %d, %d slots buffered; want %d of each", r.head, r.n, entries)
	}
	for i := 0; i < r.n; i++ {
		slot := r.at(i)
		if !bytes.Equal(slot.frame, got[0][i]) {
			t.Fatalf("offset %d: ring payload differs from what was shipped", i+1)
		}
		fr, err := wire.DecodeReplFrame(slot.frame)
		if err != nil {
			t.Fatal(err)
		}
		if traced := fr.TraceID != 0; traced != (slot.meta != nil) {
			t.Fatalf("offset %d: traced=%v but ship meta present=%v", i+1, traced, slot.meta != nil)
		}
	}

	// Two senders shipped every sampled entry; each trace carries exactly one
	// repl-ship span. The spans land after each sender's flush, so wait for
	// both senders to go idle first.
	hub.Flush(5 * time.Second)
	for _, tc := range sampled {
		tracer.Finish(tc, "client-admit", time.Now())
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

// TestHubWrapsTheEntrysFrame: what the hub ships is the entry's canonical
// frame — store.EncodeEntryFrame's bytes — whether the entry carries it (the
// gateway's, after its WAL append; a decoded one) or is hand-built and encoded
// on the spot, for empty and zero-length ciphertext lists, 1- and 255-byte
// owners, the setup flag. Wrapping a carried frame costs exactly one
// allocation less than encoding, and an entry that cannot be encoded is
// dropped without moving the stream.
func TestHubWrapsTheEntrysFrame(t *testing.T) {
	hub, _ := startHub(t)
	charge := store.Charge{Name: "m_update", Eps: 0.1, Rule: dp.Sequential}
	var want [][]byte
	for _, owner := range []string{"a", strings.Repeat("z", 255)} {
		for i, bt := range []store.Batch{
			{Tick: 1, Setup: true, Sealed: [][]byte{[]byte("ct-0"), []byte("ct-1")}, Charge: charge},
			{Tick: 2, Charge: charge},
			{Tick: 3, Sealed: [][]byte{{}, {0xC7}, {}}},
		} {
			e := store.Entry{Owner: owner, Batch: bt}
			frame, err := store.EncodeEntryFrame(e)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, frame)
			if i%2 == 0 { // ship the decoded form, which carries frame
				if e, err = store.DecodeEntryFrame(frame); err != nil {
					t.Fatal(err)
				}
			}
			hub.Committed(0, e, telemetry.TraceContext{})
		}
	}
	hub.Committed(0, store.Entry{Owner: "", Batch: store.Batch{Tick: 4}}, telemetry.TraceContext{})
	hub.mu.Lock()
	r := hub.rings[0]
	hub.mu.Unlock()
	if int(r.head) != len(want) {
		t.Fatalf("ring head %d after %d encodable entries and one that is not", r.head, len(want))
	}
	for i := range want {
		fr, err := wire.DecodeReplFrame(r.at(i).frame)
		if err != nil || !bytes.Equal(fr.Entry, want[i]) {
			t.Fatalf("offset %d: shipped entry differs from store.EncodeEntryFrame's bytes (%v)", i+1, err)
		}
		// Kind, shard, offset and commit time before it; nothing states the
		// entry frame's length a second time.
		if len(r.at(i).frame) != 1+1+1+8+len(want[i]) {
			t.Fatalf("offset %d: %d B shipped for a %d B entry frame, want %d", i+1, len(r.at(i).frame), len(want[i]), 11+len(want[i]))
		}
	}

	// A one-record sync: its 102 B entry frame ships as a 1 B length and 11 B
	// of header at an offset below 128 (13 B below 2²¹).
	sync := store.Entry{Owner: "owner-000017", Batch: store.Batch{Tick: 2, Sealed: [][]byte{make([]byte, 44)}, Charge: charge}}
	hub.Committed(0, sync, telemetry.TraceContext{})
	hub.mu.Lock()
	shipped := wire.FrameLen(len(hub.rings[0].at(hub.rings[0].n - 1).frame))
	hub.mu.Unlock()
	if shipped != 1+11+102 {
		t.Fatalf("a one-record sync ships as %d B, want %d", shipped, 1+11+102)
	}

	built := store.Entry{Owner: "owner-0001", Batch: store.Batch{Tick: 9, Sealed: [][]byte{bytes.Repeat([]byte{1}, 45)}, Charge: charge}}
	frame, _ := store.EncodeEntryFrame(built)
	carrying, _ := store.DecodeEntryFrame(frame)
	encode := testing.AllocsPerRun(100, func() { hub.Committed(0, built, telemetry.TraceContext{}) })
	wrap := testing.AllocsPerRun(100, func() { hub.Committed(0, carrying, telemetry.TraceContext{}) })
	if wrap != encode-1 {
		t.Fatalf("Committed allocates %v times for an entry that carries its frame and %v for one that does not; want one fewer", wrap, encode)
	}
}

// TestHubRingWraps pins the circular catch-up ring past its capacity: it
// holds exactly the newest RingSize frames in offset order, the overwritten
// ones are gone (a cursor behind them is told to take a snapshot), and a
// follower joining from a cursor still inside the window is served the
// suffix across the wrap point, in order.
func TestHubRingWraps(t *testing.T) {
	const ring, entries = 4, 11
	hub, gw := startHubRing(t, ring)
	for i := 1; i <= entries; i++ {
		hub.Committed(0, store.Entry{Owner: "o", Batch: store.Batch{
			Tick: uint64(i), Setup: i == 1, Sealed: [][]byte{{byte(i)}},
			Charge: store.Charge{Name: "m", Eps: 0.1, Rule: dp.Sequential},
		}}, telemetry.TraceContext{})
	}
	hub.mu.Lock()
	r := hub.rings[0]
	hub.mu.Unlock()
	if r.head != entries || r.n != ring || len(r.slots) != ring || r.oldest() != entries-ring+1 {
		t.Fatalf("ring after %d commits: head %d, %d of %d slots, oldest %d", entries, r.head, r.n, len(r.slots), r.oldest())
	}
	for i := 0; i < r.n; i++ {
		fr, err := wire.DecodeReplFrame(r.at(i).frame)
		if err != nil || fr.Offset != r.oldest()+uint64(i) {
			t.Fatalf("slot %d holds offset %d (%v), want %d", i, fr.Offset, err, r.oldest()+uint64(i))
		}
	}

	// A cursor behind the ring's oldest frame is sent a snapshot transfer at
	// the ring's head; one inside it is served the suffix.
	behind := joinRawAt(t, gw.Addr(), "behind", entries-ring-1)
	payload, err := wire.ReadFrame(behind)
	if err != nil {
		t.Fatal(err)
	}
	if fr, err := wire.DecodeReplFrame(payload); err != nil || fr.Kind != wire.ReplSnapBegin || fr.Offset != entries {
		t.Fatalf("a cursor behind the ring opened with kind %d basis %d (%v), want a snapshot transfer at %d", fr.Kind, fr.Offset, err, entries)
	}
	readEntries(t, joinRawAt(t, gw.Addr(), "inside", entries-ring+1), entries-ring+1, ring-1)
}

// TestHubRefusesOtherReplVersions pins that the replication version is not
// negotiated: a hello proposing anything but ReplVersion — the retired v1
// to v3 included — gets the refusal byte, not a downgraded stream.
func TestHubRefusesOtherReplVersions(t *testing.T) {
	_, gw := startHub(t)
	for _, v := range []byte{0, 1, 2, 3, wire.ReplVersion + 1} {
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

// TestHubHeartbeatsOnlyWhenIdle pins the sender's one heartbeat timer, re-armed
// each time the stream goes idle: a stream that ships an entry every few
// milliseconds for ten heartbeat periods carries no heartbeat (a couple are
// allowed for a descheduled sender), and once it goes idle a heartbeat
// arrives every period again.
func TestHubHeartbeatsOnlyWhenIdle(t *testing.T) {
	const (
		beat    = 50 * time.Millisecond
		entries = 100 // one every 5 ms: ten periods of a busy stream
	)
	hub, gw := startHubWith(t, HubConfig{Heartbeat: beat})
	conn := joinRaw(t, gw.Addr(), "f")
	kinds := make(chan byte, 2*entries)
	go func() {
		defer close(kinds)
		for {
			payload, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			kinds <- payload[0]
		}
	}()
	next := func() byte {
		t.Helper()
		k, ok := <-kinds
		if !ok {
			t.Fatal("replication stream ended")
		}
		return k
	}

	// A committer descheduled for a heartbeat period or longer leaves the
	// stream idle, and a heartbeat there is owed: count those periods.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	idlePeriods := 0
	var last time.Time
	for i := 1; i <= entries; i++ {
		<-tick.C
		now := time.Now()
		if i > 1 {
			idlePeriods += int(now.Sub(last) / beat)
		}
		last = now
		hub.Committed(0, store.Entry{Owner: "o", Batch: store.Batch{
			Tick: uint64(i), Setup: i == 1, Sealed: [][]byte{{byte(i)}},
			Charge: store.Charge{Name: "m", Eps: 0.1, Rule: dp.Sequential},
		}}, telemetry.TraceContext{})
	}
	busy := 0
	for seen := 0; seen < entries; {
		switch k := next(); k {
		case wire.ReplHeartbeat:
			busy++
		case wire.ReplEntry: // untraced: the kind byte alone
			seen++
		default:
			t.Fatalf("a frame of kind %d on a stream joined at its head", k)
		}
	}
	if busy > 2+idlePeriods {
		t.Fatalf("%d heartbeats on a stream that shipped an entry every 5 ms (heartbeat %v; the committer stalled for %d periods)", busy, beat, idlePeriods)
	}

	start := time.Now()
	for beats := 0; beats < 3; {
		if next() != wire.ReplHeartbeat {
			t.Fatal("an entry frame on an idle stream")
		}
		beats++
	}
	if took := time.Since(start); took < 2*beat {
		t.Fatalf("three idle heartbeats in %v, want one every %v", took, beat)
	}
}
