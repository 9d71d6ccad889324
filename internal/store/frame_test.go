package store

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"dpsync/internal/dp"
	"dpsync/internal/telemetry"
)

// One encoding per entry: the frame AppendTraced encodes is what the WAL, the
// history tier and the replication stream all hold, carried by the batch and
// wrapped — never encoded again — by every later writer.

// seededEntries is one owner's tick-contiguous run of the shapes the codec
// must not confuse: no ciphertexts at all, zero-length ciphertexts, setup and
// flush flags, a free (unnamed) charge.
func seededEntries(owner string) []Entry {
	charge := Charge{Name: "m_update", Eps: 0.25, Rule: dp.Sequential}
	return []Entry{
		{Owner: owner, Batch: Batch{Tick: 1, Setup: true, Sealed: [][]byte{[]byte("setup-ct-0"), []byte("setup-ct-1")}, Charge: Charge{Name: "m_setup", Eps: 0.25, Rule: dp.Sequential}}},
		{Owner: owner, Batch: Batch{Tick: 2, Charge: charge}},
		{Owner: owner, Batch: Batch{Tick: 3, Flush: true, Sealed: [][]byte{{}, []byte("x"), {}}, Charge: charge}},
		{Owner: owner, Batch: Batch{Tick: 4, Sealed: [][]byte{bytes.Repeat([]byte{0xC7}, 45)}}},
		{Owner: owner, Batch: Batch{Tick: 5, Flush: true, Charge: Charge{Name: "m_flush", Rule: dp.Parallel}}},
		{Owner: owner, Batch: Batch{Tick: 6, Sealed: [][]byte{[]byte("tail-0"), []byte("tail-1")}, Charge: charge}},
	}
}

func appendTracedWait(t *testing.T, s *Store, sid int, e *Entry) {
	t.Helper()
	done := make(chan error, 1)
	if err := s.AppendTraced(sid, e, telemetry.TraceContext{}, func(err error, _ telemetry.TraceContext) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestOneEncodingSameBytes drives the live path's three steps — AppendTraced,
// Apply, EnforceWindow — for owners with 1-byte and 255-byte names and holds
// the WAL segment, the history segment the spill wrote, every frame a later
// writer is handed (Entry.Frame, what the hub ships) and the frame a batch
// carries to the reference encoder's bytes. The request payload the
// ciphertexts arrived in is scribbled over as soon as AppendTraced returns:
// nothing durable may still point into it.
func TestOneEncodingSameBytes(t *testing.T) {
	const window = 2
	dir := t.TempDir()
	s, _ := openStoreWin(t, dir, 1, window)
	wantWAL, wantHist := segmentHeader(), historyHeader()
	for _, owner := range []string{"a", strings.Repeat("z", 255), "owner-0007"} {
		st := &OwnerState{Owner: owner, Budget: dp.NewBudget()}
		var want [][]byte
		for _, seed := range seededEntries(owner) {
			ref, err := refEncodeEntryFrame(seed)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ref)
			wantWAL = append(wantWAL, ref...)

			// The live entry's ciphertexts alias one request payload.
			e := seed
			var payload []byte
			for _, ct := range seed.Batch.Sealed {
				payload = append(payload, ct...)
			}
			e.Batch.Sealed, payload = nil, append([]byte(nil), payload...)
			for off, i := 0, 0; i < len(seed.Batch.Sealed); i++ {
				n := len(seed.Batch.Sealed[i])
				e.Batch.Sealed = append(e.Batch.Sealed, payload[off:off+n:off+n])
				off += n
			}
			appendTracedWait(t, s, 0, &e)
			for i := range payload {
				payload[i] ^= 0xFF
			}
			if !bytes.Equal(e.Batch.frame, ref) {
				t.Fatalf("owner %d bytes tick %d: AppendTraced left a frame that is not the reference encoding", len(owner), seed.Batch.Tick)
			}
			for i, ct := range e.Batch.Sealed {
				if !bytes.Equal(ct, seed.Batch.Sealed[i]) {
					t.Fatalf("tick %d: ciphertext %d still aliases the request payload", seed.Batch.Tick, i)
				}
			}
			if got, err := e.Frame(); err != nil || &got[0] != &e.Batch.frame[0] {
				t.Fatalf("tick %d: Frame() did not wrap the carried frame (err %v)", seed.Batch.Tick, err)
			}
			if err := st.Apply(e.Batch); err != nil {
				t.Fatal(err)
			}
			if err := s.EnforceWindow(0, st, window); err != nil {
				t.Fatal(err)
			}
		}
		// Six batches at window 2 spill ticks 1–2, then 3–4.
		if len(st.Tail) != window || st.Tail[0].Tick != 5 {
			t.Fatalf("owner %d bytes: tail holds %d batches from tick %d", len(owner), len(st.Tail), st.Tail[0].Tick)
		}
		for _, f := range want[:4] {
			wantHist = append(wantHist, f...)
		}
		// What is read back carries its frame too: streamed history and the tail.
		if err := s.FlushHistory(0); err != nil {
			t.Fatal(err)
		}
		i := 0
		if err := s.StreamHistory(st, func(bt Batch) error {
			got, err := Entry{Owner: owner, Batch: bt}.Frame()
			if err != nil || !bytes.Equal(got, want[i]) || !bytes.Equal(bt.frame, want[i]) {
				t.Fatalf("owner %d bytes tick %d: streamed batch's frame differs from the reference (err %v)", len(owner), bt.Tick, err)
			}
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i != len(want) {
			t.Fatalf("streamed %d batches, want %d", i, len(want))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(segmentPath(dir, 0)); err != nil || !bytes.Equal(got, wantWAL) {
		t.Fatalf("WAL segment differs from header + reference frames (err %v, %d bytes against %d)", err, len(got), len(wantWAL))
	}
	if got, err := os.ReadFile(historySegPath(dir, 1)); err != nil || !bytes.Equal(got, wantHist) {
		t.Fatalf("history segment differs from header + reference frames (err %v, %d bytes against %d)", err, len(got), len(wantHist))
	}

	// A replica's path: a shipped frame is CRC-checked and decoded, and its own
	// WAL append wraps the bytes it was shipped.
	dir2 := t.TempDir()
	s2, _ := openStoreWin(t, dir2, 1, 0)
	wantWAL = segmentHeader()
	for _, seed := range seededEntries("replica-owner") {
		shipped, _ := refEncodeEntryFrame(seed)
		e, err := DecodeEntryFrame(shipped)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := e.Frame(); &got[0] != &shipped[0] {
			t.Fatalf("tick %d: a decoded entry's Frame() is not the frame it was decoded from", seed.Batch.Tick)
		}
		appendWait(t, s2, 0, e)
		wantWAL = append(wantWAL, shipped...)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(segmentPath(dir2, 0)); err != nil || !bytes.Equal(got, wantWAL) {
		t.Fatalf("replica WAL segment differs from the shipped frames (err %v)", err)
	}
}

// TestCarriedFrameNeverTrusted: a carried frame is used only when it is
// exactly as long as the entry encodes to and names the entry's owner and
// tick; anything else — absent, another batch's, another owner's, another
// tick's, truncated — is ignored and the entry encoded from its fields.
func TestCarriedFrameNeverTrusted(t *testing.T) {
	seeds := seededEntries("owner-0007")
	good := seeds[2]
	want, _ := refEncodeEntryFrame(good)
	otherOwner, _ := refEncodeEntryFrame(Entry{Owner: "owner-0008", Batch: good.Batch})
	otherTick := good
	otherTick.Batch.Tick = 9
	otherTickFrame, _ := refEncodeEntryFrame(otherTick)
	longer, _ := refEncodeEntryFrame(seeds[0])
	for name, carried := range map[string][]byte{
		"absent":        nil,
		"empty":         {},
		"another batch": longer,
		"another owner": otherOwner,
		"another tick":  otherTickFrame,
		"truncated":     want[:len(want)-1],
		"padded":        append(append([]byte(nil), want...), 0),
	} {
		e := good
		e.Batch.frame = carried
		got, wrapped, err := e.canonical()
		if err != nil || wrapped || !bytes.Equal(got, want) {
			t.Errorf("%s frame: wrapped=%v err=%v, want a fresh encoding of the entry", name, wrapped, err)
		}
	}
	e := good
	e.Batch.frame = want
	if got, wrapped, err := e.canonical(); err != nil || !wrapped || &got[0] != &want[0] {
		t.Errorf("the entry's own frame was not wrapped (wrapped=%v err=%v)", wrapped, err)
	}
	// An unencodable entry fails whether or not something rides along.
	bad := Entry{Owner: "", Batch: good.Batch}
	bad.Batch.frame = want
	if _, err := bad.Frame(); err == nil {
		t.Error("entry with an empty owner produced a frame")
	}
}

// spillAllocs counts what one Spill of batches allocates, after a first one
// has opened the segment.
func spillAllocs(t *testing.T, batches []Batch) float64 {
	t.Helper()
	s, _ := openStoreWin(t, t.TempDir(), 1, 16)
	defer s.Close()
	spill := func() {
		if _, _, err := s.Spill(0, "owner-0001", nil, batches); err != nil {
			t.Fatal(err)
		}
	}
	spill()
	return testing.AllocsPerRun(50, spill)
}

// carriedTail is 16 tick-contiguous sync-durable-shaped batches, hand-built
// (carry false) or as the live path leaves them, each carrying its frame.
func carriedTail(tb testing.TB, carry bool) []Batch {
	tb.Helper()
	tail := syncDurableShard()[0].Tail[:16]
	if carry {
		for i := range tail {
			e := Entry{Owner: "owner-0001", Batch: tail[i]}
			e.Batch.Sealed = append([][]byte(nil), e.Batch.Sealed...)
			frame, err := encodeEntryFrame(e)
			if err != nil {
				tb.Fatal(err)
			}
			e.adopt(frame)
			tail[i] = e.Batch
		}
	}
	return tail
}

// TestSpillWrapsCarriedFrames pins the spill's cost by allocation count, as
// TestEncoderAllocations does the encoders': 16 batches that carry their
// frames spill with zero encodes — only the returned ref slice is allocated —
// where 16 hand-built ones pay one exactly-sized frame each.
func TestSpillWrapsCarriedFrames(t *testing.T) {
	if n := spillAllocs(t, carriedTail(t, true)); n != 1 {
		t.Errorf("spilling 16 batches that carry their frames allocates %v times, want 1 (the refs)", n)
	}
	if n := spillAllocs(t, carriedTail(t, false)); n != 17 {
		t.Errorf("spilling 16 hand-built batches allocates %v times, want 17 (a frame each and the refs)", n)
	}
}

// TestEnforceWindowReleasesSpilledBatches: the spill shifts the kept tail down
// in place — same array, no fresh slice a spill — and clears the slots it
// vacates, so no spilled batch's frame stays reachable from spare capacity.
func TestEnforceWindowReleasesSpilledBatches(t *testing.T) {
	s, _ := openStoreWin(t, t.TempDir(), 1, 6)
	defer s.Close()
	st := &OwnerState{Owner: "owner-0001", Clock: 45, Tail: carriedTail(t, true)}
	array := &st.Tail[0]
	if err := s.EnforceWindow(0, st, 6); err != nil {
		t.Fatal(err)
	}
	if len(st.Tail) != 6 || st.Tail[0].Tick != 40 || &st.Tail[0] != array || len(st.Spilled) != 1 || st.Spilled[0].Count != 10 {
		t.Fatalf("spill left %d batches from tick %d and refs %+v", len(st.Tail), st.Tail[0].Tick, st.Spilled)
	}
	for i, bt := range st.Tail[:cap(st.Tail)][6:16] {
		if bt.frame != nil || bt.Sealed != nil || bt.Tick != 0 {
			t.Fatalf("vacated slot %d still holds tick %d", 6+i, bt.Tick)
		}
	}
}
