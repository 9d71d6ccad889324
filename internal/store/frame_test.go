package store

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"dpsync/internal/dp"
)

// One encoding per entry: the frame SyncEntry builds where a live sync is
// decoded is what the WAL, the history tier and the replication stream all
// hold, carried by the batch and wrapped — never encoded again — by every
// later writer.

// seededEntries is one owner's tick-contiguous run of the shapes the codec
// must not confuse: no ciphertexts at all, zero-length ciphertexts, the setup
// flag, a free (unnamed) charge.
func seededEntries(owner string) []Entry {
	charge := Charge{Name: "m_update", Eps: 0.25, Rule: dp.Sequential}
	return []Entry{
		{Owner: owner, Batch: Batch{Tick: 1, Setup: true, Sealed: [][]byte{[]byte("setup-ct-0"), []byte("setup-ct-1")}, Charge: Charge{Name: "m_setup", Eps: 0.25, Rule: dp.Sequential}}},
		{Owner: owner, Batch: Batch{Tick: 2, Charge: charge}},
		{Owner: owner, Batch: Batch{Tick: 3, Sealed: [][]byte{{}, []byte("x"), {}}, Charge: charge}},
		{Owner: owner, Batch: Batch{Tick: 4, Sealed: [][]byte{bytes.Repeat([]byte{0xC7}, 45)}}},
		{Owner: owner, Batch: Batch{Tick: 5, Charge: Charge{Name: "m_flush", Rule: dp.Parallel}}},
		{Owner: owner, Batch: Batch{Tick: 6, Sealed: [][]byte{[]byte("tail-0"), []byte("tail-1")}, Charge: charge}},
	}
}

// liveEntries is one owner's tick-contiguous run of the shapes a live sync
// takes — a setup, no ciphertexts at all, one and several, narrow and wide, a
// free (unnamed) charge — each batch of one ciphertext width, as the wire
// carries it.
func liveEntries(owner string) []Entry {
	charge := Charge{Name: "m_update", Eps: 0.25, Rule: dp.Sequential}
	return []Entry{
		{Owner: owner, Batch: Batch{Tick: 1, Setup: true, Sealed: [][]byte{[]byte("setup-ct-0"), []byte("setup-ct-1")}, Charge: Charge{Name: "m_setup", Eps: 0.25, Rule: dp.Sequential}}},
		{Owner: owner, Batch: Batch{Tick: 2, Charge: charge}},
		{Owner: owner, Batch: Batch{Tick: 3, Sealed: [][]byte{[]byte("x"), []byte("y"), []byte("z")}, Charge: charge}},
		{Owner: owner, Batch: Batch{Tick: 4, Sealed: [][]byte{bytes.Repeat([]byte{0xC7}, 45)}}},
		{Owner: owner, Batch: Batch{Tick: 5, Charge: Charge{Name: "m_free", Rule: dp.Parallel}}},
		{Owner: owner, Batch: Batch{Tick: 6, Sealed: [][]byte{[]byte("tail-0"), []byte("tail-1")}, Charge: charge}},
	}
}

// syncEntryFrom builds e's live entry the way the gateway's reader does:
// from its ciphertexts laid back to back in one block, which is scribbled
// over as soon as SyncEntry returns.
func syncEntryFrom(t *testing.T, e Entry) Entry {
	t.Helper()
	var block []byte
	width := 0
	for _, ct := range e.Batch.Sealed {
		block, width = append(block, ct...), len(ct)
	}
	live, err := SyncEntry(e.Owner, e.Batch.Tick, e.Batch.Setup, e.Batch.Charge, width, block)
	if err != nil {
		t.Fatal(err)
	}
	for i := range block {
		block[i] ^= 0xFF
	}
	return live
}

// commitHook installs a commit hook on shard sid that hands every group to
// the returned channel.
func commitHook(s *Store, sid int) <-chan Group {
	groups := make(chan Group, 64)
	s.OnCommit(sid, func(g Group) { groups <- g })
	return groups
}

// appendAtWait appends e through AppendAt and waits for the group that
// commits it.
func appendAtWait(t *testing.T, s *Store, sid int, groups <-chan Group, e Entry) {
	t.Helper()
	if err := s.AppendAt(sid, e, 0); err != nil {
		t.Fatal(err)
	}
	if g := <-groups; g.N != 1 || g.Err != nil || g.End < g.Start || g.Start == 0 {
		t.Fatalf("group %+v, want one durable entry", g)
	}
}

// TestOneEncodingSameBytes drives the live path's four steps — SyncEntry,
// AppendAt, Apply, EnforceWindow — for owners with 1-byte and 255-byte names
// and holds the frame SyncEntry builds, the WAL segment, the history segment
// the spill wrote, every frame a later writer is handed (Entry.Frame, what
// the hub ships) and the frame a batch carries to the reference encoder's
// bytes. The block the ciphertexts arrived in is scribbled over as soon as
// SyncEntry returns: nothing durable may still point into it.
func TestOneEncodingSameBytes(t *testing.T) {
	const window = 2
	dir := t.TempDir()
	s, _ := openStoreWin(t, dir, 1, window)
	groups := commitHook(s, 0)
	wantWAL, wantHist := segmentHeader(), historyHeader()
	for _, owner := range []string{"a", strings.Repeat("z", 255), "owner-0007"} {
		st := &OwnerState{Owner: owner, Budget: dp.NewBudget()}
		var want [][]byte
		for _, seed := range liveEntries(owner) {
			ref, err := refEncodeEntryFrame(seed)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ref)
			wantWAL = append(wantWAL, ref...)

			e := syncEntryFrom(t, seed)
			if !bytes.Equal(e.Batch.frame, ref) {
				t.Fatalf("owner %d bytes tick %d: SyncEntry built a frame that is not the reference encoding", len(owner), seed.Batch.Tick)
			}
			if len(e.Batch.Sealed) != len(seed.Batch.Sealed) {
				t.Fatalf("tick %d: %d ciphertexts, want %d", seed.Batch.Tick, len(e.Batch.Sealed), len(seed.Batch.Sealed))
			}
			for i, ct := range e.Batch.Sealed {
				if !bytes.Equal(ct, seed.Batch.Sealed[i]) {
					t.Fatalf("tick %d: ciphertext %d still aliases the request block", seed.Batch.Tick, i)
				}
			}
			if got, err := e.Frame(); err != nil || &got[0] != &e.Batch.frame[0] {
				t.Fatalf("tick %d: Frame() did not wrap the carried frame (err %v)", seed.Batch.Tick, err)
			}
			appendAtWait(t, s, 0, groups, e)
			if err := st.Apply(e.Batch); err != nil {
				t.Fatal(err)
			}
			if err := s.EnforceWindow(0, st); err != nil {
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
	groups2 := commitHook(s2, 0)
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
		appendAtWait(t, s2, 0, groups2, e)
		wantWAL = append(wantWAL, shipped...)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(segmentPath(dir2, 0)); err != nil || !bytes.Equal(got, wantWAL) {
		t.Fatalf("replica WAL segment differs from the shipped frames (err %v)", err)
	}
}

// TestSyncEntryRefusesWhatNoFrameHolds: a block that is not a whole number of
// ciphertexts, an owner the format cannot name and a charge name too long
// for its length field are refused, never framed.
func TestSyncEntryRefusesWhatNoFrameHolds(t *testing.T) {
	charge := Charge{Name: "m_update", Rule: dp.Sequential}
	for name, build := range map[string]func() (Entry, error){
		"ragged block": func() (Entry, error) { return SyncEntry("o", 2, false, charge, 4, make([]byte, 10)) },
		"no width":     func() (Entry, error) { return SyncEntry("o", 2, false, charge, 0, make([]byte, 10)) },
		"width < 0":    func() (Entry, error) { return SyncEntry("o", 2, false, charge, -2, make([]byte, 10)) },
		"empty owner":  func() (Entry, error) { return SyncEntry("", 2, false, charge, 4, make([]byte, 8)) },
		"owner too long": func() (Entry, error) {
			return SyncEntry(strings.Repeat("x", 256), 2, false, charge, 4, make([]byte, 8))
		},
		"charge name too long": func() (Entry, error) {
			return SyncEntry("o", 2, false, Charge{Name: strings.Repeat("n", 1<<16)}, 4, make([]byte, 8))
		},
	} {
		if e, err := build(); err == nil {
			t.Errorf("%s: framed %d bytes", name, len(e.Batch.frame))
		}
	}
}

// TestUnknownBatchFlagBitsRefused: setup is the one batch flag, so an entry
// with any other flag bit set — bit 1 included, the retired flush flag no
// writer ever set — is corruption, not data.
func TestUnknownBatchFlagBitsRefused(t *testing.T) {
	frame, err := encodeEntryFrame(Entry{Owner: "o", Batch: Batch{Tick: 2, Sealed: [][]byte{{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	const flagsAt = 1 + 1 + len("o") + 8 // kind, owner length, owner, tick
	if _, err := decodeEntry(frame[8:]); err != nil {
		t.Fatalf("valid entry refused: %v", err)
	}
	for bit := 1; bit < 8; bit++ {
		payload := append([]byte(nil), frame[8:]...)
		payload[flagsAt] |= 1 << bit
		if _, err := decodeEntry(payload); !errors.Is(err, ErrCorruptSegment) {
			t.Errorf("flag bit %d: err = %v, want ErrCorruptSegment", bit, err)
		}
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
		got, err := e.Frame()
		if wrapped := e.carried() != nil; err != nil || wrapped || !bytes.Equal(got, want) {
			t.Errorf("%s frame: wrapped=%v err=%v, want a fresh encoding of the entry", name, wrapped, err)
		}
	}
	e := good
	e.Batch.frame = want
	if got, err := e.Frame(); err != nil || e.carried() == nil || &got[0] != &want[0] {
		t.Errorf("the entry's own frame was not wrapped (err=%v)", err)
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
			frame, err := encodeEntryFrame(Entry{Owner: "owner-0001", Batch: tail[i]})
			if err != nil {
				tb.Fatal(err)
			}
			e, err := DecodeEntryFrame(frame)
			if err != nil {
				tb.Fatal(err)
			}
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
	if err := s.EnforceWindow(0, st); err != nil {
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
