package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dpsync/internal/dp"
)

// openStoreWin opens a store with a history window, failing the test on
// error.
func openStoreWin(t *testing.T, dir string, shards, window int) (*Store, map[string]*OwnerState) {
	t.Helper()
	s, states, err := Open(Options{Dir: dir, Shards: shards, HistoryWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	return s, states
}

// driveSpilled mimics the gateway's commit-time bookkeeping for one owner:
// append to the WAL, fold into the state, spill past the window.
func driveSpilled(t *testing.T, s *Store, st *OwnerState, window int, fromTick, toTick uint64, payload func(uint64) string) {
	t.Helper()
	for tick := fromTick; tick <= toTick; tick++ {
		e := testEntry(st.Owner, tick, tick == 1, payload(tick))
		appendWait(t, s, 0, e)
		if err := st.Apply(e.Batch); err != nil {
			t.Fatal(err)
		}
		if len(st.Tail) > window {
			n := len(st.Tail) - window
			var prev *SegmentRef
			if len(st.Spilled) > 0 {
				prev = &st.Spilled[len(st.Spilled)-1]
			}
			refs, extended, err := s.Spill(0, st.Owner, prev, st.Tail[:n])
			if err != nil {
				t.Fatal(err)
			}
			if extended {
				st.Spilled[len(st.Spilled)-1] = refs[0]
				refs = refs[1:]
			}
			st.Spilled = append(st.Spilled, refs...)
			st.Tail = append([]Batch(nil), st.Tail[n:]...)
		}
	}
}

// collectHistory streams an owner's full history into a slice (tests only —
// production code streams precisely to avoid this materialization).
func collectHistory(t *testing.T, s *Store, st *OwnerState) []Batch {
	t.Helper()
	var out []Batch
	if err := s.StreamHistory(st, func(bt Batch) error {
		out = append(out, bt)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// derivedLedger is the ε ledger of st's streamed history, derived the way the
// gateway derives a recovered owner's (Tenants.Replay).
func derivedLedger(t *testing.T, s *Store, st *OwnerState) *dp.Budget {
	t.Helper()
	return ledgerOf(t, collectHistory(t, s, st))
}

// ledgerOf spends each batch's logged charge, once, into a fresh ledger.
func ledgerOf(tb testing.TB, batches []Batch) *dp.Budget {
	tb.Helper()
	ledger := dp.NewBudget()
	for _, bt := range batches {
		if err := bt.Charge.Spend(ledger); err != nil {
			tb.Fatalf("tick %d: %v", bt.Tick, err)
		}
	}
	return ledger
}

// TestSpillRotateStreamRoundTrip is the tiered-history acceptance round
// trip: batches spill past the window, a rotation persists the manifest, a
// post-rotation entry lands in the fresh WAL, and a reopen streams the full
// history back in tick order with every ciphertext intact — across a
// second reopen too (idempotence).
func TestSpillRotateStreamRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const window, total = 2, 9
	payload := func(tick uint64) string { return fmt.Sprintf("ct-%03d", tick) }
	s, _ := openStoreWin(t, dir, 1, window)
	st := &OwnerState{Owner: "o", Budget: dp.NewBudget()}
	driveSpilled(t, s, st, window, 1, total, payload)
	if len(st.Spilled) == 0 || len(st.Tail) != window {
		t.Fatalf("spill bookkeeping: %d refs, %d tail", len(st.Spilled), len(st.Tail))
	}
	// A single owner spilling contiguously into one segment must coalesce
	// to exactly one ref, however many spill calls happened — the property
	// that keeps manifests sublinear in history.
	if len(st.Spilled) != 1 {
		t.Fatalf("contiguous spills minted %d refs, want 1 (coalescing broken)", len(st.Spilled))
	}
	if err := s.Rotate(0, []OwnerState{*st}); err != nil {
		t.Fatal(err)
	}
	// One more entry after the rotation: it lives only in the fresh WAL.
	driveSpilled(t, s, st, window, total+1, total+1, payload)
	m := s.Metrics()
	if m.SpillBatches != total+1-window || m.SpillBytes == 0 || m.HistorySegments == 0 {
		t.Fatalf("spill metrics = %+v", m)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for open := 0; open < 2; open++ {
		s2, got := openStoreWin(t, dir, 1, window)
		o := got["o"]
		if o == nil || o.Clock != total+1 {
			t.Fatalf("open %d: recovered %+v", open, o)
		}
		if len(o.Tail) >= 2*window {
			t.Fatalf("open %d: tail %d reaches twice the window %d (compaction did not re-spill)", open, len(o.Tail), window)
		}
		batches := collectHistory(t, s2, o)
		if len(batches) != total+1 {
			t.Fatalf("open %d: streamed %d batches, want %d", open, len(batches), total+1)
		}
		for i, bt := range batches {
			if bt.Tick != uint64(i+1) {
				t.Fatalf("open %d: batch %d at tick %d", open, i, bt.Tick)
			}
			if string(bt.Sealed[0]) != payload(bt.Tick) {
				t.Fatalf("open %d: tick %d ciphertext %q", open, bt.Tick, bt.Sealed[0])
			}
		}
		if ledger := ledgerOf(t, batches); ledger.Uses("m_update") != total {
			t.Fatalf("open %d: ledger %s", open, ledger.Describe())
		}
		if info := s2.Info(); info.SpilledRefs == 0 {
			t.Fatalf("open %d: recovery info %+v", open, info)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManifestRotationIsDelta pins what a manifest saves: with a window,
// the snapshot file stays a small manifest while the spilled history grows
// far past it — rotation never re-serializes the cold tier.
func TestManifestRotationIsDelta(t *testing.T) {
	dir := t.TempDir()
	const window = 2
	blob := string(bytes.Repeat([]byte{'x'}, 1024))
	s, _ := openStoreWin(t, dir, 1, window)
	st := &OwnerState{Owner: "o", Budget: dp.NewBudget()}
	driveSpilled(t, s, st, window, 1, 100, func(uint64) string { return blob })
	if err := s.Rotate(0, []OwnerState{*st}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(snapshotPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	totalSealed := int64(100 * len(blob))
	if fi.Size() > totalSealed/10 {
		t.Fatalf("manifest snapshot is %d bytes for %d sealed bytes — rotation rewrote spilled history", fi.Size(), totalSealed)
	}
	// Sanity: the spilled bytes actually exist in the history tier.
	if m := s.Metrics(); m.SpillBytes < totalSealed {
		t.Fatalf("spill bytes %d < sealed bytes %d", m.SpillBytes, totalSealed)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionReSpillsLegacyTail covers migration: a store whose tails
// are wider than the window it is reopened with (a build that kept whole
// histories inline, or a narrower -history-window) must re-spill the
// overflow at compaction and still stream the identical history.
func TestCompactionReSpillsLegacyTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 1)
	for tick := uint64(1); tick <= 8; tick++ {
		appendWait(t, s, 0, testEntry("o", tick, tick == 1, fmt.Sprintf("p%d", tick)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, got := openStoreWin(t, dir, 1, 3)
	o := got["o"]
	if o == nil || o.Clock != 8 || len(o.Tail) != 3 || len(o.Spilled) == 0 {
		t.Fatalf("recovered: %+v", o)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "hist-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no history segments after windowed reopen: %v (%v)", segs, err)
	}
	batches := collectHistory(t, s2, o)
	if len(batches) != 8 || string(batches[0].Sealed[0]) != "p1" || string(batches[7].Sealed[0]) != "p8" {
		t.Fatalf("streamed history wrong: %d batches", len(batches))
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// And back to the default window, wider than the history: the spilled
	// tier remains referenced and streamable — the formats are one tier, not
	// two modes.
	s3, got3 := openStore(t, dir, 1)
	defer s3.Close()
	if batches := collectHistory(t, s3, got3["o"]); len(batches) != 8 {
		t.Fatalf("default-window reopen streamed %d batches", len(batches))
	}

	// Recovered tails obey the live bound: one just past the window stays
	// inline, one of three windows spills down to exactly the window. Then a
	// Kill before any rotation: the manifests compaction wrote must name bytes
	// it flushed, so the reopen streams every owner's whole history.
	const window = 3
	clocks := map[string]uint64{"short": window + 1, "long": 3 * window}
	dir = t.TempDir()
	s, _ = openStore(t, dir, 1)
	for owner, clock := range clocks {
		for tick := uint64(1); tick <= clock; tick++ {
			appendWait(t, s, 0, testEntry(owner, tick, tick == 1, fmt.Sprintf("%s-%d", owner, tick)))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s4, got4 := openStoreWin(t, dir, 1, window)
	if st := got4["short"]; len(st.Tail) != window+1 || len(st.Spilled) != 0 {
		t.Fatalf("a tail of window+1 was spilled at compaction: %d inline, %d refs", len(st.Tail), len(st.Spilled))
	}
	if st := got4["long"]; len(st.Tail) != window || cap(st.Tail) > 2*window || len(st.Spilled) == 0 {
		t.Fatalf("a tail of 3×window kept %d inline batches (cap %d), %d refs; want exactly the window", len(st.Tail), cap(st.Tail), len(st.Spilled))
	}
	s4.Kill()
	s5, got5 := openStoreWin(t, dir, 1, window)
	defer s5.Close()
	if info := s5.Info(); info.DamagedHistory != 0 || info.CorruptSegments != 0 {
		t.Fatalf("reopen after a Kill found damage: %+v", info)
	}
	for owner, clock := range clocks {
		batches := collectHistory(t, s5, got5[owner])
		if uint64(len(batches)) != clock {
			t.Fatalf("%s: streamed %d batches after a Kill, want %d", owner, len(batches), clock)
		}
		for i, bt := range batches {
			if want := fmt.Sprintf("%s-%d", owner, i+1); bt.Tick != uint64(i+1) || string(bt.Sealed[0]) != want {
				t.Fatalf("%s: batch %d is tick %d %q, want %q", owner, i, bt.Tick, bt.Sealed[0], want)
			}
		}
	}
}

// TestOrphanHistorySegmentsCollected pins GC: spilled-but-never-manifested
// segments (the crash-before-rotation shape) are removed at the next open —
// their batches are fully covered by the WAL, which recovery proves by
// reconstructing the complete history anyway.
func TestOrphanHistorySegmentsCollected(t *testing.T) {
	dir := t.TempDir()
	const window = 1
	s, _ := openStoreWin(t, dir, 1, window)
	st := &OwnerState{Owner: "o", Budget: dp.NewBudget()}
	driveSpilled(t, s, st, window, 1, 5, func(tick uint64) string { return fmt.Sprintf("p%d", tick) })
	// No Rotate: the spill refs die with this process, like a crash.
	s.Kill()

	s2, got := openStoreWin(t, dir, 1, window)
	defer s2.Close()
	o := got["o"]
	if o == nil || o.Clock != 5 {
		t.Fatalf("recovered: %+v", o)
	}
	if batches := collectHistory(t, s2, o); len(batches) != 5 {
		t.Fatalf("streamed %d batches, want 5", len(batches))
	}
	// The orphan from the first process must be gone; only segments the
	// fresh manifests reference may remain.
	segs, err := filepath.Glob(filepath.Join(dir, "hist-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	referenced := map[string]bool{}
	for _, ref := range o.Spilled {
		referenced[historySegPath(dir, ref.Seg)] = true
	}
	for _, seg := range segs {
		if !referenced[seg] {
			t.Fatalf("orphan history segment survived GC: %s (referenced: %v)", seg, o.Spilled)
		}
	}
}

// TestDamagedHistoryFallsBackToOlderSnapshot pins the merge rule: a
// higher-clock snapshot whose manifest points at a missing history segment
// loses to an older candidate whose history is intact.
func TestDamagedHistoryFallsBackToOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	// Older, intact candidate: inline history, clock 2.
	oldSt := &OwnerState{Owner: "o", Budget: dp.NewBudget()}
	for tick := uint64(1); tick <= 2; tick++ {
		if err := oldSt.Apply(testEntry("o", tick, tick == 1, "p").Batch); err != nil {
			t.Fatal(err)
		}
	}
	oldImg, err := encodeSnapshot([]OwnerState{*oldSt})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, 1), oldImg, 0o644); err != nil {
		t.Fatal(err)
	}
	// Newer candidate: clock 4, history spilled to a segment that does not
	// exist (damage / lost file).
	newSt := *oldSt
	newSt.Budget = oldSt.Budget.Clone()
	newSt.Spilled = []SegmentRef{{Seg: 7, Off: 5, Len: 64, CRC: 1, FirstTick: 1, Count: 2}}
	newSt.Tail = nil
	// Ticks 1,2 live behind the (missing) segment; 3,4 stay inline.
	for tick := uint64(3); tick <= 4; tick++ {
		if err := newSt.Apply(testEntry("o", tick, false, "q").Batch); err != nil {
			t.Fatal(err)
		}
	}
	newImg, err := encodeSnapshot([]OwnerState{newSt})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, 0), newImg, 0o644); err != nil {
		t.Fatal(err)
	}

	s, got := openStore(t, dir, 1)
	defer s.Close()
	o := got["o"]
	if o == nil || o.Clock != 2 {
		t.Fatalf("fallback did not happen: %+v", o)
	}
	if info := s.Info(); info.DamagedHistory != 1 {
		t.Fatalf("recovery info = %+v", info)
	}
	if batches := collectHistory(t, s, o); len(batches) != 2 {
		t.Fatalf("streamed %d batches", len(batches))
	}
	// The dropped candidate lived at shard-0000.snap — the same path the
	// fresh fallback snapshot is written to under this shard mapping. Its
	// inline batches and ref offsets are the salvage map for the missing
	// segment, so compaction must have renamed it aside, not overwritten
	// it.
	saved, err := filepath.Glob(snapshotPath(dir, 0) + ".quarantined*")
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 1 {
		t.Fatalf("dropped-candidate snapshot not quarantined before the fresh write: %v", saved)
	}
	if data, err := os.ReadFile(saved[0]); err != nil || !bytes.Equal(data, newImg) {
		t.Fatalf("quarantined snapshot bytes differ from the dropped candidate (err %v)", err)
	}
}

// TestStreamDetectsSegmentDamage flips a byte inside a manifested run: the
// stream must fail with a typed corruption error, never hand back a batch
// from the damaged range silently.
func TestStreamDetectsSegmentDamage(t *testing.T) {
	dir := t.TempDir()
	const window = 1
	s, _ := openStoreWin(t, dir, 1, window)
	st := &OwnerState{Owner: "o", Budget: dp.NewBudget()}
	driveSpilled(t, s, st, window, 1, 6, func(tick uint64) string { return fmt.Sprintf("payload-%d", tick) })
	if err := s.Rotate(0, []OwnerState{*st}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage the middle of the first referenced run.
	ref := st.Spilled[0]
	path := historySegPath(dir, ref.Seg)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[int(ref.Off)+int(ref.Len)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, got := openStoreWin(t, dir, 1, window)
	defer s2.Close()
	o := got["o"]
	if o == nil {
		t.Fatal("owner lost")
	}
	err = s2.StreamHistory(o, func(Batch) error { return nil })
	if !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("damaged run streamed without a typed error: %v", err)
	}
}

// TestCorruptSnapshotProtectsHistorySegments pins the conservative-GC
// rule: when a snapshot fails to decode, its manifest's refs are unknown,
// so compaction must quarantine — never delete — history segments that no
// fresh manifest references; the quarantined snapshot may be the only
// thing still naming their bytes. A torn payload byte and an image in a
// retired format (version 1, version 2 with its transcript section, or
// version 3 with its ledger section) are refused the same way.
func TestCorruptSnapshotProtectsHistorySegments(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(img []byte)
	}{
		{"torn byte", func(img []byte) { img[len(img)-1] ^= 0xFF }},
		{"version 1", func(img []byte) { img[4] = 1 }},
		{"version 2", func(img []byte) { img[4] = 2 }},
		{"version 3", func(img []byte) { img[4] = 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const window = 1
			s, _ := openStoreWin(t, dir, 1, window)
			st := &OwnerState{Owner: "o", Budget: dp.NewBudget()}
			driveSpilled(t, s, st, window, 1, 5, func(tick uint64) string { return fmt.Sprintf("p%d", tick) })
			if err := s.Rotate(0, []OwnerState{*st}); err != nil {
				t.Fatal(err)
			}
			segPath := historySegPath(dir, st.Spilled[0].Seg)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Damage the snapshot so its manifest — the only reference to the
			// spilled segment — cannot be read.
			snap, err := os.ReadFile(snapshotPath(dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(snap)
			if _, err := decodeSnapshot(snap); !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("damaged snapshot decoded: %v, want ErrCorruptSegment", err)
			}
			if err := os.WriteFile(snapshotPath(dir, 0), snap, 0o644); err != nil {
				t.Fatal(err)
			}

			s2, _ := openStoreWin(t, dir, 1, window)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			// The WAL was truncated at rotation, so the spilled batches exist
			// only in the segment the damaged manifest references: it must
			// survive as a quarantine, never be deleted.
			if _, err := os.Stat(segPath); err == nil {
				t.Fatalf("unreferenced segment left live (fresh manifests cannot be referencing it)")
			}
			quarantined, err := filepath.Glob(segPath + ".quarantined*")
			if err != nil {
				t.Fatal(err)
			}
			if len(quarantined) == 0 {
				t.Fatalf("history segment deleted while a corrupt snapshot may still name its bytes")
			}
		})
	}
}

// TestImageSizeIndependentOfOwnerAge: an image holds an owner's clock,
// ledger, spilled refs and inline tail, and nothing per sync the owner has
// ever made. One owner on one shard, window 4, every batch the same size:
// contiguous spills widen a single ref, so rotated at clock 20 and again at
// clock 200 — the same tail length both times — the two images are the same
// number of bytes.
func TestImageSizeIndependentOfOwnerAge(t *testing.T) {
	const window = 4
	dir := t.TempDir()
	s, _ := openStoreWin(t, dir, 1, window)
	defer s.Close()
	st := &OwnerState{Owner: "o", Budget: dp.NewBudget()}
	size := map[uint64]int64{}
	for _, clock := range []uint64{20, 200} {
		for st.Clock < clock {
			e := testEntry(st.Owner, st.Clock+1, st.Clock == 0, fmt.Sprintf("p%04d", st.Clock+1))
			appendWait(t, s, 0, e)
			if err := st.Apply(e.Batch); err != nil {
				t.Fatal(err)
			}
			if err := s.EnforceWindow(0, st); err != nil {
				t.Fatal(err)
			}
		}
		if len(st.Spilled) != 1 || len(st.Tail) != window {
			t.Fatalf("clock %d: %d refs and %d tail batches, want 1 and %d", clock, len(st.Spilled), len(st.Tail), window)
		}
		if err := s.Rotate(0, []OwnerState{*st}); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(snapshotPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		size[clock] = fi.Size()
	}
	if size[20] != size[200] {
		t.Fatalf("the image is %d bytes at clock 20 and %d at clock 200: it grows with the owner's age", size[20], size[200])
	}
}

// TestSpillContiguityEnforced pins the producer-side guard.
func TestSpillContiguityEnforced(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreWin(t, dir, 1, 1)
	defer s.Close()
	_, _, err := s.Spill(0, "o", nil, []Batch{
		testEntry("o", 1, true, "a").Batch,
		testEntry("o", 3, false, "b").Batch,
	})
	if err == nil {
		t.Fatal("non-contiguous spill accepted")
	}
}
