package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"dpsync/internal/binfmt"
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
		if window > 0 && len(st.Tail) > window {
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
		if len(o.Tail) > window {
			t.Fatalf("open %d: tail %d exceeds window %d (compaction did not re-spill)", open, len(o.Tail), window)
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
		if o.Budget.Uses("m_update") != total {
			t.Fatalf("open %d: ledger %s", open, o.Budget.Describe())
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

// TestCompactionReSpillsLegacyTail covers migration: a store written with
// no window (full inline history) reopened with a window must re-spill the
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
	// And back to window 0: the spilled tier remains referenced and
	// streamable — the formats are one tier, not two modes.
	s3, got3 := openStore(t, dir, 1)
	defer s3.Close()
	if batches := collectHistory(t, s3, got3["o"]); len(batches) != 8 {
		t.Fatalf("unwindowed reopen streamed %d batches", len(batches))
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
	oldImg, err := encodeSnapshot(nil, []OwnerState{*oldSt})
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
	newImg, err := encodeSnapshot(nil, []OwnerState{newSt})
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

// encodeSnapshotV1 renders the legacy (PR 4) snapshot layout: no spill
// tier, the whole history inline. Used to pin the upgrade path.
func encodeSnapshotV1(t testing.TB, owners []OwnerState) []byte {
	t.Helper()
	payload := binfmt.AppendU32(nil, uint32(len(owners)))
	for _, st := range owners {
		payload = append(payload, byte(len(st.Owner)))
		payload = append(payload, st.Owner...)
		payload = binfmt.AppendU64(payload, st.Clock)
		ledger, err := st.Budget.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		payload = binfmt.AppendU32(payload, uint32(len(ledger)))
		payload = append(payload, ledger...)
		payload = binfmt.AppendU32(payload, uint32(len(st.Events)))
		for _, ev := range st.Events {
			payload = binfmt.AppendU64(payload, uint64(ev.Tick))
			payload = binfmt.AppendU32(payload, uint32(ev.Volume))
			var f byte
			if ev.Flush {
				f = 1
			}
			payload = append(payload, f)
		}
		payload = binfmt.AppendU32(payload, uint32(len(st.Tail)))
		for _, bt := range st.Tail {
			payload, err = appendBatch(payload, bt)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	out := append(append([]byte(nil), snapMagic[:]...), snapVersionV1)
	out = binfmt.AppendU32(out, uint32(len(payload)))
	out = binfmt.AppendU32(out, crc32Of(payload))
	return append(out, payload...)
}

func crc32Of(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// TestLegacySnapshotUpgrade pins the v1 read path: a store whose snapshot
// was written by the pre-tiered-history code must reopen with its full
// state — transcript, ledger, history — and come out the other side as a
// v2 manifest (spilled under the window) without losing a tick.
func TestLegacySnapshotUpgrade(t *testing.T) {
	dir := t.TempDir()
	st := &OwnerState{Owner: "o", Budget: dp.NewBudget()}
	for tick := uint64(1); tick <= 6; tick++ {
		if err := st.Apply(testEntry("o", tick, tick == 1, fmt.Sprintf("v1-%d", tick)).Batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(snapshotPath(dir, 0), encodeSnapshotV1(t, []OwnerState{*st}), 0o644); err != nil {
		t.Fatal(err)
	}

	s, got := openStoreWin(t, dir, 1, 2)
	o := got["o"]
	if o == nil || o.Clock != 6 || len(o.Events) != 6 || o.Budget.Uses("m_update") != 5 {
		t.Fatalf("v1 state not recovered: %+v", o)
	}
	if len(o.Tail) != 2 || len(o.Spilled) == 0 {
		t.Fatalf("v1 history not re-tiered under the window: %d tail, %d refs", len(o.Tail), len(o.Spilled))
	}
	batches := collectHistory(t, s, o)
	if len(batches) != 6 || string(batches[0].Sealed[0]) != "v1-1" || string(batches[5].Sealed[0]) != "v1-6" {
		t.Fatalf("v1 history bytes lost: %d batches", len(batches))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The rewritten snapshot must now be v2.
	img, err := os.ReadFile(snapshotPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if img[4] != snapVersion {
		t.Fatalf("compaction left snapshot at version %d", img[4])
	}
}

// TestCorruptSnapshotProtectsHistorySegments pins the conservative-GC
// rule: when a snapshot fails to decode, its manifest's refs are unknown,
// so compaction must quarantine — never delete — history segments that no
// fresh manifest references; the quarantined snapshot may be the only
// thing still naming their bytes.
func TestCorruptSnapshotProtectsHistorySegments(t *testing.T) {
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
	snap[len(snap)-1] ^= 0xFF
	if err := os.WriteFile(snapshotPath(dir, 0), snap, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _ := openStoreWin(t, dir, 1, window)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// The WAL was truncated at rotation, so the spilled batches exist only
	// in the segment the damaged manifest references: it must survive as a
	// quarantine, never be deleted.
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
