package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dpsync/internal/dp"
)

func testEntry(owner string, tick uint64, setup bool, payloads ...string) Entry {
	sealed := make([][]byte, len(payloads))
	for i, p := range payloads {
		sealed[i] = []byte(p)
	}
	name := "m_update"
	if setup {
		name = "m_setup"
	}
	return Entry{Owner: owner, Batch: Batch{
		Tick:   tick,
		Setup:  setup,
		Sealed: sealed,
		Charge: Charge{Name: name, Eps: 0.25, Rule: dp.Sequential},
	}}
}

// appendWait appends synchronously: the test's stand-in for the gateway's
// deferred acknowledgment.
func appendWait(t *testing.T, s *Store, sid int, e Entry) {
	t.Helper()
	done := make(chan error, 1)
	if err := s.Append(sid, e, func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func openStore(t *testing.T, dir string, shards int) (*Store, map[string]*OwnerState) {
	t.Helper()
	s, states, err := Open(Options{Dir: dir, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return s, states
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, states := openStore(t, dir, 2)
	if len(states) != 0 {
		t.Fatalf("fresh dir recovered %d owners", len(states))
	}
	owners := []string{"owner-a", "owner-b", "owner-c"}
	for _, owner := range owners {
		sid := ShardFor(owner, 2)
		appendWait(t, s, sid, testEntry(owner, 1, true, "ct-"+owner+"-0"))
		appendWait(t, s, sid, testEntry(owner, 2, false, "ct-"+owner+"-1", "ct-"+owner+"-2"))
	}
	m := s.Metrics()
	if m.Appends != 6 || m.Commits == 0 || m.Bytes == 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, got := openStore(t, dir, 2)
	defer s2.Close()
	if s2.Info().Owners != 3 || s2.Info().Entries != 6 {
		t.Fatalf("recovery info = %+v", s2.Info())
	}
	for _, owner := range owners {
		st := got[owner]
		if st == nil {
			t.Fatalf("owner %s not recovered", owner)
		}
		if st.Clock != 2 || len(st.Events) != 2 || len(st.Tail) != 2 {
			t.Fatalf("%s state = clock %d, %d events, %d batches", owner, st.Clock, len(st.Events), len(st.Tail))
		}
		if st.Events[0].Volume != 1 || st.Events[1].Volume != 2 {
			t.Fatalf("%s volumes = %d, %d", owner, st.Events[0].Volume, st.Events[1].Volume)
		}
		if !st.Tail[0].Setup || st.Tail[1].Setup {
			t.Fatalf("%s setup flags wrong", owner)
		}
		if string(st.Tail[1].Sealed[0]) != "ct-"+owner+"-1" {
			t.Fatalf("%s ciphertexts corrupted: %q", owner, st.Tail[1].Sealed[0])
		}
		if st.Budget.Uses("m_setup") != 1 || st.Budget.Uses("m_update") != 1 {
			t.Fatalf("%s ledger = %s", owner, st.Budget.Describe())
		}
	}
}

func TestRotateTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 1)
	appendWait(t, s, 0, testEntry("o", 1, true, "a"))
	appendWait(t, s, 0, testEntry("o", 2, false, "b"))
	sizeBefore := segmentSize(t, dir, 0)

	// Build the post-commit state and rotate (the caller is quiesced: both
	// appends were acknowledged).
	st := &OwnerState{Owner: "o", Budget: dp.NewBudget()}
	for _, e := range []Entry{testEntry("o", 1, true, "a"), testEntry("o", 2, false, "b")} {
		if err := st.Apply(e.Batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Rotate(0, []OwnerState{*st}); err != nil {
		t.Fatal(err)
	}
	if got := segmentSize(t, dir, 0); got >= sizeBefore {
		t.Fatalf("segment not truncated: %d >= %d", got, sizeBefore)
	}
	if s.Metrics().Snapshots != 1 {
		t.Fatalf("snapshots = %d", s.Metrics().Snapshots)
	}

	// Entries after the snapshot land in the fresh segment.
	appendWait(t, s, 0, testEntry("o", 3, false, "c"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, got := openStore(t, dir, 1)
	defer s2.Close()
	o := got["o"]
	if o == nil || o.Clock != 3 || len(o.Events) != 3 || len(o.Tail) != 3 {
		t.Fatalf("recovered: %+v", o)
	}
	if string(o.Tail[2].Sealed[0]) != "c" {
		t.Fatalf("post-snapshot entry lost: %q", o.Tail[2].Sealed[0])
	}
	if o.Budget.Uses("m_update") != 2 {
		t.Fatalf("ledger = %s", o.Budget.Describe())
	}
	if info := s2.Info(); info.Snapshots != 1 || info.Entries != 1 {
		t.Fatalf("recovery info = %+v", info)
	}
}

func segmentSize(t *testing.T, dir string, sid int) int64 {
	t.Helper()
	fi, err := os.Stat(segmentPath(dir, sid))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestRecoveryAcrossResharding pins that a directory written under one
// shard count reopens correctly under another: owners are re-homed by the
// current hash and nothing is lost or duplicated.
func TestRecoveryAcrossResharding(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 4)
	const owners = 12
	for i := 0; i < owners; i++ {
		owner := fmt.Sprintf("owner-%03d", i)
		sid := ShardFor(owner, 4)
		appendWait(t, s, sid, testEntry(owner, 1, true, "x"))
		appendWait(t, s, sid, testEntry(owner, 2, false, "y", "z"))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, got := openStore(t, dir, 2)
	if len(got) != owners {
		t.Fatalf("recovered %d owners, want %d", len(got), owners)
	}
	for owner, st := range got {
		if st.Clock != 2 || len(st.Events) != 2 || st.Budget.Uses("m_update") != 1 {
			t.Fatalf("%s: clock %d events %d ledger %s", owner, st.Clock, len(st.Events), st.Budget.Describe())
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// And a third open (after compaction under 2 shards) is identical —
	// replay idempotence end to end.
	s3, again := openStore(t, dir, 8)
	defer s3.Close()
	if len(again) != owners {
		t.Fatalf("third open recovered %d owners", len(again))
	}
	for owner, st := range again {
		if st.Clock != 2 || !st.Budget.Equal(got[owner].Budget) {
			t.Fatalf("%s diverged on re-recovery", owner)
		}
	}
}

// TestDuplicateEntriesSkipped crafts the crash-mid-compaction shape by
// hand: a snapshot covering ticks 1-2 next to a segment holding ticks 1-4.
// Replay must skip the covered prefix — apply each tick exactly once — or
// the ledger double-spends.
func TestDuplicateEntriesSkipped(t *testing.T) {
	dir := t.TempDir()
	st := &OwnerState{Owner: "o", Budget: dp.NewBudget()}
	for tick := uint64(1); tick <= 2; tick++ {
		if err := st.Apply(testEntry("o", tick, tick == 1, "p").Batch); err != nil {
			t.Fatal(err)
		}
	}
	img, err := encodeSnapshot(nil, []OwnerState{*st})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, 0), img, 0o644); err != nil {
		t.Fatal(err)
	}
	seg := segmentHeader()
	for tick := uint64(1); tick <= 4; tick++ {
		frame, err := encodeEntryFrame(testEntry("o", tick, tick == 1, "p"))
		if err != nil {
			t.Fatal(err)
		}
		seg = append(seg, frame...)
	}
	if err := os.WriteFile(segmentPath(dir, 0), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	s, got := openStore(t, dir, 1)
	defer s.Close()
	o := got["o"]
	if o == nil || o.Clock != 4 || len(o.Events) != 4 {
		t.Fatalf("recovered: %+v", o)
	}
	if uses := o.Budget.Uses("m_update"); uses != 3 {
		t.Fatalf("double spend: m_update uses = %d, want 3 (%s)", uses, o.Budget.Describe())
	}
	info := s.Info()
	if info.SkippedEntries != 2 || info.Entries != 2 {
		t.Fatalf("recovery info = %+v", info)
	}
}

func TestTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 1)
	appendWait(t, s, 0, testEntry("o", 1, true, "a"))
	appendWait(t, s, 0, testEntry("o", 2, false, "b"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-frame: drop the last 3 bytes.
	path := segmentPath(dir, 0)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, got := openStore(t, dir, 1)
	defer s2.Close()
	o := got["o"]
	if o == nil || o.Clock != 1 || len(o.Events) != 1 {
		t.Fatalf("prefix not recovered: %+v", o)
	}
	if info := s2.Info(); info.TornTails != 1 {
		t.Fatalf("recovery info = %+v", info)
	}
}

func TestCorruptFrameStopsAtPrefix(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 1)
	appendWait(t, s, 0, testEntry("o", 1, true, "aaaa"))
	appendWait(t, s, 0, testEntry("o", 2, false, "bbbb"))
	appendWait(t, s, 0, testEntry("o", 3, false, "cccc"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the second frame.
	path := segmentPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame1, err := encodeEntryFrame(testEntry("o", 1, true, "aaaa"))
	if err != nil {
		t.Fatal(err)
	}
	pos := 5 + len(frame1) + 12 // into the second frame's payload
	data[pos] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, got := openStore(t, dir, 1)
	defer s2.Close()
	o := got["o"]
	if o == nil || o.Clock != 1 {
		t.Fatalf("prefix not recovered: %+v", o)
	}
	if info := s2.Info(); info.CorruptSegments != 1 {
		t.Fatalf("recovery info = %+v", info)
	}
}

func TestGapStopsReplay(t *testing.T) {
	dir := t.TempDir()
	seg := segmentHeader()
	for _, tick := range []uint64{1, 2, 4} {
		frame, err := encodeEntryFrame(testEntry("o", tick, tick == 1, "p"))
		if err != nil {
			t.Fatal(err)
		}
		seg = append(seg, frame...)
	}
	if err := os.WriteFile(segmentPath(dir, 0), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, got := openStore(t, dir, 1)
	defer s.Close()
	o := got["o"]
	if o == nil || o.Clock != 2 {
		t.Fatalf("gap not respected: %+v", o)
	}
	if info := s.Info(); info.GapOwners != 1 {
		t.Fatalf("recovery info = %+v", info)
	}
}

// TestKillDropsUncommittedOnly pins the crash-simulation contract: after
// Kill, reopening recovers a contiguous prefix containing at least every
// acknowledged entry.
func TestKillDropsUncommittedOnly(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 1)
	// Acknowledged entries: durable.
	appendWait(t, s, 0, testEntry("o", 1, true, "a"))
	appendWait(t, s, 0, testEntry("o", 2, false, "b"))
	// In-flight entries at kill time: either committed or reported closed,
	// never half-applied.
	results := make(chan error, 2)
	for tick := uint64(3); tick <= 4; tick++ {
		if err := s.Append(0, testEntry("o", tick, false, "x"), func(err error) { results <- err }); err != nil {
			results <- err
		}
	}
	s.Kill()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil && !errors.Is(err, ErrStoreClosed) {
			t.Fatalf("in-flight append: %v", err)
		}
	}
	if err := s.Append(0, testEntry("o", 5, false, "y"), func(error) {}); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("append after kill: %v", err)
	}

	s2, got := openStore(t, dir, 1)
	defer s2.Close()
	o := got["o"]
	if o == nil || o.Clock < 2 || o.Clock > 4 {
		t.Fatalf("recovered: %+v", o)
	}
	if len(o.Events) != int(o.Clock) {
		t.Fatalf("events %d vs clock %d", len(o.Events), o.Clock)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	a := OwnerState{Owner: "a", Budget: dp.NewBudget()}
	b := OwnerState{Owner: "b", Budget: dp.NewBudget()}
	for _, st := range []*OwnerState{&a, &b} {
		if err := st.Apply(testEntry(st.Owner, 1, true, "x").Batch); err != nil {
			t.Fatal(err)
		}
	}
	img1, err := encodeSnapshot(nil, []OwnerState{a, b})
	if err != nil {
		t.Fatal(err)
	}
	img2, err := encodeSnapshot(nil, []OwnerState{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img1, img2) {
		t.Fatal("snapshot encoding depends on owner order")
	}
	back, err := decodeSnapshot(img1)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Owner != "a" || back[1].Owner != "b" {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestCompactionRemovesStaleFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 4)
	appendWait(t, s, ShardFor("o", 4), testEntry("o", 1, true, "a"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openStore(t, dir, 2)
	defer s2.Close()
	names, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		base := filepath.Base(n)
		if base > "shard-0001.wal" && base != "shard-0001.snap" && base != "shard-0000.snap" {
			t.Fatalf("stale file survived compaction: %s", base)
		}
	}
	// Exactly 2 fresh segments must exist.
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments after reshard: %v", segs)
	}
}

func TestGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, 1)
	defer s.Close()
	const n = 512
	done := make(chan error, n)
	// One producer firing appends without waiting: the writer must absorb
	// them in batches (commits < appends) while completing every one.
	for i := 0; i < n; i++ {
		if err := s.Append(0, testEntry("o", uint64(i+1), i == 0, "payload"), func(err error) { done <- err }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.Appends != n {
		t.Fatalf("appends = %d", m.Appends)
	}
	if m.Commits >= n {
		t.Fatalf("no group commit happened: %d commits for %d appends", m.Commits, m.Appends)
	}
	if m.AvgAppendUs() <= 0 {
		t.Fatalf("append latency not measured: %+v", m)
	}
}

// TestApplyRefusedChargeChangesNothing pins Apply as all-or-nothing: a batch
// whose charge the ledger refuses (its ε drifted from the ledger's entry of
// the same name) leaves clock, transcript, tail and ledger exactly as they
// were — not a clock counting a tick that is in neither ledger nor tail.
func TestApplyRefusedChargeChangesNothing(t *testing.T) {
	st := &OwnerState{Owner: "o", Budget: dp.NewBudget()}
	for tick := uint64(1); tick <= 3; tick++ {
		if err := st.Apply(testEntry("o", tick, tick == 1, "p").Batch); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Clone()
	bad := testEntry("o", 4, false, "q").Batch
	bad.Charge.Eps *= 2
	if err := st.Apply(bad); err == nil {
		t.Fatal("a charge whose epsilon drifted was applied")
	}
	if st.Clock != before.Clock || !reflect.DeepEqual(st.Events, before.Events) ||
		!reflect.DeepEqual(st.Tail, before.Tail) || st.Budget.Describe() != before.Budget.Describe() {
		t.Fatalf("refused batch mutated the state:\n got: clock %d events %v tail %d ledger %q\nwant: clock %d events %v tail %d ledger %q",
			st.Clock, st.Events, len(st.Tail), st.Budget.Describe(),
			before.Clock, before.Events, len(before.Tail), before.Budget.Describe())
	}
	// The refusal is not sticky: the tick it failed to claim still applies.
	if err := st.Apply(testEntry("o", 4, false, "q").Batch); err != nil || st.Clock != 4 {
		t.Fatalf("state unusable after a refused batch: clock %d, err %v", st.Clock, err)
	}
}
