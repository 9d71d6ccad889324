package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// isSegmentName / isSnapshotName match the store's file naming from any
// shard count ("shard-0007.wal"), so recovery sees every era's files.
func isSegmentName(name string) bool {
	return strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".wal")
}

func isSnapshotName(name string) bool {
	return strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".snap")
}

// recovery bundles what recoverDir learned beyond the per-owner states:
// the public RecoveryInfo, which files were damaged (for quarantine), every
// history segment referenced by any decodable snapshot (so compaction GC
// can tell salvage-worthy segments from orphans), history segment sizes on
// disk (for cheap ref validation), and the highest segment number seen (so
// fresh spills never collide with an old id).
type recovery struct {
	info RecoveryInfo
	// corrupt names damaged WAL segments / snapshots by base name.
	corrupt map[string]bool
	// snapRefs holds every history segment id referenced by any snapshot
	// that decoded, winning candidate or not.
	snapRefs map[uint64]bool
	// corruptSnapshots counts snapshot files that failed to decode. Their
	// manifests are unreadable, so the refs they carried are unknown —
	// compaction GC must then quarantine rather than delete unreferenced
	// history segments, or it could destroy the only salvage copy of runs
	// the damaged manifest still names.
	corruptSnapshots int
	// salvage names snapshot files (by base name) that decoded but carried
	// at least one candidate recovery dropped for damaged history. The
	// fresh manifests supersede them with *less* state, so compaction must
	// quarantine them — their inline tails and SegmentRef offsets are
	// exactly what an operator needs to salvage the quarantined segments.
	salvage map[string]bool
	// histSizes maps history segment id → byte size on disk.
	histSizes map[uint64]int64
	// maxHistSeg is the highest history segment number present on disk.
	maxHistSeg uint64
}

// validRefs cheaply checks a snapshot candidate's manifest against the
// directory: every referenced segment must exist and be long enough to
// contain the ref's range. Deep validation (CRC, owner, tick chain) happens
// when the history is streamed; this check is what lets the merge fall back
// to an older snapshot instead of picking a candidate whose history is
// provably gone.
func (rec *recovery) validRefs(st *OwnerState) bool {
	for _, ref := range st.Spilled {
		size, ok := rec.histSizes[ref.Seg]
		if !ok || uint64(size) < ref.Off+uint64(ref.Len) {
			return false
		}
	}
	return true
}

// recoverDir reconstructs per-owner durable state from every snapshot and
// segment in dir.
//
// Merge rules, in order:
//
//  1. Snapshots: for an owner appearing in several snapshot files (possible
//     after a crash mid-compaction or a shard-count change), the version
//     with the highest clock *whose history manifest still checks out
//     against the directory* wins — tenant state only grows, so the larger
//     clock strictly supersedes the smaller, but a manifest pointing at a
//     missing or truncated history segment is unusable and loses to an
//     older intact candidate (counted in DamagedHistory).
//  2. Entries: per owner, sorted by tick, applied only while consecutive
//     from clock+1. A tick at or below the clock is a duplicate already
//     covered by a snapshot (or an earlier file) and is skipped — this is
//     what makes replay idempotent, so no charge enters the history twice
//     and the ledger derived from it never double-spends. A gap
//     ends that owner's replay: everything past a hole could reorder the
//     transcript, so recovery keeps the longest provably-contiguous prefix.
//
// Replayed WAL entries extend the owner's inline tail; the spilled tier is
// never loaded here — only its manifest travels, and Store.StreamHistory
// streams the runs when the caller rebuilds backends. No state gets a
// ledger: the caller derives it from the same stream.
func recoverDir(dir string) (map[string]*OwnerState, *recovery, error) {
	rec := &recovery{
		corrupt:   map[string]bool{},
		salvage:   map[string]bool{},
		snapRefs:  map[uint64]bool{},
		histSizes: map[uint64]int64{},
	}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	var segNames, snapNames []string
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		switch name := de.Name(); {
		case isSegmentName(name):
			segNames = append(segNames, name)
		case isSnapshotName(name):
			snapNames = append(snapNames, name)
		case isHistoryName(name):
			id, ok := historySegID(name)
			if !ok {
				continue
			}
			fi, err := de.Info()
			if err != nil {
				return nil, nil, fmt.Errorf("store: %w", err)
			}
			rec.histSizes[id] = fi.Size()
			if id > rec.maxHistSeg {
				rec.maxHistSeg = id
			}
		}
	}
	sort.Strings(segNames)
	sort.Strings(snapNames)

	states := make(map[string]*OwnerState)
	for _, name := range snapNames {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		owners, err := decodeSnapshot(data)
		if err != nil {
			// A damaged snapshot is skipped whole; its owners' state may
			// still be covered by other files (compaction crash windows) or
			// is lost to corruption — either way, loading half a snapshot
			// would be worse.
			rec.info.CorruptSegments++
			rec.corruptSnapshots++
			rec.corrupt[name] = true
			continue
		}
		rec.info.Snapshots++
		for i := range owners {
			st := owners[i]
			for _, ref := range st.Spilled {
				rec.snapRefs[ref.Seg] = true
			}
			if prev, ok := states[st.Owner]; ok && prev.Clock >= st.Clock {
				continue
			}
			if !rec.validRefs(&st) {
				rec.info.DamagedHistory++
				rec.salvage[name] = true
				continue
			}
			states[st.Owner] = &st
		}
	}

	perOwner := make(map[string][]Batch)
	for _, name := range segNames {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		entries, err := decodeSegment(data)
		switch {
		case err == nil:
		case errors.Is(err, ErrTornTail):
			rec.info.TornTails++
		default:
			rec.info.CorruptSegments++
			rec.corrupt[name] = true
		}
		for _, e := range entries {
			perOwner[e.Owner] = append(perOwner[e.Owner], e.Batch)
		}
	}

	for owner, batches := range perOwner {
		st := states[owner]
		if st == nil {
			st = &OwnerState{Owner: owner}
			states[owner] = st
		}
		sort.SliceStable(batches, func(i, j int) bool { return batches[i].Tick < batches[j].Tick })
		for _, bt := range batches {
			switch {
			case bt.Tick <= st.Clock:
				rec.info.SkippedEntries++
			case bt.Tick == st.Clock+1:
				if err := st.Apply(bt); err != nil {
					return nil, nil, fmt.Errorf("store: replaying owner %q tick %d: %w", owner, bt.Tick, err)
				}
				rec.info.Entries++
			default:
				rec.info.GapOwners++
				// Conservative stop: the prefix up to the hole is provably
				// the committed history; past it, ordering is unknown.
				goto nextOwner
			}
		}
	nextOwner:
	}

	for _, st := range states {
		rec.info.SpilledRefs += len(st.Spilled)
	}
	rec.info.Owners = len(states)
	return states, rec, nil
}

// Apply folds one batch into the owner's state under the recovery merge
// rule's "next tick" case: the caller has already checked bt.Tick ==
// st.Clock+1 (ticks at or below the clock are duplicates to skip; anything
// further ahead is a gap). It makes the three commit-time mutations — ledger
// charge, clock, history tail — and it is the only code that does: the
// gateway's commit, recovery's WAL replay and a replication follower's fold
// all advance an owner through it, so their states cannot diverge. The
// owner's transcript is not among them: it is a projection of the history
// (one event per batch), which the gateway's tenant derives. A state without
// a ledger — recovery's, which no file holds — folds clock and tail only, and
// its ledger is derived from the history later. All or nothing: the charge is
// the one step that can refuse (Charge.Spend), so it goes first, and a
// refused batch leaves the state exactly as it was — never a clock that
// counts a tick which is in neither ledger nor tail.
func (st *OwnerState) Apply(bt Batch) error {
	if st.Budget != nil {
		if err := bt.Charge.Spend(st.Budget); err != nil {
			return err
		}
	}
	st.Clock = bt.Tick
	st.Tail = append(st.Tail, bt)
	return nil
}

// Clone returns a deep copy that is safe to read while the original keeps
// advancing: slices and the ledger are copied (spill coalescing widens the
// last SegmentRef in place, so refs are copied too); batches are immutable
// once committed and stay shared.
func (st *OwnerState) Clone() OwnerState {
	c := *st
	c.Spilled = append([]SegmentRef(nil), st.Spilled...)
	c.Tail = append([]Batch(nil), st.Tail...)
	if st.Budget != nil {
		c.Budget = st.Budget.Clone()
	}
	return c
}
