package gateway

import (
	"testing"

	"dpsync/internal/client"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/store"
)

// TestNextSnapThreshold pins the rotation-cadence rule: a finite history
// window makes snapshots O(delta) manifests, so the cadence stays at the
// configured interval (which also bounds WAL length and hence recovery
// RAM); without a window the snapshot rewrites the whole inline history,
// so the threshold grows geometrically with the committed entry count.
func TestNextSnapThreshold(t *testing.T) {
	cases := []struct {
		every, window, entries, want int
	}{
		{8, 0, 0, 8},
		{8, 0, 20, 8},
		{8, 0, 1000, 250}, // geometric growth in legacy mode
		{8, 4, 1000, 8},   // manifests: fixed cadence however old the store
		{8, 1, 40, 8},
		{1024, 64, 1 << 20, 1024},
	}
	for _, c := range cases {
		if got := nextSnapThreshold(c.every, c.window, c.entries); got != c.want {
			t.Errorf("nextSnapThreshold(%d, %d, %d) = %d, want %d", c.every, c.window, c.entries, got, c.want)
		}
	}
}

// TestCommittedEntriesUsesDurableClock pins the threshold-input fix: the
// shard's history size must come from the tenants' committed clocks, never
// from the in-RAM tail — once history splits between RAM and spill, the
// tail under-counts and tail+refs+history double-counts whatever the
// window moved.
func TestCommittedEntriesUsesDurableClock(t *testing.T) {
	sh := &shard{owners: map[string]*Tenant{
		// A mature spilled tenant: 100 committed entries, only 4 in RAM.
		"spilled": {OwnerState: &store.OwnerState{
			Clock:   100,
			Tail:    make([]store.Batch, 4),
			Spilled: []store.SegmentRef{{FirstTick: 1, Count: 96}},
		}},
		// A legacy tenant: everything inline.
		"inline": {OwnerState: &store.OwnerState{Clock: 50, Tail: make([]store.Batch, 50)}},
	}}
	if got := sh.committedEntries(); got != 150 {
		t.Fatalf("committedEntries = %d, want 150 (tail-based counting would give %d)", got, 4+50)
	}
}

// TestMatureStoreReopensWithDerivedThreshold covers the satellite fix end
// to end: a mature durable store (history split between spill segments and
// a short RAM tail) must reopen with a rotation threshold derived from the
// durable clock — the windowed store keeps its fixed cadence, and the same
// directory reopened without a window derives the geometric threshold from
// the full committed history, not from the few batches left inline.
func TestMatureStoreReopensWithDerivedThreshold(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const (
		window  = 4
		every   = 8
		updates = 99 // clock reaches 100 with setup
	)
	gw, err := New("127.0.0.1:0", Config{
		Key: key, Shards: 1, StoreDir: dir,
		SnapshotEvery: every, HistoryWindow: window, SyncEpsilon: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	own := conn.Owner("o")
	if err := own.Setup([]record.Record{{PickupTime: 0, PickupID: 1, Provider: record.YellowCab}}); err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= updates; u++ {
		if err := own.Update([]record.Record{{
			PickupTime: record.Tick(u), PickupID: uint16(u%record.NumLocations + 1), Provider: record.YellowCab,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}

	// Windowed reopen: fixed cadence, regardless of the 100-entry history.
	gw2, err := New("127.0.0.1:0", Config{
		Key: key, Shards: 1, StoreDir: dir,
		SnapshotEvery: every, HistoryWindow: window, SyncEpsilon: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := gw2.shards[0].snapThreshold; got != every {
		t.Fatalf("windowed reopen threshold = %d, want the fixed cadence %d", got, every)
	}
	tn := gw2.shards[0].owners["o"]
	if tn == nil || tn.Clock != updates+1 || len(tn.Tail) > window {
		t.Fatalf("recovered tenant shape wrong: %+v", tn)
	}
	// ~96 spilled batches must be covered by a handful of coalesced refs,
	// not one ref per batch (which would re-grow RAM O(total history)).
	if len(tn.Spilled) > 8 {
		t.Fatalf("recovered tenant holds %d segment refs for %d spilled batches — ref coalescing broken",
			len(tn.Spilled), int(tn.Clock)-len(tn.Tail))
	}
	if err := gw2.Close(); err != nil {
		t.Fatal(err)
	}

	// Windowless reopen of the same (spilled) directory: the geometric
	// threshold must come from the durable clock (100 entries → 25), not
	// from the handful of batches still inline (which would floor it back
	// to SnapshotEvery).
	gw3, err := New("127.0.0.1:0", Config{
		Key: key, Shards: 1, StoreDir: dir,
		SnapshotEvery: every, SyncEpsilon: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw3.Close()
	if got, want := gw3.shards[0].snapThreshold, (updates+1)/4; got != want {
		t.Fatalf("windowless reopen threshold = %d, want %d derived from the durable clock", got, want)
	}
}
