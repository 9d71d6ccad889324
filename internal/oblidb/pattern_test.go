package oblidb

import (
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"testing"

	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// patternStreams seals one update pattern twice — syncs syncs of 8 records,
// the providers drawn once and shared — as an all-real stream, with zones,
// fares and pickup times varied, and as an all-dummy one. The two differ only
// in what DP-Sync hides: the real/dummy split.
func patternStreams(tb testing.TB, s *seal.Sealer, syncs int) (real, dummy [][]seal.Sealed) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(42, 0x17c))
	real, dummy = make([][]seal.Sealed, syncs), make([][]seal.Sealed, syncs)
	for j := range syncs {
		rs, ds := make([]record.Record, 8), make([]record.Record, 8)
		for k := range rs {
			p := record.YellowCab
			if rng.IntN(3) == 0 {
				p = record.GreenTaxi
			}
			rs[k] = record.Record{
				PickupTime: record.Tick(j - rng.IntN(4)), // some out of order
				PickupID:   uint16(1 + rng.IntN(record.NumLocations)),
				Provider:   p,
				FareCents:  uint32(rng.IntN(record.MaxFareCents + 1)),
			}
			ds[k] = record.NewDummy(p)
		}
		var err error
		if real[j], err = s.SealBatch(rs); err != nil {
			tb.Fatal(err)
		}
		if dummy[j], err = s.SealBatch(ds); err != nil {
			tb.Fatal(err)
		}
	}
	return real, dummy
}

// ingestStream sets a fresh DB up with the stream's first sync and applies
// the rest as updates.
func ingestStream(tb testing.TB, s *seal.Sealer, stream [][]seal.Sealed) *DB {
	tb.Helper()
	db := NewWithSealer(s)
	if err := db.SetupSealed(stream[0]); err != nil {
		tb.Fatal(err)
	}
	for _, b := range stream[1:] {
		if err := db.UpdateSealed(b); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// retainedHeap is the live heap a DB that ingested stream holds after GC. The
// second collection frees what the first left in sync.Pool's victim cache.
func retainedHeap(tb testing.TB, s *seal.Sealer, stream [][]seal.Sealed) int64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := ingestStream(tb, s, stream)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestFootprintFollowsTheUpdatePattern holds the enclave's memory to what the
// server may learn. Two streams with the same owner, ticks and volumes — 4,000
// syncs of 8 records, one all real and one all dummy — must leave the same
// retained heap, within 4 KiB of collector noise, and a fresh DB's first
// ingest must allocate the same objects and bytes for either: a dummy costs
// what a real record costs, so the heap publishes the record count and not
// the real/dummy split. Both streams are ingested once before either is
// measured, so neither pays for what the process initialises on first use,
// and each side reads the least of three alternating measurements: whatever
// else the process allocates meanwhile only ever adds to one.
func TestFootprintFollowsTheUpdatePattern(t *testing.T) {
	s, err := seal.NewSealer(mustKey(t))
	if err != nil {
		t.Fatal(err)
	}
	real, dummy := patternStreams(t, s, 4000)
	ingestStream(t, s, real)
	ingestStream(t, s, dummy)

	hr, hd := int64(math.MaxInt64), int64(math.MaxInt64)
	for range 3 {
		hr = min(hr, retainedHeap(t, s, real))
		hd = min(hd, retainedHeap(t, s, dummy))
	}
	t.Logf("retained heap after 32,000 records: %d B all real, %d B all dummy", hr, hd)
	if d := hr - hd; d > 4096 || d < -4096 {
		t.Errorf("retained heap differs by %d B between all-real and all-dummy streams, want ≤ 4 KiB", d)
	}

	// A fresh DB's first ingest leaves its tables young, their records in the
	// small map, and allocates the same objects and bytes for either stream.
	// The ingest's scratch buffer comes from a sync.Pool, which hands out a
	// new one after a collection empties it, on a P whose pool is empty, and —
	// under the race detector — at random. So objects are counted on one P
	// with the collector off, and bytes are the least any of 100 runs
	// allocated: a refill only ever adds to a run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(stream [][]seal.Sealed) float64 {
		return testing.AllocsPerRun(50, func() {
			if err := NewWithSealer(s).SetupSealed(stream[0]); err != nil {
				t.Fatal(err)
			}
		})
	}
	if ar, ad := allocs(real), allocs(dummy); ar != ad {
		t.Errorf("a fresh DB's first ingest allocates %v objects all real and %v all dummy", ar, ad)
	}
	allocBytes := func(stream [][]seal.Sealed) uint64 {
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for range 100 {
			runtime.ReadMemStats(&before)
			if err := NewWithSealer(s).SetupSealed(stream[0]); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if br, bd := allocBytes(real), allocBytes(dummy); br != bd {
		t.Errorf("a fresh DB's first ingest allocates %d B all real and %d B all dummy", br, bd)
	}
}
