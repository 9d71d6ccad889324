package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dpsync/internal/dp"
	"dpsync/internal/leakage"
)

// The store rungs of the layer ladder (ROADMAP item 1, Phase A):
//
//	go test -run '^$' -bench . -benchmem ./internal/store
//	go test -run '^$' -bench DurableSteadyState -benchtime 30000x ./internal/store
//	go test -run '^$' -bench Spill -benchtime 20000x ./internal/store
//
// Allocation counts and the reported byte ratios are deterministic; the
// nanoseconds are the sandbox's.

// benchShard builds a shard's worth of tenants at a benchmark shape: n
// tenants, the i-th with tail(i) inline batches of 8 × 45-byte ciphertexts,
// events transcript events each, and (when spilled) one segment ref covering
// the history before the tail.
func benchShard(n int, tail func(i int) int, events int, spilled bool) []OwnerState {
	out := make([]OwnerState, n)
	ct := bytes.Repeat([]byte{0xC7}, 45)
	for i := range out {
		st := OwnerState{Owner: fmt.Sprintf("owner-%04d", i), Budget: dp.NewBudget()}
		tick := uint64(1)
		if spilled {
			st.Spilled = []SegmentRef{{Seg: 1, Off: 5, Len: 4096, CRC: 1, FirstTick: 1, Count: 29}}
			tick = 30
		}
		for j, m := 0, tail(i); j < m; j++ {
			bt := Batch{Tick: tick, Setup: tick == 1, Charge: Charge{Name: "m_update", Eps: 0.001, Rule: dp.Sequential}}
			for k := 0; k < 8; k++ {
				bt.Sealed = append(bt.Sealed, ct)
			}
			_ = st.Budget.Charge(bt.Charge.Name, bt.Charge.Eps, bt.Charge.Rule)
			st.Tail = append(st.Tail, bt)
			tick++
		}
		st.Clock = tick - 1
		st.Events = make([]leakage.Event, events)
		out[i] = st
	}
	return out
}

// syncDurableShard is one shard of the sync-durable workload late in a
// repetition: 500 owners, tails between the window and twice it (16 and 31
// batches), 60 events each. windowlessShard is replica-read's: 60 owners with
// their whole 80-batch history inline.
func syncDurableShard() []OwnerState {
	return benchShard(500, func(i int) int { return 16 + 15*(i%2) }, 60, true)
}

func windowlessShard() []OwnerState {
	return benchShard(60, func(int) int { return 80 }, 80, false)
}

// BenchmarkRotate is one rotation — encode the image, write it tmp+rename,
// truncate the segment — at the two shapes the repository benchmark produces.
// image_B is the image written each time; B/op is what producing it allocated.
func BenchmarkRotate(b *testing.B) {
	for _, shape := range []struct {
		name   string
		owners []OwnerState
	}{
		{"sync-durable", syncDurableShard()},
		{"window-0", windowlessShard()},
	} {
		b.Run(shape.name, func(b *testing.B) {
			s, _, err := Open(Options{Dir: b.TempDir(), Shards: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// One rotation outside the clock: steady state is what repeats.
			if err := s.Rotate(0, shape.owners); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Rotate(0, shape.owners); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(s.RotationStatuses()[0].ImageBytes), "image_B")
		})
	}
}

// BenchmarkEncodeEntryFrame is the per-entry encode every WAL append, spilled
// batch and replication ship pays: an 8 × 45-byte sync.
func BenchmarkEncodeEntryFrame(b *testing.B) {
	e := Entry{Owner: "owner-0001", Batch: syncDurableShard()[1].Tail[0]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeEntryFrame(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableSteadyState is the durable path as its callers drive it,
// at the sync-durable shape: 500 owners round-robin, 8 × 45-byte syncs, window
// 16, append → apply → enforce the window → rotate when the store says so.
// snapshot_B/wal_B is the checkpoint write amplification the rotation policy
// is there to bound; it needs tens of thousands of iterations to mean anything.
func BenchmarkDurableSteadyState(b *testing.B) {
	const owners, window = 500, 16
	s, _, err := Open(Options{Dir: b.TempDir(), Shards: 1, HistoryWindow: window})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	states := make([]*OwnerState, owners)
	for i := range states {
		states[i] = &OwnerState{Owner: fmt.Sprintf("owner-%04d", i), Budget: dp.NewBudget()}
	}
	sealed := syncDurableShard()[0].Tail[0].Sealed
	var inflight sync.WaitGroup
	done := func(err error) {
		if err != nil {
			b.Error(err)
		}
		inflight.Done()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := states[i%owners]
		e := Entry{Owner: st.Owner, Batch: Batch{
			Tick: st.Clock + 1, Setup: st.Clock == 0, Sealed: sealed,
			Charge: Charge{Name: "m_update", Eps: 0.001, Rule: dp.Sequential},
		}}
		inflight.Add(1)
		if err := s.Append(0, e, done); err != nil {
			b.Fatal(err)
		}
		if err := st.Apply(e.Batch); err != nil {
			b.Fatal(err)
		}
		if err := s.EnforceWindow(0, st, window); err != nil {
			b.Fatal(err)
		}
		if s.RotateDue(0) {
			inflight.Wait()
			image := make([]OwnerState, 0, owners)
			for _, st := range states {
				if st.Clock > 0 {
					image = append(image, *st)
				}
			}
			if err := s.Rotate(0, image); err != nil {
				b.Fatal(err)
			}
		}
	}
	inflight.Wait()
	b.StopTimer()
	m := s.Metrics()
	b.ReportMetric(float64(m.Snapshots), "rotations")
	b.ReportMetric(float64(m.SnapshotBytes)/float64(m.Bytes), "snapshot_B/wal_B")
}

// BenchmarkSpill is one EnforceWindow-sized spill — 16 batches of 8 × 45-byte
// ciphertexts, one owner's run — as the live path hands it over, each batch
// carrying the frame its WAL append encoded (the spill wraps it), and as a
// hand-built batch arrives (the spill encodes it, which every spill did before
// frames were carried). us/batch divides by the 16. Every iteration appends
// 7 KB to the history segment, so run it at a fixed count (-benchtime 20000x):
// left to pick its own, the faster case runs until page-cache writeback is
// what the clock measures.
func BenchmarkSpill(b *testing.B) {
	for _, mode := range []struct {
		name  string
		carry bool
	}{{"carried", true}, {"encoded", false}} {
		b.Run(mode.name, func(b *testing.B) {
			s, _, err := Open(Options{Dir: b.TempDir(), Shards: 1, HistoryWindow: 16})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			batches := carriedTail(b, mode.carry)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Spill(0, "owner-0001", nil, batches); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e3/float64(len(batches)), "us/batch")
		})
	}
}
