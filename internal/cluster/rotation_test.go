package cluster

import (
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"dpsync/internal/gateway"
	"dpsync/internal/store"
)

// TestWideWindowFollowerRotationAmortised pins the replica's rotation cost
// with a history window wider than the run, where nothing spills and every
// image rewrites the whole inline history. Rotating every snapEvery entries,
// as the follower once did, writes images of 1, 2, … 8 times snapEvery
// entries over this run: 4.5 times the log. Asking the store, the follower
// rotates when the log has doubled: under twice the log.
func TestWideWindowFollowerRotationAmortised(t *testing.T) {
	const snapEvery = 16
	r := newReplica(t, gateway.Config{HistoryWindow: 8 * snapEvery}, snapEvery)
	var first int64
	for tick := uint64(1); tick <= 8*snapEvery; tick++ {
		if err := r.ship("owner-0", tick, rigRecords(0, tick), rigEps); err != nil {
			t.Fatal(err)
		}
		r.settle("owner-0")
		if first == 0 {
			first = r.metrics().SnapshotBytes
		}
	}
	m := r.metrics()
	if m.SpillBatches != 0 {
		t.Fatalf("the wide window spilled %d batches: the images are not the whole history", m.SpillBatches)
	}
	if m.Snapshots < 3 || first == 0 {
		t.Fatalf("%d rotations over %d entries: the run does not exercise the cadence", m.Snapshots, 8*snapEvery)
	}
	if m.SnapshotBytes > 2*m.Bytes+first {
		t.Fatalf("%d rotations wrote %d image bytes against %d WAL bytes (first image %d): the cadence is not amortised",
			m.Snapshots, m.SnapshotBytes, m.Bytes, first)
	}
	t.Logf("%d rotations, %d image bytes, %d WAL bytes (%.2f×)", m.Snapshots, m.SnapshotBytes, m.Bytes, float64(m.SnapshotBytes)/float64(m.Bytes))
}

// metrics are the replica's store counters.
func (r *replica) metrics() store.Metrics {
	m, _ := r.gw.StoreMetrics()
	return m
}

// warnCounter is a slog handler that counts warnings.
type warnCounter struct{ n atomic.Int64 }

func (h *warnCounter) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelWarn }
func (h *warnCounter) Handle(context.Context, slog.Record) error    { h.n.Add(1); return nil }
func (h *warnCounter) WithAttrs([]slog.Attr) slog.Handler           { return h }
func (h *warnCounter) WithGroup(string) slog.Handler                { return h }

// TestFollowerFailedRotationWaitsForDoubledLog: a replica whose rotation
// fails (here the snapshot's temporary path is occupied, so the image cannot
// be written) does not try again until its log is twice as long as it was at
// the failure — not after a fixed half-interval, whatever the reason — and
// rotates as soon as it is due once the fault clears.
func TestFollowerFailedRotationWaitsForDoubledLog(t *testing.T) {
	const snapEvery = 8
	dir := t.TempDir()
	warns := &warnCounter{}
	r := newReplicaAt(t, dir, gateway.Config{}, snapEvery, slog.New(warns))
	// After the open: compaction sweeps *.tmp leftovers.
	blocker := filepath.Join(dir, "shard-0000.snap.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	var failedAt []int64 // log bytes at each failed attempt
	tick := uint64(0)
	for ; tick < 5*snapEvery; tick++ {
		if err := r.ship("owner-0", tick+1, rigRecords(0, tick+1), rigEps); err != nil {
			t.Fatal(err)
		}
		r.settle("owner-0")
		if int(warns.n.Load()) > len(failedAt) {
			failedAt = append(failedAt, r.gw.Store().RotationStatuses()[0].LogBytes)
		}
	}
	// Attempts at 8 entries, then at twice and four times that log: 8, 16, 32.
	if len(failedAt) != 3 {
		t.Fatalf("%d rotation attempts over %d entries (log bytes at each: %v), want 3", len(failedAt), tick, failedAt)
	}
	for i := 1; i < len(failedAt); i++ {
		if failedAt[i] < 2*failedAt[i-1] {
			t.Fatalf("attempt %d came at %d log bytes, the one before failed at %d: want at least double", i, failedAt[i], failedAt[i-1])
		}
	}
	if m := r.metrics(); m.Snapshots != 0 {
		t.Fatalf("%d rotations succeeded through an occupied temporary path", m.Snapshots)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	for r.metrics().Snapshots == 0 {
		tick++
		if tick > 20*snapEvery {
			t.Fatal("no rotation after the fault cleared")
		}
		if err := r.ship("owner-0", tick, rigRecords(0, tick), rigEps); err != nil {
			t.Fatal(err)
		}
		r.settle("owner-0")
	}
	if got := r.gw.Store().RotationStatuses()[0]; got.LogBytes != 0 || got.ImageBytes == 0 {
		t.Fatalf("status after the rotation that succeeded: %+v", got)
	}
}
