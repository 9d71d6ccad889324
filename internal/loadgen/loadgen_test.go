package loadgen

import (
	"testing"
	"time"
)

func TestRunSmallLoad(t *testing.T) {
	rep, err := Run(Config{Owners: 9, Ticks: 40, Conns: 2, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified != 9 {
		t.Errorf("verified = %d, want 9", rep.Verified)
	}
	// Every owner syncs at least once (setup), SUR owners far more.
	if rep.Syncs < 9 {
		t.Errorf("syncs = %d, want >= 9", rep.Syncs)
	}
	if rep.SyncsPerSec <= 0 {
		t.Errorf("syncs/sec = %v", rep.SyncsPerSec)
	}
	if rep.P99Ms < rep.P50Ms || rep.P50Ms <= 0 {
		t.Errorf("quantiles p50=%v p99=%v", rep.P50Ms, rep.P99Ms)
	}
	if rep.BytesPerSync <= 0 || rep.BytesOut <= 0 || rep.BytesIn <= 0 {
		t.Errorf("bytes: per-sync=%v out=%d in=%d", rep.BytesPerSync, rep.BytesOut, rep.BytesIn)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Owners: 0, Ticks: 10}); err == nil {
		t.Error("zero owners accepted")
	}
	if _, err := Run(Config{Owners: 1, Ticks: 1, Addr: "127.0.0.1:9", Key: nil}); err == nil {
		t.Error("external gateway without key accepted")
	}
	if _, err := Run(Config{Owners: 1, Ticks: 1, Addr: "127.0.0.1:9", Key: make([]byte, 32), Durable: true}); err == nil {
		t.Error("durable mode against an external gateway accepted")
	}
}

func TestRunDurable(t *testing.T) {
	rep, err := Run(Config{
		Owners: 8, Ticks: 25, Conns: 2, Seed: 3,
		Verify: true, Durable: true, SyncEpsilon: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Durable || rep.Verified != 8 {
		t.Errorf("durable=%v verified=%d", rep.Durable, rep.Verified)
	}
	if rep.WALAppendUs <= 0 || rep.WALGroupFactor < 1 {
		t.Errorf("WAL metrics: append_us=%v group=%v", rep.WALAppendUs, rep.WALGroupFactor)
	}
	if rep.RecoveryMs <= 0 || rep.RecoveredOwners != 8 {
		t.Errorf("recovery: %vms, %d owners", rep.RecoveryMs, rep.RecoveredOwners)
	}
	if rep.Syncs < 8 || rep.SyncsPerSec <= 0 {
		t.Errorf("throughput: %d syncs, %v/sec", rep.Syncs, rep.SyncsPerSec)
	}
}

// TestRunHostileFleet pins the hostile-fleet harness end to end: churn +
// injected faults + open-loop arrivals, with transcript verification still
// demanding exact per-owner transcripts, and the new report keys populated.
func TestRunHostileFleet(t *testing.T) {
	rep, err := Run(Config{
		Owners: 8, Ticks: 25, Conns: 2, Seed: 11, Verify: true,
		Churn: true, ChurnInterval: 5 * time.Millisecond,
		Faults: true, FaultBudget: 6,
		OpenLoop: true, MeanArrival: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified != 8 {
		t.Errorf("verified = %d, want 8", rep.Verified)
	}
	if rep.Reconnects == 0 {
		t.Errorf("no reconnects under churn+faults")
	}
	if rep.ChurnResumeMs <= 0 {
		t.Errorf("churn_resume_ms = %v with %d reconnects", rep.ChurnResumeMs, rep.Reconnects)
	}
	if rep.OpenLoopP99Ms <= 0 {
		t.Errorf("open_loop_p99_ms = %v", rep.OpenLoopP99Ms)
	}
	if rep.FaultsInjected == 0 {
		t.Errorf("fault injector delivered nothing")
	}
}

// TestRunCrashSeeds is the crash-injection coverage the durability
// subsystem is accepted on: ≥3 seeds, each killing the gateway at a
// different tick and verifying transcript + ledger continuity end to end.
func TestRunCrashSeeds(t *testing.T) {
	rep, err := RunCrash(CrashConfig{
		Owners: 6, Ticks: 24, Seeds: []uint64{7, 19, 40}, SyncEpsilon: 0.5, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	ticksSeen := map[int]bool{}
	for _, run := range rep.Runs {
		if run.RecoveredOwners != 6 {
			t.Errorf("seed %d: recovered %d owners", run.Seed, run.RecoveredOwners)
		}
		if run.CrashTick < 1 || run.CrashTick >= 24 {
			t.Errorf("seed %d: crash tick %d out of range", run.Seed, run.CrashTick)
		}
		if run.RecoveryMs <= 0 {
			t.Errorf("seed %d: recovery not measured", run.Seed)
		}
		ticksSeen[run.CrashTick] = true
	}
	if len(ticksSeen) < 2 {
		t.Errorf("crash ticks not spread across seeds: %v", ticksSeen)
	}
}

// TestRunFailoverSeeds drives the two-node failover harness end to end:
// each seed kills the primary mid-trace, requires the follower to promote
// and the clients to heal through it, and verifies continuity (RunFailover
// errors on any transcript or ledger divergence).
func TestRunFailoverSeeds(t *testing.T) {
	rep, err := RunFailover(FailoverConfig{
		Owners: 4, Ticks: 18, Seeds: []uint64{3, 11}, SyncEpsilon: 0.5, Shards: 2,
		LeaseTTL: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	for _, run := range rep.Runs {
		if run.KillTick < 1 || run.KillTick > 15 {
			t.Errorf("seed %d: kill tick %d out of range", run.Seed, run.KillTick)
		}
		if run.FailoverMs <= 0 {
			t.Errorf("seed %d: failover window not measured", run.Seed)
		}
		if run.ReplicaApplied == 0 {
			t.Errorf("seed %d: follower applied nothing before the kill", run.Seed)
		}
	}
}

// TestRunReplicaRebuildsOncePerOwner pins the follower's read path under
// load: however many syncs advance an owner between its reads, the follower
// never materializes it from history — every owner is resident from its first
// replicated entry, so a rebuild can only mean a failed ingest.
func TestRunReplicaRebuildsOncePerOwner(t *testing.T) {
	const owners = 16
	rep, err := RunReplica(ReplicaConfig{Owners: owners, Ticks: 30, SyncEpsilon: 0.5, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlaneRebuilds != 0 {
		t.Fatalf("replica_rebuilds = %d for %d owners over %d follower-served queries; a healthy replica rebuilds nothing",
			rep.PlaneRebuilds, owners, rep.ReplicaServed)
	}
	if rep.PlaneQueries < rep.ReplicaServed || rep.PlaneCacheHits == 0 {
		t.Fatalf("follower counted %d reads (%d cache hits) for %d follower-served queries",
			rep.PlaneQueries, rep.PlaneCacheHits, rep.ReplicaServed)
	}
}
