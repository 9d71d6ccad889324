package loadgen

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"

	"dpsync/internal/dp"
	"dpsync/internal/leakage"
	"dpsync/internal/telemetry"
)

func TestRunSmallLoad(t *testing.T) {
	rep, err := Run(Config{Owners: 9, Ticks: 40, Seed: 1, Verify: true})
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

// TestRunValidation pins that every combination Run cannot honour is refused
// with a one-line error naming the flags involved, before the first socket
// and the first directory: the external address is a listener of the test's
// that must never be dialed, and TMPDIR is a directory that must stay empty.
func TestRunValidation(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	dialed := make(chan struct{}, 64)
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			c.Close()
			dialed <- struct{}{}
		}
	}()
	ext, key := lis.Addr().String(), make([]byte, 32)
	lg := telemetry.Discard()

	for _, tc := range []struct {
		cfg   Config
		names []string // what the error must mention
	}{
		{Config{Owners: 0, Ticks: 10}, []string{"-owners"}},
		{Config{Owners: 1, Ticks: 0}, []string{"-ticks"}},
		{Config{Owners: 1, Ticks: 1, Addr: ext}, []string{"-addr", "-key-file"}},
		{Config{Owners: 1, Ticks: 1, Addr: ext, Key: key, Durable: true}, []string{"-addr", "-durable"}},
		{Config{Owners: 1, Ticks: 9, Addr: ext, Key: key, Kill: true}, []string{"-addr", "-crash"}},
		{Config{Owners: 1, Ticks: 9, Addr: ext, Key: key, Cluster: true, Kill: true}, []string{"-addr", "-failover"}},
		{Config{Owners: 1, Ticks: 1, Addr: ext, Key: key, Cluster: true}, []string{"-addr", "-read-replica"}},
		{Config{Owners: 1, Ticks: 1, Addr: ext, Key: key, MetricsOut: tmp + "/m"}, []string{"-addr", "-metrics-out"}},
		{Config{Owners: 1, Ticks: 1, Addr: ext, Key: key, TraceOut: tmp + "/t"}, []string{"-addr", "-trace-out"}},
		{Config{Owners: 1, Ticks: 1, Addr: ext, Key: key, Logger: lg}, []string{"-addr", "-log-level"}},
		{Config{Owners: 1, Ticks: 1, ReplicaAddr: ext, QueryMix: 1}, []string{"-replica-addr", "-addr"}},
		{Config{Owners: 1, Ticks: 1, Addr: ext, Key: key, ReplicaAddr: ext}, []string{"-replica-addr", "-query-mix"}},
		{Config{Owners: 1, Ticks: 1, Addr: ext, Key: key, ReplicaAddr: ext, QueryMix: 1, Verify: true}, []string{"-replica-addr", "-verify"}},
		{Config{Owners: 1, Ticks: 1, Durable: true, Cluster: true}, []string{"-durable", "-read-replica"}},
		{Config{Owners: 1, Ticks: 1, StoreDir: tmp}, []string{"-store", "-durable"}},
		{Config{Owners: 1, Ticks: 9, StoreDir: tmp, Durable: true, Kill: true}, []string{"-store", "-crash"}},
		{Config{Owners: 1, Ticks: 1, HistoryWindow: 8}, []string{"-history-window", "-durable"}},
		{Config{Owners: 1, Ticks: 1, Durable: true, HistoryWindow: -1}, []string{"-history-window"}},
		{Config{Owners: 1, Ticks: 5, Kill: true}, []string{"-crash", "-ticks"}},
		{Config{Owners: 1, Ticks: 9, Kill: true, MetricsOut: tmp + "/m"}, []string{"-metrics-out", "-crash"}},
		{Config{Owners: 1, Ticks: 9, Cluster: true, Kill: true, TraceOut: tmp + "/t"}, []string{"-trace-out", "-failover"}},
		{Config{Owners: 1, Ticks: 1, Cluster: true, MetricsOut: tmp + "/m"}, []string{"-metrics-out", "-read-replica"}},
		{Config{Owners: 1, Ticks: 1, Cluster: true, TraceOut: tmp + "/t"}, []string{"-trace-out", "-read-replica"}},
		{Config{Owners: 1, Ticks: 1, TraceSample: 4}, []string{"-trace-sample", "-trace-out"}},
		{Config{Owners: 1, Ticks: 1, QueryMix: -1}, []string{"-query-mix"}},
	} {
		_, err := Run(tc.cfg)
		if err == nil {
			t.Errorf("%+v accepted", tc.cfg)
			continue
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("%+v: error is not one line: %q", tc.cfg, err)
		}
		for _, name := range tc.names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%+v: error %q does not name %s", tc.cfg, err, name)
			}
		}
	}
	select {
	case <-dialed:
		t.Error("a refused configuration reached the external address")
	default:
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("refused configurations left %d entries in TMPDIR (%v)", len(left), err)
	}
}

func TestRunDurable(t *testing.T) {
	rep, err := Run(Config{Owners: 8, Ticks: 25, Seed: 3, Verify: true, Durable: true})
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

// TestRunHostileFleet pins the hostile fleet end to end at the CI smoke's
// shape and the default churn interval and arrival rate: churn + injected
// faults + open-loop arrivals, with verification still demanding exact
// per-owner transcripts and ledgers, and the fleet's report keys populated.
func TestRunHostileFleet(t *testing.T) {
	rep, err := Run(Config{
		Owners: 16, Ticks: 50, Seed: 1, Verify: true,
		Churn: true, Faults: true, OpenLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified != 16 {
		t.Errorf("verified = %d, want 16", rep.Verified)
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
	ticksSeen := map[int]bool{}
	for _, seed := range []uint64{7, 19, 40} {
		rep, err := Run(Config{Owners: 6, Ticks: 24, Seed: seed, Kill: true, Verify: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.RecoveredOwners != 6 || rep.Verified != 6 {
			t.Errorf("seed %d: recovered %d owners, verified %d", seed, rep.RecoveredOwners, rep.Verified)
		}
		if rep.KillTick < 1 || rep.KillTick >= 24 {
			t.Errorf("seed %d: kill tick %d out of range", seed, rep.KillTick)
		}
		if rep.RecoveryMs <= 0 {
			t.Errorf("seed %d: recovery not measured", seed)
		}
		ticksSeen[rep.KillTick] = true
	}
	if len(ticksSeen) < 2 {
		t.Errorf("kill ticks not spread across seeds: %v", ticksSeen)
	}
}

// TestRunFailoverSeeds drives the two-node failover end to end: each seed
// kills the primary mid-trace, requires the follower to promote and the
// clients to heal through it, and verifies continuity (Run errors on any
// transcript or ledger divergence from the reference).
func TestRunFailoverSeeds(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		rep, err := Run(Config{Owners: 4, Ticks: 18, Seed: seed, Cluster: true, Kill: true, Verify: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Verified != 4 {
			t.Errorf("seed %d: verified %d owners", seed, rep.Verified)
		}
		if rep.KillTick < 1 || rep.KillTick > 15 {
			t.Errorf("seed %d: kill tick %d out of range", seed, rep.KillTick)
		}
		if rep.FailoverMs <= 0 {
			t.Errorf("seed %d: failover window not measured", seed)
		}
		if rep.ReplicaApplied == 0 {
			t.Errorf("seed %d: follower applied nothing before the kill", seed)
		}
	}
}

// TestRunReplicaServesResidentOwners pins the follower's read path under
// load: however many syncs advance an owner between its reads, the follower
// answers from the tenant it keeps resident from the owner's first replicated
// entry — its answer cache serves repeats — and the run still verifies.
func TestRunReplicaServesResidentOwners(t *testing.T) {
	rep, err := Run(Config{Owners: 16, Ticks: 30, Seed: 1, Cluster: true, QueryMix: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplicaServed == 0 || rep.PlaneQueries < rep.ReplicaServed || rep.PlaneCacheHits == 0 {
		t.Fatalf("follower counted %d reads (%d cache hits) for %d follower-served queries",
			rep.PlaneQueries, rep.PlaneCacheHits, rep.ReplicaServed)
	}
}

// TestRunCombinations covers what one Run made legal: the flags -crash,
// -failover and -read-replica used to drop silently now shape the same fleet,
// and the run is still held to the reference.
func TestRunCombinations(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg   Config
		check func(*testing.T, Report)
	}{
		"read-replica with a history window": {
			Config{Owners: 6, Ticks: 50, Seed: 2, Cluster: true, QueryMix: 4, HistoryWindow: 8},
			func(t *testing.T, rep Report) {
				if rep.SpillBatches == 0 || rep.ReplicaServed == 0 {
					t.Errorf("spilled %d batches, follower served %d queries", rep.SpillBatches, rep.ReplicaServed)
				}
			},
		},
		"crash under churn and faults, open loop": {
			Config{Owners: 8, Ticks: 30, Seed: 5, Kill: true, Churn: true, Faults: true, OpenLoop: true},
			func(t *testing.T, rep Report) {
				if rep.FaultsInjected == 0 || rep.OpenLoopP99Ms <= 0 || rep.RecoveredOwners != 8 {
					t.Errorf("faults=%d open-loop p99=%v recovered=%d", rep.FaultsInjected, rep.OpenLoopP99Ms, rep.RecoveredOwners)
				}
			},
		},
		"crash with a query mix": {
			Config{Owners: 6, Ticks: 20, Seed: 9, Kill: true, QueryMix: 2},
			func(t *testing.T, rep Report) {
				if want := int64(6 * 20 * 2); rep.Queries != want || rep.QcacheHitRatio <= 0 {
					t.Errorf("queries = %d (want %d), hit ratio %v", rep.Queries, want, rep.QcacheHitRatio)
				}
			},
		},
		"failover under faults with a query mix": {
			Config{Owners: 4, Ticks: 18, Seed: 4, Cluster: true, Kill: true, Faults: true, QueryMix: 1},
			func(t *testing.T, rep Report) {
				if rep.Queries != 4*18 || rep.FailoverMs <= 0 || rep.PromoteMs <= 0 {
					t.Errorf("queries=%d failover=%vms promote=%vms", rep.Queries, rep.FailoverMs, rep.PromoteMs)
				}
			},
		},
		"durable with traces and metrics": {
			Config{Owners: 4, Ticks: 12, Seed: 6, Durable: true, TraceSample: 1,
				MetricsOut: t.TempDir() + "/varz.json", TraceOut: t.TempDir() + "/tracez.json"},
			func(t *testing.T, rep Report) {
				if rep.RecoveredOwners != 4 {
					t.Errorf("recovered %d owners", rep.RecoveredOwners)
				}
			},
		},
	} {
		t.Run(name, func(t *testing.T) {
			tc.cfg.Verify = true
			rep, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verified != tc.cfg.Owners {
				t.Errorf("verified %d of %d owners", rep.Verified, tc.cfg.Owners)
			}
			tc.check(t, rep)
			for _, path := range []string{tc.cfg.MetricsOut, tc.cfg.TraceOut} {
				if path == "" {
					continue
				}
				if st, err := os.Stat(path); err != nil || st.Size() == 0 {
					t.Errorf("%s not written: %v", path, err)
				}
			}
		})
	}
}

// honest builds the observation a correct server would hold for a reference
// pattern: the same events and one charge per event.
func honest(t *testing.T, ref leakage.Pattern, eps float64) observation {
	t.Helper()
	got := observation{
		pattern: leakage.Pattern{Events: append([]leakage.Event(nil), ref.Events...)},
		ledger:  dp.NewBudget(),
	}
	for i := range ref.Events {
		name := "m_update"
		if i == 0 {
			name = "m_setup"
		}
		if err := got.ledger.Charge(name, eps, dp.Sequential); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestCheckFailsWhenItShould doctors a correct observation of a real seeded
// reference in every way the contract forbids; each must be refused with an
// error naming the owner and the event, and the untouched one must pass. A
// doctoring marked shared is applied to the reference's pattern too — a
// strategy that leaks more than its mechanism, which refdb, driven by the
// same strategy, shares — and the mechanism alone must refuse it.
func TestCheckFailsWhenItShould(t *testing.T) {
	const eps = syncEpsilon
	wants, err := reference(Config{Owners: 3, Ticks: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range wants {
		if err := check(ownerName(i), w, honest(t, w.ref, eps), eps); err != nil {
			t.Fatalf("untouched observation refused: %v", err)
		}
	}
	// Owner 0 is SUR: one event per arrival, plenty of them. Two neighbouring
	// events of different volume give the swap something to show.
	ref := wants[0].ref
	n := len(ref.Events)
	if n < 10 {
		t.Fatalf("reference has only %d events", n)
	}
	swap := 1 // equal volumes still swap their ticks
	for i := 1; i+1 < n; i++ {
		if ref.Events[i].Volume != ref.Events[i+1].Volume {
			swap = i
			break
		}
	}
	charge := func(o *observation, name string, e float64) {
		if err := o.ledger.Charge(name, e, dp.Sequential); err != nil {
			t.Fatal(err)
		}
	}
	for name, tc := range map[string]struct {
		doctor func(o *observation)
		event  int
		shared bool
	}{
		"one volume off by one": {func(o *observation) { o.pattern.Events[7].Volume++ }, 7, false},
		"an extra event": {func(o *observation) {
			o.pattern.Record(o.pattern.Events[n-1].Tick+1, 1, false)
			charge(o, "m_update", eps)
		}, n, false},
		"a missing event": {func(o *observation) {
			*o = honest(t, leakage.Pattern{Events: ref.Events[:n-1]}, eps)
		}, n - 1, false},
		"two events swapped": {func(o *observation) {
			ev := o.pattern.Events
			ev[swap], ev[swap+1] = ev[swap+1], ev[swap]
		}, swap, false},
		"an extra event the reference shares": {func(o *observation) {
			o.pattern.Record(o.pattern.Events[n-1].Tick+1, 1, false)
			charge(o, "m_update", eps)
		}, n, true},
		"a volume the reference shares": {func(o *observation) { o.pattern.Events[7].Volume++ }, 7, true},
		"a double m_update charge":      {func(o *observation) { charge(o, "m_update", eps) }, n, false},
		"a missing charge": {func(o *observation) {
			ledger := honest(t, leakage.Pattern{Events: ref.Events[:n-1]}, eps).ledger
			o.ledger = ledger
		}, n - 1, false},
		"a charge at the wrong ε": {func(o *observation) {
			o.ledger = dp.NewBudget()
			charge(o, "m_setup", eps)
			for i := 1; i < n; i++ {
				charge(o, "m_update", eps/2)
			}
		}, 1, false},
	} {
		got, want := honest(t, ref, eps), wants[0]
		tc.doctor(&got)
		if tc.shared {
			want.ref = honest(t, got.pattern, eps).pattern
		}
		err := check(ownerName(0), want, got, eps)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if want := fmt.Sprintf("%s event %d:", ownerName(0), tc.event); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", name, err, want)
		}
	}
}

// TestReferenceIsDeterministic pins the property that makes a
// barrier-quiesced concurrent drive comparable to the reference: what a refdb
// observes depends only on its owner's seed and tick sequence. The same
// seeded fleet driven serially, and concurrently with a barrier at a random
// tick, yields identical patterns.
func TestReferenceIsDeterministic(t *testing.T) {
	cfg := Config{Owners: 12, Ticks: 80, Seed: 21}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	serial, serialDBs, err := referenceFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range serial.owners {
		for tick := 0; tick <= cfg.Ticks; tick++ {
			if err := o.tick(tick); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 3; round++ {
		barrier := 1 + rng.Intn(cfg.Ticks-1)
		conc, concDBs, err := referenceFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := conc.drive(0, barrier); err != nil {
			t.Fatal(err)
		}
		if err := conc.drive(barrier+1, cfg.Ticks); err != nil {
			t.Fatal(err)
		}
		for i := range serialDBs {
			want, got := serialDBs[i].ObservedPattern(), concDBs[i].ObservedPattern()
			if want.Updates() == 0 || want.String() != got.String() {
				t.Fatalf("%s, barrier at %d:\n serial:     %s\n concurrent: %s", ownerName(i), barrier, want.String(), got.String())
			}
		}
	}
}

// TestChurnFollowsTheSeed: an owner drops its connection at ticks its seed
// draws, and each connection slot is dealt faults from its own schedule, so
// two runs at one seed — one owner a connection, so what each connection
// carries follows from the seed alone — heal the same number of reconnects
// and are dealt the same number of faults, torn and duplicated frames
// included.
func TestChurnFollowsTheSeed(t *testing.T) {
	cfg := Config{Owners: maxConns, Ticks: 120, Seed: 3, Churn: true, Faults: true, Verify: true}
	var runs [2]Report
	for i := range runs {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = rep
	}
	t.Logf("%d reconnects, %d faults", runs[0].Reconnects, runs[0].FaultsInjected)
	if runs[0].Reconnects == 0 || runs[0].FaultsInjected == 0 {
		t.Fatalf("%d reconnects, %d faults: the run exercises no churn", runs[0].Reconnects, runs[0].FaultsInjected)
	}
	if runs[0].Reconnects != runs[1].Reconnects || runs[0].FaultsInjected != runs[1].FaultsInjected {
		t.Errorf("one seed, two runs: %d and %d reconnects, %d and %d faults",
			runs[0].Reconnects, runs[1].Reconnects, runs[0].FaultsInjected, runs[1].FaultsInjected)
	}
}
