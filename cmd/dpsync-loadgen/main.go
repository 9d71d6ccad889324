// Command dpsync-loadgen drives N simulated data owners × T ticks against a
// multi-tenant DP-Sync gateway and reports serving-layer measurements: sync
// throughput, p50/p99 per-sync round-trip latency, and wire bytes per sync.
//
// With no -addr it starts an in-process gateway on a loopback port — the
// self-contained benchmark mode used by CI and the recorded baseline:
//
//	go run ./cmd/dpsync-loadgen -owners 1000 -ticks 100
//	go run ./cmd/dpsync-loadgen -owners 16 -ticks 50 -quick   # CI smoke
//
// Against a live gateway (started elsewhere with the same key file):
//
//	go run ./cmd/dpsync-loadgen -addr 127.0.0.1:7701 -key-file shared.key -owners 200 -ticks 100
//
// With -durable the in-process gateway runs on the internal/store
// durability subsystem (per-shard WAL + snapshots in a temp dir, or -store
// DIR): the run measures the durable hot path, then closes the gateway and
// reopens it from disk to measure recovery — verifying, with -verify or
// -quick, that every owner's recovered transcript is bit-identical:
//
//	go run ./cmd/dpsync-loadgen -owners 16 -ticks 50 -durable -quick   # CI durable smoke
//
// With -history-window N each tenant keeps only the most recent N committed
// batches in gateway RAM; older history spills to on-disk history segments,
// snapshots become manifests, and the recovery measurement streams the
// spilled tier back (the tiered-history mode production runs at):
//
//	go run ./cmd/dpsync-loadgen -owners 16 -ticks 50 -durable -history-window 8 -quick
//
// With -crash N the crash-injection harness runs N seeds: each kills the
// durable gateway at a seed-derived tick (no flush, no drain), restarts it
// from disk, finishes the trace, and fails unless transcripts and ε
// ledgers are continuous with an uninterrupted reference run
// (-history-window applies here too, exercising spill across the crash):
//
//	go run ./cmd/dpsync-loadgen -owners 8 -ticks 30 -crash 3
//
// With -failover N the two-node failover harness runs N seeds: each starts
// a replicated cluster (internal/cluster) — a primary with a lease and a
// follower tailing its WAL stream — kills the primary at a seed-derived
// tick, and finishes the trace through the clients' failover path (address
// rotation, typed refusals, resync against the promoted node). It fails
// unless transcripts and ε ledgers are bit-identical to an uninterrupted
// reference run, and reports the client-observed failover window plus
// replication lag and throughput:
//
//	go run ./cmd/dpsync-loadgen -owners 8 -ticks 30 -failover 3
//
// With -churn / -faults / -open-loop the run becomes a hostile-fleet
// harness: -churn drops live connections on a seeded schedule, -faults
// routes every connection through internal/faultnet (seeded resets, torn
// mid-frame writes, stalls, duplicated frame delivery), and -open-loop
// drives Poisson/bursty arrivals with per-tick latency measured from the
// scheduled arrival (no coordinated omission). Transcript verification
// (-verify/-quick) still demands exact per-owner transcripts — reconnect,
// replay, and resume must be invisible to the privacy ledger:
//
//	go run ./cmd/dpsync-loadgen -owners 16 -ticks 50 -churn -faults -open-loop -quick
//
// With -query-mix N each owner issues N analyst queries per tick (cycling
// the paper's Q1–Q4), interleaved with its sync traffic — the read-path
// load that exercises the gateway's noise-reuse answer cache. With
// -replica-addr the query half routes to a follower's read plane (falling
// back to the primary on typed staleness or refusal), and with
// -read-replica the tool starts its own two-node cluster and measures how
// much of the read load the follower absorbs:
//
//	go run ./cmd/dpsync-loadgen -owners 16 -ticks 50 -query-mix 4 -quick
//	go run ./cmd/dpsync-loadgen -owners 8 -ticks 30 -read-replica -quick
//
// With -baseline the gateway_* (or, with -durable, the wal_*/durable_*/
// recovery_*/spill_*/history_window; with -failover, the failover_ms/
// replication_lag_ms/replica_syncs_per_sec; with -read-replica, the
// replica_query_qps) keys are merged into an existing BENCH_baseline.json,
// preserving its other entries:
//
//	go run ./cmd/dpsync-loadgen -owners 1000 -ticks 100 -baseline BENCH_baseline.json
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dpsync/internal/loadgen"
	"dpsync/internal/telemetry"
)

func main() {
	var (
		owners   = flag.Int("owners", 100, "number of concurrent data owners")
		ticks    = flag.Int("ticks", 100, "logical ticks per owner")
		addr     = flag.String("addr", "", "external gateway address (empty: start one in-process)")
		keyFile  = flag.String("key-file", "", "hex-encoded shared data key (required with -addr)")
		conns    = flag.Int("conns", 4, "multiplexed TCP connections to spread owners over")
		window   = flag.Int("window", 0, "per-connection in-flight window (0: default)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		workers  = flag.Int("workers", 0, "concurrent owner drivers (0: default)")
		shards   = flag.Int("shards", 0, "in-process gateway shards (0: GOMAXPROCS)")
		verify   = flag.Bool("verify", false, "cross-check per-owner transcripts after the run")
		quick    = flag.Bool("quick", false, "CI smoke mode: verify transcripts, print one line")
		baseline = flag.String("baseline", "", "merge gateway_* metrics into this BENCH_baseline.json")
		durable  = flag.Bool("durable", false, "run the in-process gateway on the WAL+snapshot store and measure recovery")
		storeDir = flag.String("store", "", "durability directory for -durable (empty: temp dir)")
		fsync    = flag.Bool("fsync", false, "fsync durable group commits")
		syncEps  = flag.Float64("sync-epsilon", 0.5, "epsilon charged per sync in durable/crash modes")
		histWin  = flag.Int("history-window", 0, "per-tenant in-RAM history batches before spilling to history segments (0: keep all in RAM; durable/crash modes)")
		crash    = flag.Int("crash", 0, "run the crash-injection harness over N seeds instead of a load run")
		failover = flag.Int("failover", 0, "run the two-node failover harness over N seeds instead of a load run")
		leaseTTL = flag.Duration("lease-ttl", 0, "cluster election lease for -failover (0: harness default)")
		churn    = flag.Bool("churn", false, "drop live connections on a seeded schedule; reconnect/resume must heal every outage")
		faults   = flag.Bool("faults", false, "inject seeded transport faults (resets, torn frames, stalls, duplicated frames) on every connection")
		faultBud = flag.Int64("fault-budget", 0, "disruptive fault budget for -faults (0: 4 per connection)")
		openLoop = flag.Bool("open-loop", false, "open-loop Poisson/bursty arrivals with coordinated-omission-free latency")
		arrival  = flag.Duration("arrival", 0, "open-loop mean interarrival per owner tick (0: 2ms)")
		metOut   = flag.String("metrics-out", "", "write the in-process gateway's final telemetry snapshot (the /varz JSON shape) to this file")
		traceOut = flag.String("trace-out", "", "trace the in-process gateway and write its sampled span trees (the /tracez JSON shape) to this file")
		traceN   = flag.Int("trace-sample", 0, "trace 1 in N admitted requests for -trace-out (0: tracer default; slow syncs always captured)")
		logLevel = flag.String("log-level", "", "route in-process gateway logs to stderr at this verbosity: debug, info, warn, error (empty: silent)")
		queryMix = flag.Int("query-mix", 0, "analyst queries per owner per tick, cycling Q1-Q4 (0: no read load)")
		repAddr  = flag.String("replica-addr", "", "follower read-plane address to route queries to (primary fallback on refusal)")
		readRep  = flag.Bool("read-replica", false, "run the two-node read-replica harness instead of a load run")
	)
	flag.Parse()

	if *crash > 0 {
		// The crash harness owns its gateways (reference + durable, fresh
		// temp dirs per seed) and produces pass/fail evidence, not baseline
		// metrics — flags that would silently mean something else are
		// refused rather than ignored.
		switch {
		case *addr != "":
			fatal(fmt.Errorf("-crash drives in-process gateways; drop -addr"))
		case *storeDir != "":
			fatal(fmt.Errorf("-crash uses a fresh temp store per seed; drop -store"))
		case *baseline != "":
			fatal(fmt.Errorf("-crash produces verification evidence, not baseline metrics; drop -baseline"))
		}
		runCrash(*owners, *ticks, *crash, *seed, *shards, *syncEps, *histWin, *fsync, *quick)
		return
	}

	if *readRep {
		// The read-replica harness owns its two-node cluster (fresh temp
		// stores, loopback ports); flags that target an external deployment
		// are refused rather than ignored.
		switch {
		case *addr != "" || *repAddr != "":
			fatal(fmt.Errorf("-read-replica starts its own cluster; drop -addr/-replica-addr"))
		case *storeDir != "":
			fatal(fmt.Errorf("-read-replica uses fresh temp stores; drop -store"))
		}
		runReplica(*owners, *ticks, *queryMix, *conns, *shards, *syncEps, *seed, *leaseTTL, *quick, *baseline)
		return
	}

	if *failover > 0 {
		// Like -crash, the failover harness owns its gateways — but unlike it,
		// the measured failover window, replication lag, and replica apply
		// throughput are baseline material, so -baseline stays allowed.
		switch {
		case *addr != "":
			fatal(fmt.Errorf("-failover drives an in-process cluster; drop -addr"))
		case *storeDir != "":
			fatal(fmt.Errorf("-failover uses fresh temp stores per seed; drop -store"))
		}
		runFailover(*owners, *ticks, *failover, *seed, *shards, *syncEps, *histWin, *fsync, *leaseTTL, *quick, *baseline)
		return
	}

	cfg := loadgen.Config{
		Owners:        *owners,
		Ticks:         *ticks,
		Addr:          *addr,
		Conns:         *conns,
		Window:        *window,
		Workers:       *workers,
		Shards:        *shards,
		Seed:          *seed,
		Verify:        *verify || *quick,
		Durable:       *durable,
		StoreDir:      *storeDir,
		Fsync:         *fsync,
		SyncEpsilon:   *syncEps,
		HistoryWindow: *histWin,
		Churn:         *churn,
		Faults:        *faults,
		FaultBudget:   *faultBud,
		OpenLoop:      *openLoop,
		MeanArrival:   *arrival,
		MetricsOut:    *metOut,
		TraceOut:      *traceOut,
		TraceSample:   *traceN,
		QueryMix:      *queryMix,
		ReplicaAddr:   *repAddr,
	}
	if *logLevel != "" {
		lvl, err := telemetry.ParseLevel(*logLevel)
		if err != nil {
			fatal(err)
		}
		cfg.Logger = telemetry.NewLogger(os.Stderr, lvl)
	}
	if *keyFile != "" {
		raw, err := os.ReadFile(*keyFile)
		if err != nil {
			fatal(err)
		}
		key, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			fatal(fmt.Errorf("decoding key file: %w", err))
		}
		cfg.Key = key
	}

	rep, err := loadgen.Run(cfg)
	if err != nil {
		fatal(err)
	}

	if *quick {
		fmt.Printf("ok: %d owners × %d ticks, %d syncs (%d verified), %.0f syncs/sec, p50 %.2fms p99 %.2fms, %.0f bytes/sync\n",
			rep.Owners, rep.Ticks, rep.Syncs, rep.Verified, rep.SyncsPerSec, rep.P50Ms, rep.P99Ms, rep.BytesPerSync)
		if *churn || *faults {
			fmt.Printf("fleet: %d reconnects healed (mean resume %.2fms), %d faults injected, %d backpressure sheds\n",
				rep.Reconnects, rep.ChurnResumeMs, rep.FaultsInjected, rep.BackpressureSheds)
		}
		if *openLoop {
			fmt.Printf("open-loop: p99 %.2fms from scheduled arrivals\n", rep.OpenLoopP99Ms)
		}
		if rep.Queries > 0 {
			if *addr != "" {
				// External gateway: its cache counters live in the server
				// process (scrape its admin plane instead).
				fmt.Printf("queries: %d at %.0f/sec (p99 %.2fms)\n",
					rep.Queries, rep.QueryQPS, rep.QueryP99Ms)
			} else {
				fmt.Printf("queries: %d at %.0f/sec (p99 %.2fms), qcache hit ratio %.2f\n",
					rep.Queries, rep.QueryQPS, rep.QueryP99Ms, rep.QcacheHitRatio)
			}
			if *repAddr != "" {
				fmt.Printf("replica: %d served at %.0f/sec, %d stale refusals, %d fallbacks\n",
					rep.ReplicaServed, rep.ReplicaQueryQPS, rep.ReplicaStale, rep.ReplicaFallbacks)
			}
		}
		if rep.Durable {
			fmt.Printf("durable: wal append %.1fµs (group ×%.1f, %d snapshots), recovery %.1fms for %d owners (transcripts verified)\n",
				rep.WALAppendUs, rep.WALGroupFactor, rep.WALSnapshots, rep.RecoveryMs, rep.RecoveredOwners)
			if rep.HistoryWindow > 0 {
				fmt.Printf("spill: window %d, %d batches (%d bytes) across %d history segments\n",
					rep.HistoryWindow, rep.SpillBatches, rep.SpillBytes, rep.SpillSegments)
			}
		}
	} else {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(enc))
	}

	if *baseline != "" {
		if err := mergeBaseline(*baseline, rep); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dpsync-loadgen: merged gateway metrics into %s\n", *baseline)
	}
}

// runCrash drives the crash-injection harness and reports per-seed results.
func runCrash(owners, ticks, seeds int, seed uint64, shards int, syncEps float64, histWin int, fsync, quick bool) {
	cfg := loadgen.CrashConfig{
		Owners: owners, Ticks: ticks, SyncEpsilon: syncEps, Fsync: fsync, Shards: shards,
		HistoryWindow: histWin,
	}
	for i := 0; i < seeds; i++ {
		cfg.Seeds = append(cfg.Seeds, seed+uint64(i)*7919)
	}
	rep, err := loadgen.RunCrash(cfg)
	if err != nil {
		fatal(err)
	}
	if quick {
		for _, run := range rep.Runs {
			spill := ""
			if histWin > 0 {
				spill = fmt.Sprintf(", %d batches spilled", run.SpillBatches)
			}
			fmt.Printf("crash ok: seed %d killed at tick %d/%d, recovered %d owners in %.1fms%s, transcripts+ledgers continuous\n",
				run.Seed, run.CrashTick, rep.Ticks, run.RecoveredOwners, run.RecoveryMs, spill)
		}
		return
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(enc))
}

// runFailover drives the two-node failover harness, reports per-seed
// results, and (with -baseline) merges the cluster metrics.
func runFailover(owners, ticks, seeds int, seed uint64, shards int, syncEps float64, histWin int, fsync bool, leaseTTL time.Duration, quick bool, baseline string) {
	cfg := loadgen.FailoverConfig{
		Owners: owners, Ticks: ticks, SyncEpsilon: syncEps, Fsync: fsync, Shards: shards,
		HistoryWindow: histWin, LeaseTTL: leaseTTL,
	}
	for i := 0; i < seeds; i++ {
		cfg.Seeds = append(cfg.Seeds, seed+uint64(i)*7919)
	}
	rep, err := loadgen.RunFailover(cfg)
	if err != nil {
		fatal(err)
	}
	if quick {
		for _, run := range rep.Runs {
			fmt.Printf("failover ok: seed %d killed primary at tick %d/%d, promoted in %.1fms — %.2fms of it the promotion itself (replica lag %.2fms, %d applied @ %.0f/sec), transcripts+ledgers continuous\n",
				run.Seed, run.KillTick, rep.Ticks, run.FailoverMs, run.PromoteMs, run.ReplicationLagMs, run.ReplicaApplied, run.ReplicaSyncsPerSec)
		}
	} else {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(enc))
	}
	if baseline != "" {
		if err := mergeFailoverBaseline(baseline, rep); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dpsync-loadgen: merged failover metrics into %s\n", baseline)
	}
}

// runReplica drives the two-node read-replica harness, reports the drive
// plus the follower's read-plane counters, and (with -baseline) merges the
// replica read-throughput metrics.
func runReplica(owners, ticks, queryMix, conns, shards int, syncEps float64, seed uint64, leaseTTL time.Duration, quick bool, baseline string) {
	cfg := loadgen.ReplicaConfig{
		Owners: owners, Ticks: ticks, QueryMix: queryMix, Conns: conns,
		Shards: shards, SyncEpsilon: syncEps, Seed: seed, LeaseTTL: leaseTTL,
	}
	rep, err := loadgen.RunReplica(cfg)
	if err != nil {
		fatal(err)
	}
	if quick {
		fmt.Printf("replica ok: %d owners × %d ticks, follower served %d/%d queries at %.0f/sec (%d stale refusals, %d fallbacks to primary)\n",
			rep.Owners, rep.Ticks, rep.ReplicaServed, rep.Queries, rep.ReplicaQueryQPS, rep.ReplicaStale, rep.ReplicaFallbacks)
		fmt.Printf("replica plane: %d requests, qcache %d hits / %d misses, %d rebuilds from history, cursor %d applied\n",
			rep.PlaneQueries, rep.PlaneCacheHits, rep.PlaneCacheMisses, rep.PlaneRebuilds, rep.FollowerApplied)
	} else {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(enc))
	}
	if baseline != "" {
		if err := mergeReplicaBaseline(baseline, rep); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dpsync-loadgen: merged read-replica metrics into %s\n", baseline)
	}
}

// mergeReplicaBaseline folds the read-replica measurements into an existing
// baseline document.
func mergeReplicaBaseline(path string, rep loadgen.ReplicaReport) error {
	doc := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	doc["replica_query_qps"] = rep.ReplicaQueryQPS
	doc["replica_served"] = rep.ReplicaServed
	doc["replica_stale_refusals"] = rep.ReplicaStale
	doc["replica_rebuilds"] = rep.PlaneRebuilds
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// mergeFailoverBaseline folds the per-seed failover measurements (averaged
// across runs) into an existing baseline document.
func mergeFailoverBaseline(path string, rep loadgen.FailoverReport) error {
	doc := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	var failoverMs, lagMs, syncsPerSec float64
	for _, run := range rep.Runs {
		failoverMs += run.FailoverMs
		lagMs += run.ReplicationLagMs
		syncsPerSec += run.ReplicaSyncsPerSec
	}
	n := float64(len(rep.Runs))
	doc["failover_ms"] = failoverMs / n
	doc["replication_lag_ms"] = lagMs / n
	doc["replica_syncs_per_sec"] = syncsPerSec / n
	doc["failover_seeds"] = len(rep.Runs)
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// mergeBaseline folds the gateway measurements into an existing baseline
// document without disturbing its other keys. Durable runs refresh the
// wal_*/durable_*/recovery_* trio instead of the in-memory gateway keys, so
// the two serving modes keep independent trajectories.
func mergeBaseline(path string, rep loadgen.Report) error {
	doc := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if rep.Durable {
		doc["wal_append_us"] = rep.WALAppendUs
		doc["wal_group_factor"] = rep.WALGroupFactor
		doc["durable_syncs_per_sec"] = rep.SyncsPerSec
		doc["recovery_ms"] = rep.RecoveryMs
		doc["recovery_owners"] = rep.RecoveredOwners
		doc["history_window"] = rep.HistoryWindow
		doc["spill_batches"] = rep.SpillBatches
		doc["spill_bytes"] = rep.SpillBytes
		doc["spill_segments"] = rep.SpillSegments
	} else {
		doc["gateway_owners"] = rep.Owners
		doc["gateway_ticks"] = rep.Ticks
		doc["gateway_syncs"] = rep.Syncs
		doc["gateway_syncs_per_sec"] = rep.SyncsPerSec
		doc["gateway_p50_ms"] = rep.P50Ms
		doc["gateway_p99_ms"] = rep.P99Ms
		doc["gateway_bytes_per_sync"] = rep.BytesPerSync
		doc["churn_resume_ms"] = rep.ChurnResumeMs
		doc["open_loop_p99_ms"] = rep.OpenLoopP99Ms
		doc["backpressure_sheds"] = rep.BackpressureSheds
		if rep.Queries > 0 {
			doc["query_qps"] = rep.QueryQPS
			doc["query_p99_ms"] = rep.QueryP99Ms
			doc["qcache_hit_ratio"] = rep.QcacheHitRatio
		}
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dpsync-loadgen: %v\n", err)
	os.Exit(1)
}
