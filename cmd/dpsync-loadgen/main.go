// Command dpsync-loadgen drives N simulated data owners × T ticks against a
// multi-tenant DP-Sync gateway and reports serving-layer measurements: sync
// throughput, p50/p99 per-sync round-trip latency, wire bytes per sync, and
// whatever the chosen combination adds. A run is a fleet, a target and at
// most one disruption (internal/loadgen); the flags combine them:
//
//	(none)               in-process gateway in memory
//	-addr A -key-file K  external gateway (-replica-addr R: queries to its follower)
//	-durable             in-process gateway on the WAL+snapshot store (-store DIR),
//	                     closed and reopened from disk after the last tick
//	-crash N             N seeds, each killing that gateway at a seed-derived tick
//	                     and recovering it from its directory
//	-failover N          N seeds on a primary + follower, each killing the primary;
//	                     the follower flips, the clients rotate and resync
//	-read-replica        primary + follower, queries served by the follower
//	-history-window W    any store keeps W batches per tenant in RAM (default 16), spills the rest
//	-churn -faults       seeded connection drops / injected transport faults
//	-open-loop           Poisson/bursty arrivals, latency from the scheduled arrival
//	-query-mix Q         Q analyst queries (cycling Q1-Q4) per owner per tick
//	-metrics-out -trace-out -trace-sample -log-level
//	                     the in-process gateway's /varz, /tracez and logs
//
// -verify (or -quick, which also prints one line per part instead of JSON)
// holds every owner's server-observed transcript and ε ledger to an
// uninterrupted internal/refdb run of the same seeded fleet — after a plain
// drive, churn and faults, a reopen, a kill or a failover alike; against an
// external gateway it compares update counts. Combinations that cannot be
// honoured are refused before anything starts.
//
//	go run ./cmd/dpsync-loadgen -owners 16 -ticks 50 -quick
//	go run ./cmd/dpsync-loadgen -owners 16 -ticks 50 -durable -history-window 8 -quick
//	go run ./cmd/dpsync-loadgen -owners 8 -ticks 30 -failover 3 -quick
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dpsync/internal/loadgen"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
)

func main() {
	var cfg loadgen.Config
	flag.IntVar(&cfg.Owners, "owners", 100, "number of concurrent data owners")
	flag.IntVar(&cfg.Ticks, "ticks", 100, "logical ticks per owner")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.StringVar(&cfg.Addr, "addr", "", "external gateway address (empty: start one in-process)")
	flag.StringVar(&cfg.ReplicaAddr, "replica-addr", "", "external follower address to route queries to (primary fallback on refusal)")
	flag.BoolVar(&cfg.Verify, "verify", false, "hold every owner's observed transcript and ε ledger to the refdb reference")
	flag.BoolVar(&cfg.Durable, "durable", false, "run the in-process gateway on the WAL+snapshot store; close and reopen it after the last tick")
	flag.StringVar(&cfg.StoreDir, "store", "", "durability directory for -durable (empty: temp dir)")
	flag.IntVar(&cfg.HistoryWindow, "history-window", 0, "per-tenant in-RAM history batches on any store before spilling to history segments (0: default)")
	flag.BoolVar(&cfg.Churn, "churn", false, "drop live connections on a seeded schedule; reconnect/resume must heal every outage")
	flag.BoolVar(&cfg.Faults, "faults", false, "inject seeded transport faults (resets, torn frames, stalls, duplicated frames) on every connection")
	flag.BoolVar(&cfg.OpenLoop, "open-loop", false, "open-loop Poisson/bursty arrivals with coordinated-omission-free latency")
	flag.IntVar(&cfg.QueryMix, "query-mix", 0, "analyst queries per owner per tick, cycling Q1-Q4 (0: none; -read-replica: 4)")
	flag.StringVar(&cfg.MetricsOut, "metrics-out", "", "write the in-process gateway's final telemetry snapshot (the /varz JSON shape) to this file")
	flag.StringVar(&cfg.TraceOut, "trace-out", "", "trace the in-process gateway and write its sampled span trees (the /tracez JSON shape) to this file")
	flag.IntVar(&cfg.TraceSample, "trace-sample", 0, "trace 1 in N admitted requests for -trace-out (0: tracer default; slow syncs always captured)")
	var (
		keyFile  = flag.String("key-file", "", "hex-encoded shared data key (required with -addr)")
		quick    = flag.Bool("quick", false, "CI smoke mode: -verify, and one line per part instead of JSON")
		crash    = flag.Int("crash", 0, "kill and recover the gateway at a seed-derived tick, over N seeds")
		failover = flag.Int("failover", 0, "kill the primary of a two-node cluster at a seed-derived tick, over N seeds")
		readRep  = flag.Bool("read-replica", false, "start a two-node cluster and serve the queries from its follower")
		logLevel = flag.String("log-level", "", "route in-process gateway logs to stderr at this verbosity: debug, info, warn, error (empty: silent)")
	)
	flag.Parse()

	// The three flags that pick a topology or a kill exclude each other.
	switch {
	case *crash < 0 || *failover < 0:
		fatal(fmt.Errorf("-crash and -failover count seeds; they must not be negative"))
	case *crash > 0 && *failover > 0:
		fatal(fmt.Errorf("-crash and -failover: one kill per run, of one node or of a cluster's primary"))
	case *crash > 0 && *readRep:
		fatal(fmt.Errorf("-crash and -read-replica: -crash kills a single node, -read-replica runs two"))
	case *failover > 0 && *readRep:
		fatal(fmt.Errorf("-failover and -read-replica: -failover kills the primary -read-replica's reads fall back to"))
	}
	cfg.Verify = cfg.Verify || *quick
	cfg.Kill = *crash > 0 || *failover > 0
	cfg.Cluster = *failover > 0 || *readRep
	if *readRep && cfg.QueryMix == 0 {
		cfg.QueryMix = 4 // one full Q1–Q4 cycle per tick
	}
	if *logLevel != "" {
		lvl, err := telemetry.ParseLevel(*logLevel)
		if err != nil {
			fatal(err)
		}
		cfg.Logger = telemetry.NewLogger(os.Stderr, lvl)
	}
	if *keyFile != "" {
		var err error
		if cfg.Key, err = seal.ReadKeyFile(*keyFile); err != nil {
			fatal(err)
		}
	}

	// One run, or one per seed of a kill.
	first := cfg.Seed
	for i := 0; i < max(1, *crash+*failover); i++ {
		cfg.Seed = first + uint64(i)*7919
		rep, err := loadgen.Run(cfg)
		if err != nil && cfg.Kill {
			err = fmt.Errorf("seed %d: %w", cfg.Seed, err)
		}
		if err != nil {
			fatal(err)
		}
		if *quick {
			printQuick(cfg, rep)
			continue
		}
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(enc))
	}
}

// printQuick prints the combination's headline, then one line per part that
// measured something.
func printQuick(cfg loadgen.Config, rep loadgen.Report) {
	held := "transcripts+ledgers equal the refdb reference"
	if cfg.Addr != "" {
		held = "update counts equal the owners' own"
	}
	readReplica := cfg.Cluster && !cfg.Kill
	switch {
	case cfg.Cluster && cfg.Kill:
		fmt.Printf("failover ok: seed %d killed primary at tick %d/%d, promoted in %.1fms — %.2fms of it the promotion itself (replica lag %.2fms, %d applied @ %.0f/sec), %d owners' %s\n",
			rep.Seed, rep.KillTick, rep.Ticks, rep.FailoverMs, rep.PromoteMs, rep.ReplicationLagMs, rep.ReplicaApplied, rep.ReplicaSyncsPerSec, rep.Verified, held)
	case cfg.Kill:
		fmt.Printf("crash ok: seed %d killed at tick %d/%d, recovered %d owners in %.1fms, first ack %.1fms after the kill, %d owners' %s\n",
			rep.Seed, rep.KillTick, rep.Ticks, rep.RecoveredOwners, rep.RecoveryMs, rep.FailoverMs, rep.Verified, held)
	case readReplica:
		fmt.Printf("replica ok: %d owners × %d ticks, follower served %d/%d queries at %.0f/sec (%d fallbacks to primary), %d owners' %s\n",
			rep.Owners, rep.Ticks, rep.ReplicaServed, rep.Queries, rep.ReplicaQueryQPS, rep.ReplicaFallbacks, rep.Verified, held)
		fmt.Printf("replica plane: %d requests, qcache %d hits / %d misses, cursor %d applied\n",
			rep.PlaneQueries, rep.PlaneCacheHits, rep.PlaneCacheMisses, rep.ReplicaApplied)
	default:
		fmt.Printf("ok: %d owners × %d ticks, %d syncs, %.0f syncs/sec, p50 %.2fms p99 %.2fms, %.0f bytes/sync, %d owners' %s\n",
			rep.Owners, rep.Ticks, rep.Syncs, rep.SyncsPerSec, rep.P50Ms, rep.P99Ms, rep.BytesPerSync, rep.Verified, held)
	}
	if cfg.Churn || cfg.Faults {
		fmt.Printf("fleet: %d reconnects healed (mean resume %.2fms), %d faults injected, %d backpressure sheds\n",
			rep.Reconnects, rep.ChurnResumeMs, rep.FaultsInjected, rep.BackpressureSheds)
	}
	if cfg.OpenLoop {
		fmt.Printf("open-loop: p99 %.2fms from scheduled arrivals\n", rep.OpenLoopP99Ms)
	}
	if cfg.QueryMix > 0 && !readReplica {
		// An external gateway's cache counters live in its own process:
		// scrape its admin plane.
		cache := ""
		if cfg.Addr == "" {
			cache = fmt.Sprintf(", qcache hit ratio %.2f", rep.QcacheHitRatio)
		}
		fmt.Printf("queries: %d at %.0f/sec (p99 %.2fms)%s\n", rep.Queries, rep.QueryQPS, rep.QueryP99Ms, cache)
	}
	if cfg.ReplicaAddr != "" {
		fmt.Printf("replica: %d served at %.0f/sec, %d fallbacks\n",
			rep.ReplicaServed, rep.ReplicaQueryQPS, rep.ReplicaFallbacks)
	}
	if rep.Durable && !cfg.Kill {
		fmt.Printf("durable: wal append %.1fµs (group ×%.1f, %d snapshots), recovery %.1fms for %d owners (transcripts+ledgers verified again after the reopen)\n",
			rep.WALAppendUs, rep.WALGroupFactor, rep.WALSnapshots, rep.RecoveryMs, rep.RecoveredOwners)
	}
	if rep.HistoryWindow > 0 {
		fmt.Printf("spill: window %d, %d batches (%d bytes) across %d history segments\n",
			rep.HistoryWindow, rep.SpillBatches, rep.SpillBytes, rep.SpillSegments)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dpsync-loadgen: %v\n", err)
	os.Exit(1)
}
