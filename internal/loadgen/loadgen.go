// Package loadgen drives synthetic multi-owner DP-Sync traffic against a
// gateway and measures the serving layer: sync throughput, per-sync
// round-trip latency quantiles, wire bytes per sync, recovery and failover
// windows. It is the harness behind cmd/dpsync-loadgen.
//
// A run is built from three parts, each written once:
//
//   - a fleet (fleet.go): Owners full core.Owner stacks — local cache, real
//     synchronization strategy (the mix cycles SUR, DP-Timer, DP-ANT), dummy
//     padding, client-side sealing — each against its own namespace over
//     shared pipelined connections, shaped like the paper's deployment (§3,
//     §7). drive(from, to) runs the owners concurrently and returns once every
//     owner's tick `to` is acknowledged, so whatever happens between two
//     drives happens to a quiesced server;
//   - a target (target.go): an external gateway, or an in-process topology
//     the run owns — one node in memory, one node on a store, or a primary
//     and a follower on stores;
//   - at most one disruption: a graceful close → reopen after the last tick
//     (Durable), or a kill at a seed-derived tick (Kill) — Gateway.Kill and
//     recovery from the directory on one node, Node.Kill of the primary and
//     the follower's role flip on a cluster.
//
// And one verification (verify.go): the same seeded fleet is driven, with no
// sockets, into one internal/refdb per owner — the oracle the differential
// suites use, which shares no code with the serving stack — and every owner's
// server-observed transcript and ε ledger are held to it, whatever the run
// went through.
package loadgen

import (
	"fmt"
	"log/slog"
	"os"
	"time"

	"dpsync/internal/leakage"
	"dpsync/internal/telemetry"
)

// The values no caller ever set differently. syncEpsilon is charged per sync
// by every in-process gateway; the others pace the fleet.
const (
	syncEpsilon   = 0.5
	maxConns      = 4
	churnInterval = 25 * time.Millisecond
	meanArrival   = 2 * time.Millisecond
	leaseTTL      = 250 * time.Millisecond
	snapshotEvery = 64
	// healAttempts bounds redials per outage where outages are the point
	// (churn, faults, failover): enough to outlast a lease TTL several times.
	healAttempts = 30
	// killReserve is how many ticks a kill leaves after it: three guarantee a
	// record tick for the always-syncing SUR owners, the sync that forces the
	// reconnect and stamps the end of the outage.
	killReserve = 3
)

// Config parameterizes a run: a fleet, a target and at most one disruption.
type Config struct {
	// Owners is the number of concurrent data owners (namespaces); Ticks is
	// how many logical ticks each owner lives.
	Owners int
	Ticks  int
	// Seed derives every owner's noise stream, arrival phase, the churn and
	// fault schedules and the kill tick.
	Seed uint64
	// Addr targets an external gateway and ReplicaAddr routes the query half
	// of the drive to a follower of it (queries the replica refuses fall back
	// to the primary). Both empty: the run starts its own target. Key is the
	// shared data key — required with Addr, generated otherwise.
	Addr        string
	ReplicaAddr string
	Key         []byte
	// Durable puts the in-process node on the WAL+snapshot store and, after
	// the last tick, closes it gracefully and reopens it from disk (recovery
	// measured). Cluster starts a primary and a follower on stores; queries go
	// to the follower. StoreDir is Durable's directory (empty: a temp dir,
	// removed when Run returns); HistoryWindow bounds each tenant's in-RAM
	// batch tail on any store (0: all in RAM).
	Durable       bool
	Cluster       bool
	StoreDir      string
	HistoryWindow int
	// Kill crashes the serving node — no flush, no drain — at a seed-derived
	// tick: on one node (which it puts on a store) the gateway recovers from
	// its directory and the fleet re-dials; on a Cluster the follower flips to
	// primary and the clients rotate and resync. It replaces Durable's reopen.
	Kill bool
	// Churn drops live connections on a seeded schedule and Faults routes
	// every connection through internal/faultnet (resets, torn frames, stalls,
	// duplicated frames); the client's reconnect/resume layer must heal both
	// invisibly. OpenLoop paces ticks on a seeded Poisson/bursty process and
	// measures per-tick latency from the scheduled arrival (no coordinated
	// omission). QueryMix issues that many Q1–Q4 queries per owner per tick.
	Churn    bool
	Faults   bool
	OpenLoop bool
	QueryMix int
	// Verify holds every owner's observed transcript and ε ledger to the
	// refdb reference (in-process targets), or the gateway's update count to
	// the owner's bookkeeping (external ones).
	Verify bool
	// MetricsOut and TraceOut write the in-process node's final telemetry
	// snapshot (the /varz shape) and sampled span trees (/tracez?format=json,
	// one trace per TraceSample admitted requests; 0: the tracer default).
	// Logger, when non-nil, receives the in-process nodes' logs.
	MetricsOut  string
	TraceOut    string
	TraceSample int
	Logger      *slog.Logger
}

// validate refuses, before anything is created, every combination that could
// only be half-honoured. The messages name cmd/dpsync-loadgen's flags.
func (c Config) validate() error {
	onStore := c.Durable || c.Cluster || c.Kill
	for _, r := range []struct {
		bad bool
		msg string
	}{
		{c.Owners <= 0 || c.Ticks <= 0, "-owners and -ticks must be positive"},
		{c.Addr != "" && c.Key == nil, "-addr needs -key-file (an external gateway's key)"},
		{c.Addr != "" && c.Durable, "-addr and -durable: the reopen needs an in-process gateway"},
		{c.Addr != "" && c.Cluster, "-addr and -failover/-read-replica: the cluster is in-process"},
		{c.Addr != "" && c.Kill, "-addr and -crash/-failover: only an in-process node can be killed"},
		{c.Addr != "" && c.MetricsOut != "", "-addr and -metrics-out: the snapshot is the in-process gateway's"},
		{c.Addr != "" && c.TraceOut != "", "-addr and -trace-out: the tracer is the in-process gateway's"},
		{c.Addr != "" && c.Logger != nil, "-addr and -log-level: an external gateway's logs are out of reach"},
		{c.ReplicaAddr != "" && c.Addr == "", "-replica-addr needs -addr (in-process, use -read-replica)"},
		{c.ReplicaAddr != "" && c.QueryMix <= 0, "-replica-addr needs -query-mix: only queries are routed to it"},
		{c.ReplicaAddr != "" && c.Verify, "-replica-addr and -verify/-quick: the count check would race replica lag"},
		{c.Durable && c.Cluster, "-durable and -failover/-read-replica: a cluster's nodes are already on stores"},
		{c.StoreDir != "" && !c.Durable, "-store needs -durable"},
		{c.StoreDir != "" && c.Kill, "-store and -crash: every seed needs a fresh directory"},
		{c.HistoryWindow != 0 && !onStore, "-history-window needs a store: add -durable, -crash, -failover or -read-replica"},
		{c.HistoryWindow < 0, "-history-window must not be negative"},
		{c.Kill && c.Ticks < 2*killReserve, fmt.Sprintf("-crash/-failover need -ticks >= %d", 2*killReserve)},
		{c.Kill && c.MetricsOut != "", "-metrics-out and -crash/-failover: the kill replaces the gateway the snapshot describes"},
		{c.Kill && c.TraceOut != "", "-trace-out and -crash/-failover: the kill replaces the gateway being traced"},
		{c.Cluster && c.MetricsOut != "", "-metrics-out and -read-replica: two nodes, two registries"},
		{c.Cluster && c.TraceOut != "", "-trace-out and -read-replica: two nodes, two tracers"},
		{c.TraceSample != 0 && c.TraceOut == "", "-trace-sample needs -trace-out"},
		{c.QueryMix < 0, "-query-mix must not be negative"},
	} {
		if r.bad {
			return fmt.Errorf("loadgen: %s", r.msg)
		}
	}
	return nil
}

// Report is the measurement result; a field is filled by the parts of the run
// that produce it and omitted or zero otherwise.
type Report struct {
	Owners int    `json:"owners"`
	Ticks  int    `json:"ticks"`
	Seed   uint64 `json:"seed"`
	// Syncs counts EDB update-protocol runs (setup + strategy-driven
	// uploads) across all owners; SyncRecords the sealed records they
	// carried (real + dummy). P50Ms / P99Ms are per-sync round trips (seal +
	// frame + dispatch + ingest + response); BytesPerSync is total protocol
	// bytes, both directions and all message types, over Syncs.
	Syncs        int64   `json:"syncs"`
	SyncRecords  int64   `json:"sync_records"`
	Elapsed      float64 `json:"elapsed_seconds"`
	SyncsPerSec  float64 `json:"syncs_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	BytesPerSync float64 `json:"bytes_per_sync"`
	BytesOut     int64   `json:"bytes_out"`
	BytesIn      int64   `json:"bytes_in"`
	// Verified counts the owners whose observation passed Config.Verify.
	Verified int `json:"verified_owners,omitempty"`
	// Store measurements, of the node serving when the drive ended: mean WAL
	// append→commit latency, entries per flush round, snapshot rotations,
	// batches and bytes spilled out of RAM and the history segments holding
	// them. RecoveryMs is the reopen (Durable) or the recovery after the kill
	// (Kill on one node), RecoveredOwners what it reconstructed.
	Durable         bool    `json:"durable,omitempty"`
	WALAppendUs     float64 `json:"wal_append_us,omitempty"`
	WALGroupFactor  float64 `json:"wal_group_factor,omitempty"`
	WALSnapshots    int64   `json:"wal_snapshots,omitempty"`
	RecoveryMs      float64 `json:"recovery_ms,omitempty"`
	RecoveredOwners int     `json:"recovered_owners,omitempty"`
	HistoryWindow   int     `json:"history_window,omitempty"`
	SpillBatches    int64   `json:"spill_batches,omitempty"`
	SpillBytes      int64   `json:"spill_bytes,omitempty"`
	SpillSegments   int64   `json:"spill_segments,omitempty"`
	// Fleet robustness. Reconnects counts transport losses the client layer
	// healed and ChurnResumeMs their mean outage→resume time; OpenLoopP99Ms
	// is the per-tick p99 from scheduled arrivals; BackpressureSheds the typed
	// refusals of the node serving at the end; FaultsInjected every faultnet
	// injection.
	Reconnects        int64   `json:"reconnects,omitempty"`
	ChurnResumeMs     float64 `json:"churn_resume_ms"`
	OpenLoopP99Ms     float64 `json:"open_loop_p99_ms"`
	BackpressureSheds int64   `json:"backpressure_sheds"`
	FaultsInjected    int64   `json:"faults_injected,omitempty"`
	// Read path (QueryMix > 0). QcacheHitRatio is hits/(hits+misses) of the
	// serving node's noise-reuse answer cache. The Replica* fields are the
	// client's split: queries the replica answered, its typed freshness
	// refusals, and fallbacks to the primary.
	Queries          int64   `json:"queries,omitempty"`
	QueryQPS         float64 `json:"query_qps,omitempty"`
	QueryP99Ms       float64 `json:"query_p99_ms,omitempty"`
	QcacheHitRatio   float64 `json:"qcache_hit_ratio,omitempty"`
	ReplicaServed    int64   `json:"replica_served,omitempty"`
	ReplicaStale     int64   `json:"replica_stale,omitempty"`
	ReplicaFallbacks int64   `json:"replica_fallbacks,omitempty"`
	ReplicaQueryQPS  float64 `json:"replica_query_qps,omitempty"`
	// Kill. FailoverMs is the client-observed outage: kill → first sync
	// acknowledged after it (on a cluster it contains the lease TTL the
	// successor waits out); PromoteMs is the promoted node's own share, lease
	// won → serving.
	KillTick   int     `json:"kill_tick,omitempty"`
	FailoverMs float64 `json:"failover_ms,omitempty"`
	PromoteMs  float64 `json:"promote_ms,omitempty"`
	// Cluster, from the follower. ReplicaApplied and ReplicaSnapshots are the
	// stream entries it applied and the snapshot transfers it needed;
	// ReplicationLagMs the mean primary-commit → replica-apply latency;
	// ReplicaSyncsPerSec its apply throughput up to the kill (or the end).
	// The Plane* fields are its reads while in replica role: requests served,
	// typed refusals, answer-cache counters, and tenants rebuilt from history
	// after a failed ingest (0 on a healthy replica).
	ReplicaApplied     uint64  `json:"replica_applied,omitempty"`
	ReplicaSnapshots   uint64  `json:"replica_snapshots,omitempty"`
	ReplicationLagMs   float64 `json:"replication_lag_ms,omitempty"`
	ReplicaSyncsPerSec float64 `json:"replica_syncs_per_sec,omitempty"`
	PlaneQueries       int64   `json:"replica_plane_queries,omitempty"`
	PlaneStale         int64   `json:"replica_plane_stale,omitempty"`
	PlaneCacheHits     int64   `json:"replica_qcache_hits,omitempty"`
	PlaneCacheMisses   int64   `json:"replica_qcache_misses,omitempty"`
	PlaneRebuilds      int64   `json:"replica_rebuilds"`
}

// Run executes the load and returns the measurements. With Config.Verify it
// returns an error rather than an unverified report.
func Run(cfg Config) (Report, error) {
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	inProcess := cfg.Addr == ""
	var ref []leakage.Pattern
	if cfg.Verify && inProcess {
		var err error
		if ref, err = reference(cfg); err != nil {
			return Report{}, err
		}
	}
	tgt, err := startTarget(cfg)
	if err != nil {
		return Report{}, err
	}
	defer tgt.close()
	f := newFleet(cfg)
	defer f.hangup()
	if err := f.dial(tgt); err != nil {
		return Report{}, err
	}
	rep := Report{Owners: cfg.Owners, Ticks: cfg.Ticks, Seed: cfg.Seed, HistoryWindow: cfg.HistoryWindow}

	// The drive: setup is tick 0; a kill splits it at a quiesced boundary.
	boundary := cfg.Ticks
	if cfg.Kill {
		boundary = 1 + int(cfg.Seed%uint64(cfg.Ticks-killReserve))
		rep.KillTick = boundary
	}
	stopChurn := f.churn()
	defer stopChurn()
	start := time.Now()
	if err := f.drive(0, boundary); err != nil {
		return Report{}, err
	}
	if err := tgt.settle(&rep, time.Since(start)); err != nil {
		return Report{}, err
	}
	if cfg.Kill {
		if err := tgt.kill(f, &rep); err != nil {
			return Report{}, err
		}
		if err := f.drive(boundary+1, cfg.Ticks); err != nil {
			return Report{}, err
		}
		if err := tgt.promoted(&rep); err != nil {
			return Report{}, err
		}
		// An owner whose strategy posted nothing since the kill has not yet
		// been asked to heal: every session resumes against the node serving
		// now, re-uploading whatever acknowledged tail that node lacks.
		if err := f.resumeAll(); err != nil {
			return Report{}, err
		}
	}
	elapsed := time.Since(start)
	stopChurn()
	if rep.FailoverMs = f.outageMs(); cfg.Kill && rep.FailoverMs == 0 {
		return Report{}, fmt.Errorf("loadgen: no sync completed after the kill (outage unmeasured)")
	}
	f.measure(&rep, elapsed)
	tgt.measure(&rep)
	if cfg.Cluster && !cfg.Kill && cfg.QueryMix > 0 && rep.ReplicaServed == 0 {
		return Report{}, fmt.Errorf("loadgen: follower served no queries (read path unmeasured; %d fallbacks)", rep.ReplicaFallbacks)
	}

	if cfg.Verify {
		// Every owner gets a Q1 answer from the node serving now; an external
		// gateway's transcript is out of reach, so its update count stands in.
		if err := f.readBack(!inProcess); err != nil {
			return Report{}, err
		}
		if err := verifyObserved(ref, tgt.observe, syncEpsilon); err != nil {
			return Report{}, err
		}
		rep.Verified = cfg.Owners
	}
	// The dumps precede the reopen: closing a gateway unregisters its
	// scrape-time collectors, and they should describe the one that served.
	if cfg.MetricsOut != "" {
		if err := dump(cfg.MetricsOut, func(w *os.File) error { return telemetry.WriteVarz(w, tgt.reg.Snapshot()) }); err != nil {
			return Report{}, err
		}
	}
	if cfg.TraceOut != "" {
		if err := dump(cfg.TraceOut, func(w *os.File) error { return telemetry.WriteTraceJSON(w, tgt.tracer.Dump()) }); err != nil {
			return Report{}, err
		}
	}
	if cfg.Durable && !cfg.Kill {
		f.hangup()
		if err := tgt.restart(&rep, true); err != nil {
			return Report{}, err
		}
		if cfg.Verify {
			if err := verifyObserved(ref, tgt.observe, syncEpsilon); err != nil {
				return Report{}, fmt.Errorf("after the reopen: %w", err)
			}
		}
	}
	return rep, nil
}

// dump writes one of the run's output files.
func dump(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("loadgen: writing %s: %w", path, err)
	}
	return f.Close()
}
