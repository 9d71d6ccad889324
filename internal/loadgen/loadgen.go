// Package loadgen drives synthetic multi-owner DP-Sync traffic against a
// live gateway and measures the serving layer: sync throughput, per-sync
// round-trip latency quantiles, and wire bytes per sync. It is the
// measurement harness behind cmd/dpsync-loadgen and the gateway entries in
// BENCH_baseline.json.
//
// Each simulated owner is a full core.Owner stack — local cache, real
// synchronization strategy (the mix cycles SUR, DP-Timer, DP-ANT), dummy
// padding, client-side sealing — running against its own namespace of a
// shared gateway over pipelined multiplexed connections. The load is
// therefore shaped like the paper's deployment (§3, §7): many independent
// owners, each hiding its own update pattern, one outsourced server.
package loadgen

import (
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"runtime"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/core"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/faultnet"
	"dpsync/internal/gateway"
	"dpsync/internal/metrics"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/strategy"
	"dpsync/internal/telemetry"
)

// Config parameterizes a load run.
type Config struct {
	// Owners is the number of concurrent data owners (namespaces); Ticks is
	// how many logical ticks each owner lives.
	Owners int
	Ticks  int
	// Addr targets an external gateway; empty starts an in-process one on a
	// loopback port (the self-contained benchmark mode). Key is the shared
	// data key — required with Addr, generated otherwise.
	Addr string
	Key  []byte
	// Conns is how many multiplexed TCP connections the owners share
	// (default 4, capped at Owners). Window is the per-connection in-flight
	// cap (default client.DefaultWindow).
	Conns  int
	Window int
	// Workers bounds concurrent owner drivers (default 4×GOMAXPROCS,
	// clamped to [8, 64]: drivers spend their time blocked on round trips,
	// so oversubscribing cores is the point).
	Workers int
	// Shards configures the in-process gateway (0 = GOMAXPROCS).
	Shards int
	// Seed derives every owner's noise stream and arrival phase; a fixed
	// seed makes the workload (though not scheduling) reproducible.
	Seed uint64
	// Verify cross-checks, per owner, that the gateway-observed transcript
	// length matches the owner's own pattern bookkeeping (in-process only).
	Verify bool
	// Durable runs the in-process gateway with the internal/store
	// durability subsystem (WAL + snapshots) and, after the drive, closes
	// the gateway and reopens it from disk to measure recovery — with
	// Verify, every owner's recovered transcript is checked bit-identical
	// to the pre-close one. In-process mode only.
	Durable bool
	// StoreDir is the durability directory (empty: a fresh temp dir,
	// removed when Run returns). Fsync and SyncEpsilon pass through to the
	// gateway's store configuration.
	StoreDir    string
	Fsync       bool
	SyncEpsilon float64
	// HistoryWindow bounds each tenant's in-RAM committed-batch tail in
	// durable mode; past it, history spills to on-disk segments and
	// snapshots carry manifests (see gateway.Config.HistoryWindow). 0
	// keeps the full history in RAM.
	HistoryWindow int
	// Churn drops live gateway connections on a seeded schedule for the
	// whole drive; the client reconnect/resume layer must heal each outage
	// transparently (Verify still demands exact transcripts). Implies
	// reconnect-enabled connections.
	Churn bool
	// ChurnInterval is the mean time between connection drops (default
	// 25ms).
	ChurnInterval time.Duration
	// Faults routes every gateway connection through an internal/faultnet
	// injector: seeded resets, torn mid-frame writes, stalls, and
	// duplicated frame delivery. Implies reconnect-enabled connections.
	Faults bool
	// FaultBudget bounds disruptive injected faults (resets + truncations)
	// across the run; 0 means 4 per connection. Stalls and duplicates are
	// unbudgeted.
	FaultBudget int64
	// QueryMix issues this many analyst queries per owner per tick, cycling
	// the paper's Q1–Q4 kinds, interleaved with the sync traffic. Repeated
	// specs between commits exercise the gateway's noise-reuse answer cache
	// (and, with ReplicaAddr, the follower read plane).
	QueryMix int
	// ReplicaAddr routes the query half of the drive to a follower's read
	// plane (client.WithReadReplica); syncs still go to Addr. Queries that
	// the replica refuses or cannot serve fall back to the primary.
	ReplicaAddr string
	// OpenLoop switches the drive from closed-loop (each owner ticks as
	// fast as round trips allow) to an open-loop arrival model: ticks
	// arrive on a seeded Poisson process with a bursty mixture, and
	// per-tick latency is measured from the *scheduled* arrival time — so
	// a stalled server accrues queueing delay instead of silently slowing
	// the arrival rate (no coordinated omission).
	OpenLoop bool
	// MeanArrival is the open-loop mean interarrival time per owner tick
	// (default 2ms).
	MeanArrival time.Duration
	// MetricsOut, when non-empty, writes the in-process gateway's final
	// telemetry snapshot — the same JSON shape as the admin plane's /varz —
	// to this file after the drive completes. In-process mode only.
	MetricsOut string
	// TraceOut, when non-empty, attaches a span tracer to the in-process
	// gateway and writes its sampled span trees — the same JSON shape as the
	// admin plane's /tracez?format=json — to this file after the drive
	// completes. In-process mode only.
	TraceOut string
	// TraceSample is the tracing cadence for TraceOut: one trace per N
	// admitted requests (0: the tracer default). Slow syncs are always
	// captured regardless.
	TraceSample int
	// Logger, when non-nil, is attached to the in-process gateway (an
	// external gateway's logs are out of reach). Nil keeps the drive silent.
	Logger *slog.Logger
}

// Report is the measurement result.
type Report struct {
	Owners  int `json:"owners"`
	Ticks   int `json:"ticks"`
	Conns   int `json:"conns"`
	Workers int `json:"workers"`
	// Syncs counts EDB update-protocol runs (setup + strategy-driven
	// uploads) across all owners; SyncRecords the sealed records they
	// carried (real + dummy).
	Syncs       int64   `json:"syncs"`
	SyncRecords int64   `json:"sync_records"`
	Elapsed     float64 `json:"elapsed_seconds"`
	SyncsPerSec float64 `json:"syncs_per_sec"`
	// P50Ms / P99Ms are per-sync round-trip latencies (seal + frame +
	// gateway dispatch + backend ingest + response).
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// BytesPerSync is total protocol bytes (both directions, all message
	// types) divided by Syncs.
	BytesPerSync float64 `json:"bytes_per_sync"`
	BytesOut     int64   `json:"bytes_out"`
	BytesIn      int64   `json:"bytes_in"`
	Verified     int     `json:"verified_owners,omitempty"`
	// Durable-mode measurements: mean WAL append→commit latency, the group
	// commit factor (entries per flush/fsync round), snapshot rotations,
	// and the close→reopen recovery wall-clock with the owner count the
	// recovery reconstructed.
	Durable         bool    `json:"durable,omitempty"`
	WALAppendUs     float64 `json:"wal_append_us,omitempty"`
	WALGroupFactor  float64 `json:"wal_group_factor,omitempty"`
	WALSnapshots    int64   `json:"wal_snapshots,omitempty"`
	RecoveryMs      float64 `json:"recovery_ms,omitempty"`
	RecoveredOwners int     `json:"recovered_owners,omitempty"`
	// Tiered-history measurements: the configured window, batches and
	// bytes spilled out of gateway RAM, and history segment files created.
	HistoryWindow int   `json:"history_window,omitempty"`
	SpillBatches  int64 `json:"spill_batches,omitempty"`
	SpillBytes    int64 `json:"spill_bytes,omitempty"`
	SpillSegments int64 `json:"spill_segments,omitempty"`
	// Fleet-robustness measurements. Reconnects counts transport losses the
	// client layer healed (churn drops + injected severances);
	// ChurnResumeMs is the mean outage→resume wall-clock across them.
	// OpenLoopP99Ms is the open-loop per-tick p99 measured from scheduled
	// arrivals. BackpressureSheds counts requests the in-process gateway
	// refused with the typed backpressure error. FaultsInjected totals
	// faultnet injections of every kind.
	Reconnects        int64   `json:"reconnects,omitempty"`
	ChurnResumeMs     float64 `json:"churn_resume_ms"`
	OpenLoopP99Ms     float64 `json:"open_loop_p99_ms"`
	BackpressureSheds int64   `json:"backpressure_sheds"`
	FaultsInjected    int64   `json:"faults_injected,omitempty"`
	// Read-path measurements (QueryMix > 0). Queries counts analyst queries
	// completed; QueryQPS is their throughput over the drive. QcacheHitRatio
	// is hits/(hits+misses) of the in-process gateway's noise-reuse answer
	// cache — every hit is a response re-served without touching the backend
	// or the ε ledger. The Replica* fields are client-side read-plane
	// counters (ReplicaAddr set): queries the replica answered, typed
	// freshness refusals, and fallbacks to the primary.
	Queries          int64   `json:"queries,omitempty"`
	QueryQPS         float64 `json:"query_qps,omitempty"`
	QueryP99Ms       float64 `json:"query_p99_ms,omitempty"`
	QcacheHitRatio   float64 `json:"qcache_hit_ratio,omitempty"`
	ReplicaServed    int64   `json:"replica_served,omitempty"`
	ReplicaStale     int64   `json:"replica_stale,omitempty"`
	ReplicaFallbacks int64   `json:"replica_fallbacks,omitempty"`
	ReplicaQueryQPS  float64 `json:"replica_query_qps,omitempty"`
}

// timedDB wraps an owner's database handle and records the round-trip
// latency of every sync (Setup/Update) in milliseconds.
type timedDB struct {
	edb.Database
	latencies []float64
	records   int64
	// openLat is filled by the open-loop driver: per-tick latency in ms
	// measured from the scheduled arrival, syncing ticks or not.
	openLat []float64
	// queries / queryLat are filled by the query-mix driver: analyst query
	// round trips in ms, cache hits and misses alike.
	queries  int64
	queryLat []float64
}

// queryKinds is the analyst mix the drive cycles: the paper's four query
// shapes (range count, group count, join count, fare sum). Reusing the same
// four specs between commits is deliberate — repeats are what the
// noise-reuse answer cache exists to serve.
var queryKinds = []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}

func (t *timedDB) time(op func() error, n int) error {
	start := time.Now()
	err := op()
	if err == nil {
		t.latencies = append(t.latencies, float64(time.Since(start).Nanoseconds())/1e6)
		t.records += int64(n)
	}
	return err
}

func (t *timedDB) Setup(rs []record.Record) error {
	return t.time(func() error { return t.Database.Setup(rs) }, len(rs))
}

func (t *timedDB) Update(rs []record.Record) error {
	return t.time(func() error { return t.Database.Update(rs) }, len(rs))
}

// ownerStrategy builds owner i's strategy: the mix cycles the paper's
// always-on baseline and the two DP strategies, seeded per owner.
func ownerStrategy(i int, seed uint64) (strategy.Strategy, error) {
	switch i % 3 {
	case 0:
		return strategy.NewSUR(), nil
	case 1:
		return strategy.NewTimer(strategy.TimerConfig{
			Epsilon: 0.5, Period: 10, FlushInterval: 60, FlushSize: 4,
			Source: dp.NewSeededSource(seed + uint64(i)*2654435761),
		})
	default:
		return strategy.NewANT(strategy.ANTConfig{
			Epsilon: 0.5, Threshold: 5, FlushInterval: 60, FlushSize: 4,
			Source: dp.NewSeededSource(seed + uint64(i)*2654435761 + 1),
		})
	}
}

// Run executes the load and returns the measurements.
func Run(cfg Config) (Report, error) {
	if cfg.Owners <= 0 || cfg.Ticks <= 0 {
		return Report{}, fmt.Errorf("loadgen: owners and ticks must be positive")
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.Conns > cfg.Owners {
		cfg.Conns = cfg.Owners
	}
	if cfg.Window <= 0 {
		cfg.Window = client.DefaultWindow
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4 * runtime.GOMAXPROCS(0)
		if cfg.Workers < 8 {
			cfg.Workers = 8
		}
		if cfg.Workers > 64 {
			cfg.Workers = 64
		}
	}
	if cfg.Workers > cfg.Owners {
		cfg.Workers = cfg.Owners
	}

	// Target gateway: external or in-process.
	var gw *gateway.Gateway
	var tracer *telemetry.Tracer
	reg := telemetry.New()
	addr, key := cfg.Addr, cfg.Key
	storeDir := cfg.StoreDir
	if addr == "" {
		if key == nil {
			var err error
			key, err = seal.NewRandomKey()
			if err != nil {
				return Report{}, err
			}
		}
		if cfg.Durable && storeDir == "" {
			dir, err := os.MkdirTemp("", "dpsync-loadgen-*")
			if err != nil {
				return Report{}, err
			}
			defer os.RemoveAll(dir)
			storeDir = dir
		}
		// Each run gets its own registry so concurrent or sequential runs in
		// one process never merge series; the benchmarks therefore measure
		// the telemetry-on serving path, which is what production runs.
		gwCfg := gateway.Config{Key: key, Shards: cfg.Shards, Telemetry: reg, Logger: cfg.Logger}
		if cfg.TraceOut != "" {
			tracer = telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: cfg.TraceSample})
			gwCfg.Tracer = tracer
		}
		if cfg.Durable {
			gwCfg.StoreDir = storeDir
			gwCfg.Fsync = cfg.Fsync
			gwCfg.SyncEpsilon = cfg.SyncEpsilon
			gwCfg.HistoryWindow = cfg.HistoryWindow
		}
		var err error
		gw, err = gateway.New("127.0.0.1:0", gwCfg)
		if err != nil {
			return Report{}, err
		}
		go func() { _ = gw.Serve() }()
		defer gw.Close()
		addr = gw.Addr()
	} else if key == nil {
		return Report{}, fmt.Errorf("loadgen: external gateway requires a key")
	} else if cfg.Durable {
		return Report{}, fmt.Errorf("loadgen: durable mode drives an in-process gateway (drop -addr)")
	} else if cfg.Verify && cfg.ReplicaAddr != "" {
		// External verification reads RemoteStats, which -replica-addr routes
		// to the follower; a replica lagging by an in-flight frame would fail
		// the check spuriously (a lagging-but-committed answer is not an
		// error, so no primary fallback fires).
		return Report{}, fmt.Errorf("loadgen: -verify races replica lag (drop -replica-addr)")
	}

	dialOpts := []client.GatewayOption{client.WithWindow(cfg.Window)}
	if cfg.ReplicaAddr != "" {
		dialOpts = append(dialOpts, client.WithReadReplica(cfg.ReplicaAddr))
	}
	var inj *faultnet.Injector
	if cfg.Faults {
		budget := cfg.FaultBudget
		if budget <= 0 {
			budget = int64(4 * cfg.Conns)
		}
		inj = faultnet.New(faultnet.DefaultConfig(int64(cfg.Seed), budget))
		dialOpts = append(dialOpts, client.WithDialer(inj.Dialer(nil)))
	}
	if cfg.Churn || cfg.Faults {
		// A dropped or injected-dead transport must heal, not fail the run:
		// that healing (redial + replay + resume) is what's under test.
		dialOpts = append(dialOpts, client.WithReconnect(0))
	}
	conns := make([]*client.GatewayConn, cfg.Conns)
	for i := range conns {
		c, err := client.DialGateway(addr, key, dialOpts...)
		if err != nil {
			return Report{}, err
		}
		defer c.Close()
		conns[i] = c
	}

	// The churn schedule drops one random connection per interval for the
	// whole drive; each drop forces a full redial + in-flight replay +
	// delta resume on every owner multiplexed over that connection.
	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	if cfg.Churn {
		interval := cfg.ChurnInterval
		if interval <= 0 {
			interval = 25 * time.Millisecond
		}
		go func() {
			defer close(churnDone)
			rng := rand.New(rand.NewSource(int64(cfg.Seed)*7919 + 17))
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-churnStop:
					return
				case <-tick.C:
					conns[rng.Intn(len(conns))].Drop()
				}
			}
		}()
	} else {
		close(churnDone)
	}
	stopChurn := func() {
		select {
		case <-churnDone:
		default:
			close(churnStop)
			<-churnDone
		}
	}
	defer stopChurn()

	// driveOwner lives one owner's whole life: setup, Ticks ticks with a
	// deterministic arrival phase, through a timing wrapper.
	driveOwner := func(i int) (*timedDB, error) {
		strat, err := ownerStrategy(i, cfg.Seed)
		if err != nil {
			return nil, err
		}
		session := conns[i%len(conns)].Owner(ownerName(i))
		tdb := &timedDB{Database: session}
		owner, err := core.New(core.Config{Strategy: strat, Database: tdb})
		if err != nil {
			return nil, err
		}
		if err := owner.Setup([]record.Record{{
			PickupTime: 0, PickupID: uint16(i%record.NumLocations + 1), Provider: record.YellowCab,
		}}); err != nil {
			return nil, fmt.Errorf("owner %d setup: %w", i, err)
		}
		phase := i % 3
		// Open-loop arrivals: a seeded Poisson process with a bursty
		// mixture (some arrivals land back-to-back). The schedule never
		// resynchronizes to "now" — if the serving layer stalls, later
		// arrivals are already due and their measured latency includes the
		// queueing delay (coordinated-omission-free).
		var arrivals *rand.Rand
		var next time.Time
		meanArrival := cfg.MeanArrival
		if cfg.OpenLoop {
			if meanArrival <= 0 {
				meanArrival = 2 * time.Millisecond
			}
			arrivals = rand.New(rand.NewSource(int64(cfg.Seed)*1_000_003 + int64(i)))
			next = time.Now()
		}
		for t := 1; t <= cfg.Ticks; t++ {
			if cfg.OpenLoop {
				if arrivals.Float64() < 0.2 {
					// Burst continuation: this tick arrives with the last.
				} else {
					gap := time.Duration(arrivals.ExpFloat64() * float64(meanArrival))
					if gap > 10*meanArrival {
						gap = 10 * meanArrival
					}
					next = next.Add(gap)
				}
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
			var terr error
			if (t+phase)%3 == 0 {
				terr = owner.Tick(record.Record{
					PickupTime: record.Tick(t),
					PickupID:   uint16((i+t)%record.NumLocations + 1),
					Provider:   record.YellowCab,
				})
			} else {
				terr = owner.Tick()
			}
			if terr != nil {
				return nil, fmt.Errorf("owner %d tick %d: %w", i, t, terr)
			}
			// The analyst mix rides the same tick cadence as the syncs:
			// QueryMix queries per tick, cycling the four kinds, straight to
			// the session (queries bypass the strategy — they are reads of
			// released state, not part of the owner's update pattern).
			for q := 0; q < cfg.QueryMix; q++ {
				spec := queryKinds[(t*cfg.QueryMix+q)%len(queryKinds)]
				qStart := time.Now()
				if _, _, qerr := session.Query(spec); qerr != nil {
					return nil, fmt.Errorf("owner %d query tick %d: %w", i, t, qerr)
				}
				tdb.queries++
				tdb.queryLat = append(tdb.queryLat, float64(time.Since(qStart).Nanoseconds())/1e6)
			}
			if cfg.OpenLoop {
				tdb.openLat = append(tdb.openLat, float64(time.Since(next).Nanoseconds())/1e6)
			}
		}
		if cfg.Verify {
			if gw != nil {
				got := gw.ObservedPattern(session.OwnerID()).Updates()
				if want := owner.Pattern().Updates(); got != want {
					return nil, fmt.Errorf("owner %d: gateway observed %d updates, owner posted %d", i, got, want)
				}
			} else {
				// External gateway: its transcript is out of reach, but its
				// split-blind stats must agree with the owner's bookkeeping.
				remote, err := session.RemoteStats()
				if err != nil {
					return nil, fmt.Errorf("owner %d remote stats: %w", i, err)
				}
				if want := owner.Pattern().Updates(); remote.Updates != want {
					return nil, fmt.Errorf("owner %d: gateway counted %d updates, owner posted %d", i, remote.Updates, want)
				}
			}
			if _, _, err := owner.Query(query.Q1()); err != nil {
				return nil, fmt.Errorf("owner %d query: %w", i, err)
			}
		}
		return tdb, nil
	}

	type result struct {
		tdb *timedDB
		err error
	}
	jobs := make(chan int)
	results := make(chan result)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			for i := range jobs {
				tdb, err := driveOwner(i)
				results <- result{tdb, err}
			}
		}()
	}

	start := time.Now()
	go func() {
		for i := 0; i < cfg.Owners; i++ {
			jobs <- i
		}
		close(jobs)
	}()

	lat := metrics.NewSeries("sync_rtt_ms")
	openLat := metrics.NewSeries("open_loop_tick_ms")
	queryLat := metrics.NewSeries("query_rtt_ms")
	var syncs, syncRecords, queries int64
	var firstErr error
	verified := 0
	for done := 0; done < cfg.Owners; done++ {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		for _, ms := range r.tdb.latencies {
			lat.Add(record.Tick(lat.Len()), ms)
		}
		for _, ms := range r.tdb.openLat {
			openLat.Add(record.Tick(openLat.Len()), ms)
		}
		for _, ms := range r.tdb.queryLat {
			queryLat.Add(record.Tick(queryLat.Len()), ms)
		}
		syncs += int64(len(r.tdb.latencies))
		syncRecords += r.tdb.records
		queries += r.tdb.queries
		if cfg.Verify {
			verified++
		}
	}
	elapsed := time.Since(start)
	stopChurn()
	if firstErr != nil {
		return Report{}, firstErr
	}

	var bytesOut, bytesIn int64
	for _, c := range conns {
		bytesOut += c.BytesOut()
		bytesIn += c.BytesIn()
	}
	rep := Report{
		Owners:      cfg.Owners,
		Ticks:       cfg.Ticks,
		Conns:       cfg.Conns,
		Workers:     cfg.Workers,
		Syncs:       syncs,
		SyncRecords: syncRecords,
		Elapsed:     elapsed.Seconds(),
		BytesOut:    bytesOut,
		BytesIn:     bytesIn,
		Verified:    verified,
	}
	if elapsed > 0 {
		rep.SyncsPerSec = float64(syncs) / elapsed.Seconds()
	}
	if syncs > 0 {
		rep.P50Ms = lat.Quantile(0.50)
		rep.P99Ms = lat.Quantile(0.99)
		rep.BytesPerSync = float64(bytesOut+bytesIn) / float64(syncs)
	}
	if openLat.Len() > 0 {
		rep.OpenLoopP99Ms = openLat.Quantile(0.99)
	}
	if queries > 0 {
		rep.Queries = queries
		rep.QueryP99Ms = queryLat.Quantile(0.99)
		if elapsed > 0 {
			rep.QueryQPS = float64(queries) / elapsed.Seconds()
		}
	}
	if gw != nil && cfg.QueryMix > 0 {
		qs := gw.QueryCacheStats()
		if total := qs.Hits + qs.Misses; total > 0 {
			rep.QcacheHitRatio = float64(qs.Hits) / float64(total)
		}
	}
	if cfg.ReplicaAddr != "" {
		var served, staleN, fallbacks int64
		for _, c := range conns {
			s, st, fb := c.ReplicaStats()
			served += s
			staleN += st
			fallbacks += fb
		}
		rep.ReplicaServed = served
		rep.ReplicaStale = staleN
		rep.ReplicaFallbacks = fallbacks
		if elapsed > 0 {
			rep.ReplicaQueryQPS = float64(served) / elapsed.Seconds()
		}
	}
	var reconnects int64
	var reconnectTotal time.Duration
	for _, c := range conns {
		n, total := c.ReconnectStats()
		reconnects += n
		reconnectTotal += total
	}
	rep.Reconnects = reconnects
	if reconnects > 0 {
		rep.ChurnResumeMs = float64(reconnectTotal.Nanoseconds()) / 1e6 / float64(reconnects)
	}
	if gw != nil {
		rep.BackpressureSheds = gw.Sheds()
	}
	if inj != nil {
		rep.FaultsInjected = inj.Counts().Total()
	}

	// The snapshot is taken before the durable close below: closing the
	// gateway unregisters its scrape-time collectors, and the dump should
	// reflect the gateway that served the drive.
	if cfg.MetricsOut != "" {
		if gw == nil {
			return Report{}, fmt.Errorf("loadgen: -metrics-out snapshots the in-process gateway (drop -addr)")
		}
		if err := dumpMetrics(cfg.MetricsOut, reg); err != nil {
			return Report{}, err
		}
	}
	if cfg.TraceOut != "" {
		if gw == nil {
			return Report{}, fmt.Errorf("loadgen: -trace-out snapshots the in-process gateway (drop -addr)")
		}
		if err := dumpTraces(cfg.TraceOut, tracer); err != nil {
			return Report{}, err
		}
	}

	// Durable mode: harvest the WAL measurements, then close the gateway
	// and reopen it from disk — recovery wall-clock plus (with Verify) a
	// bit-identical transcript check per owner.
	if cfg.Durable && gw != nil {
		rep.Durable = true
		rep.HistoryWindow = cfg.HistoryWindow
		if m, ok := gw.StoreMetrics(); ok {
			rep.WALAppendUs = m.AvgAppendUs()
			if m.Commits > 0 {
				rep.WALGroupFactor = float64(m.Appends) / float64(m.Commits)
			}
			rep.WALSnapshots = m.Snapshots
			rep.SpillBatches = m.SpillBatches
			rep.SpillBytes = m.SpillBytes
			rep.SpillSegments = m.HistorySegments
		}
		var want map[string]string
		if cfg.Verify {
			want = make(map[string]string, cfg.Owners)
			for i := 0; i < cfg.Owners; i++ {
				want[ownerName(i)] = gw.ObservedPattern(ownerName(i)).String()
			}
		}
		for _, c := range conns {
			c.Close()
		}
		if err := gw.Close(); err != nil {
			return Report{}, fmt.Errorf("loadgen: graceful close: %w", err)
		}
		start := time.Now()
		gw2, err := gateway.New("127.0.0.1:0", gateway.Config{
			Key: key, Shards: cfg.Shards,
			StoreDir: storeDir, Fsync: cfg.Fsync, SyncEpsilon: cfg.SyncEpsilon,
			HistoryWindow: cfg.HistoryWindow,
		})
		if err != nil {
			return Report{}, fmt.Errorf("loadgen: recovery: %w", err)
		}
		rep.RecoveryMs = float64(time.Since(start).Nanoseconds()) / 1e6
		defer gw2.Close()
		rep.RecoveredOwners = gw2.Recovery().Owners
		if rep.RecoveredOwners != cfg.Owners {
			return Report{}, fmt.Errorf("loadgen: recovered %d owners, want %d", rep.RecoveredOwners, cfg.Owners)
		}
		if cfg.Verify {
			for name, w := range want {
				if got := gw2.ObservedPattern(name).String(); got != w {
					return Report{}, fmt.Errorf("loadgen: %s transcript diverged after recovery:\n got: %s\nwant: %s", name, got, w)
				}
			}
		}
	}
	return rep, nil
}

// ownerName is the canonical namespace ID for owner i, shared by the drive
// loop and the durable-recovery verification.
func ownerName(i int) string { return fmt.Sprintf("owner-%06d", i) }

// dumpTraces writes the tracer's sampled and slow span trees to path in the
// admin plane's /tracez?format=json shape.
func dumpTraces(path string, tracer *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("loadgen: trace out: %w", err)
	}
	if err := telemetry.WriteTraceJSON(f, tracer.Dump()); err != nil {
		f.Close()
		return fmt.Errorf("loadgen: trace out: %w", err)
	}
	return f.Close()
}

// dumpMetrics writes the registry's final snapshot to path in the admin
// plane's /varz JSON shape.
func dumpMetrics(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("loadgen: metrics out: %w", err)
	}
	if err := telemetry.WriteVarz(f, reg.Snapshot()); err != nil {
		f.Close()
		return fmt.Errorf("loadgen: metrics out: %w", err)
	}
	return f.Close()
}
