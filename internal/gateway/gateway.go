// Package gateway implements the multi-tenant DP-Sync serving layer: one
// TCP endpoint hosting thousands of concurrent data owners, each with its
// own namespace — a private encrypted store, a private update-pattern
// transcript, and a private logical clock — against a single honest-but-
// curious operator, the deployment shape of the paper's §3 three-party
// model at "heavy traffic" scale.
//
// # Architecture
//
// Owner state is sharded: owner IDs hash onto a fixed set of shard workers
// (bounded by GOMAXPROCS), and each shard worker goroutine *owns* its
// tenants' state outright — tenant maps are touched by exactly one
// goroutine, so unrelated owners never contend on a lock and per-owner
// request order is the order frames arrived in. Connections are decoupled
// from owners: a connection reader decodes multiplexed envelopes
// (wire.GatewayRequest: request ID + owner namespace + EDB message) and
// hands them to the owning shard; a per-connection writer streams the
// shards' responses back, matched by request ID, so one pipelined
// connection can carry many owners' sync batches concurrently.
//
// # Isolation invariant
//
// Each tenant's update-pattern transcript is exactly what a server hosting
// that owner alone would have observed for the owner's request stream: the
// per-owner logical clock advances only on that owner's uploads, and no
// other tenant's traffic can perturb it. The differential test in this
// package pins the transcripts bit-identical to the in-process single-owner
// reference (internal/refdb). This is the property that makes per-owner DP
// accounting meaningful on shared infrastructure — the adversary (the
// gateway operator) sees the union of per-owner transcripts, and each one
// independently carries its owner's ε guarantee.
//
// # Substrates
//
// Tenants are backed by any edb.Database. Backends that ingest sealed
// ciphertexts directly (the ObliDB enclave: SetupSealed/UpdateSealed) get
// them verbatim — the gateway never opens records destined for an enclave.
// Backends without a sealed path (the Cryptε aggregation service, including
// WithRealAHE true-crypto instances) receive records through the gateway's
// ingress sealer, standing in for the aggregation service's transport
// decryption boundary.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/leakage"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// Connection-hardening and flow-control defaults.
const (
	// DefaultMaxOwners bounds distinct tenant namespaces so a hostile
	// client cannot allocate unbounded backend state.
	DefaultMaxOwners = 1 << 20
	// DefaultWriteTimeout bounds one response frame's write, so a client
	// that stops reading cannot stall a shard worker behind a full response
	// queue forever.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultMaxInFlight is the per-connection in-flight request cap: how
	// many admitted requests may be awaiting responses before further
	// frames are refused (wire.CodeBackpressure). It is sized
	// above the client's default pipeline window so well-behaved clients
	// never see a shed; the response buffer is sized to this cap plus
	// shedHeadroom, which is what lets shard workers reply without ever
	// blocking on a slow connection.
	DefaultMaxInFlight = 256
	// shedHeadroom is the grace window past the in-flight cap: how many
	// refusals (backpressure replies, which also occupy response-buffer
	// slots) may be outstanding before the connection is severed as
	// hostile — a client that keeps blasting frames while ignoring both
	// its window and the shed signal.
	shedHeadroom = 64
	// DefaultDrainTimeout bounds Close's wait for in-flight connections;
	// survivors are severed (logged) so one stuck peer cannot wedge a
	// graceful shutdown.
	DefaultDrainTimeout = 10 * time.Second
	// shardQueueLen is the per-shard task buffer. When a shard saturates,
	// connection readers block on the send — backpressure propagates to the
	// TCP receive window instead of growing a queue.
	shardQueueLen = 128
	// groupQueueLen is the per-shard buffer for group-commit reports hopping
	// from the log writer back onto the shard worker, one per group. The
	// worker always drains it (it never blocks on sends), so the WAL writer
	// cannot deadlock against it; the buffer just decouples commit bursts.
	groupQueueLen = 256
	// maxErrorLogs bounds per-connection error logging.
	maxErrorLogs = 3
	// maxKeptPayload bounds the read buffer a connection keeps between
	// frames: a larger frame (a bulk setup) is read into a buffer that is
	// dropped after it, not pinned for the connection's life.
	maxKeptPayload = 64 << 10
	// maxInterned bounds a connection's owner-ID table (clientConn.intern).
	maxInterned = 4096
)

// Config assembles a Gateway.
type Config struct {
	// Key is the 32-byte shared data key (the attestation/provisioning
	// stand-in) used by the default ObliDB backend and by the ingress
	// sealer for record-level backends. Required unless NewBackend is set
	// AND every backend ingests sealed ciphertexts.
	Key []byte
	// Shards is the number of shard workers; 0 means GOMAXPROCS.
	Shards int
	// NewBackend constructs the encrypted database for a new owner
	// namespace. Nil means a per-owner ObliDB instance under Key.
	NewBackend func(owner string) (edb.Database, error)
	// Logger receives bounded per-connection diagnostics; nil discards.
	Logger *slog.Logger
	// Telemetry receives the gateway's hot-path runtime metrics (per-sync
	// stage latency histograms, serving-edge counters, the fleet ε-spent
	// distribution) and is threaded into the store. Nil disables metric
	// export entirely — handles no-op — which is what keeps unrelated
	// gateways in one test process from merging series.
	Telemetry *telemetry.Registry
	// DebugTenantMetrics exposes per-owner introspection series (committed
	// clock and ε spend, labeled by owner hash) through Telemetry. Off by
	// default and meant to stay off outside debugging: per-tenant series
	// republish exactly the update-pattern detail the synchronization
	// strategies spend ε to hide, so the aggregate-only default is part of
	// the privacy posture, not a convenience.
	DebugTenantMetrics bool
	// Tracer, when non-nil, samples per-request span trees: client-admit at
	// admission, queue-wait and apply on the shard worker, the WAL group
	// commit, and (through the Replicator) the replication ship. The
	// sampling decision is one atomic add per request; unsampled requests
	// allocate nothing. Traces follow the same privacy rule as metrics —
	// span names are stage names, and tenant identity (owner hash only)
	// appears on a trace only when DebugTenantMetrics is also set.
	Tracer *telemetry.Tracer
	// ReadTimeout is the per-connection read deadline (0 = default,
	// negative = disabled); MaxFrameErrors bounds malformed frames per
	// connection (0 = default).
	ReadTimeout    time.Duration
	WriteTimeout   time.Duration
	MaxFrameErrors int
	// MaxInFlight caps admitted-but-unanswered requests per connection
	// (0 = DefaultMaxInFlight). Excess frames are refused
	// (wire.CodeBackpressure); a connection that accumulates shedHeadroom
	// unanswered refusals on top of the cap is severed.
	MaxInFlight int
	// DrainTimeout bounds Close's graceful wait for in-flight connections
	// before severing the stragglers (0 = DefaultDrainTimeout, negative =
	// wait forever, the pre-hardening behavior).
	DrainTimeout time.Duration
	// MaxOwners bounds distinct namespaces (0 = DefaultMaxOwners).
	MaxOwners int
	// StoreDir enables the durability subsystem (internal/store): every
	// tenant's sealed store, transcript, logical clock, and ε ledger are
	// carried by per-shard write-ahead logs and snapshots under this
	// directory, and New recovers whatever a previous process left there.
	// Empty keeps today's in-memory behavior.
	StoreDir string
	// Fsync makes every durable group commit fsync (machine-crash safety);
	// off, commits are flushed to the OS (process-crash safety).
	Fsync bool
	// SnapshotEvery is the minimum per-shard WAL entry count between
	// snapshot rotations (0 = store.DefaultSnapshotEvery), handed to the
	// store: the interval grows with the snapshot image, so every image is
	// paid for by the log written after it (store.RotateDue).
	SnapshotEvery int
	// HistoryWindow bounds the committed ingest batches each tenant keeps
	// in RAM (and inlines in snapshots). Past the window, history spills to
	// sealed on-disk history segments; snapshots reference the spilled runs
	// by manifest (segment, offset, length, checksum) so a rotation never
	// rewrites spilled batches — it still writes every tenant's transcript,
	// refs and tail — and recovery streams the runs back through the ingest
	// path without materializing them. 0 keeps the full history in RAM and
	// inline in snapshots (the legacy small-deployment behavior). Durable
	// mode only.
	HistoryWindow int
	// SyncEpsilon is the ε charged to a tenant's ledger per sync (setup or
	// update), recorded inside the sync's WAL entry so recovery re-spends
	// exactly what was spent. Changing it against an existing store makes
	// recovered tenants refuse further syncs (the ledger rejects a charge
	// whose epsilon drifted) — by design, accounting drift is loud.
	SyncEpsilon float64
	// QueryCache is the per-tenant noise-reuse answer cache capacity in
	// entries (0 = qcache.DefaultCapacity, negative disables). A released DP
	// answer is already noised — re-serving the identical bytes to the
	// identical QuerySpec is pure post-processing and costs zero additional
	// ε — so each tenant caches its released answers and the shard worker
	// serves repeats without touching the backend. The cache is RAM-only and
	// invalidated when the owner's next sync *commits* (never at apply), so
	// a cached answer cannot outlive the state transition that could change
	// it and a crash cannot resurrect a stale entry.
	QueryCache int
	// Listener, when non-nil, is a pre-bound listener the gateway adopts
	// instead of binding addr — how a cluster node gives the address it bound
	// at Start to the one gateway it runs in either role. The gateway owns it
	// from New on (Close closes it).
	Listener net.Listener
	// Replicator, when non-nil, taps the durable commit stream for WAL
	// shipping (internal/cluster's primary hub): every committed sync entry
	// is offered in commit order on its shard worker, and connections whose
	// hello opens the replication protocol are handed over to it. Requires
	// StoreDir — replication ships WAL frames, so there must be a WAL. A
	// replica-role gateway (NewReplica) starts without one and is given its
	// hub by Promote.
	Replicator Replicator
}

// Replicator is the gateway's hook into a replication hub. Implementations
// live in internal/cluster; the gateway only defines the seam so the
// dependency points outward.
type Replicator interface {
	// Committed observes one durably committed sync entry. It is invoked on
	// the owning shard's worker goroutine, in that shard's commit order,
	// after the entry's group commit and the tenant's commit-time mutations
	// — so a cut taken on the same worker and the offsets assigned here can
	// never disagree. It must not block: slow followers shed themselves, not
	// the fleet. tc is the entry's trace context positioned at its WAL-commit
	// span (zero when the sync is unsampled): a hub records its ship span
	// under it and propagates the trace across the wire.
	Committed(shard int, e store.Entry, tc telemetry.TraceContext)
	// ServeConn takes over a connection whose hello opened the replication
	// protocol (the hello itself is consumed; version is its proposed
	// version byte, not yet acked). Runs on the connection's handler
	// goroutine and owns the conn until it returns; the gateway severs the
	// conn to force an exit at shutdown.
	ServeConn(conn net.Conn, version byte)
}

// replFlusher is the optional Replicator extension a graceful Close probes
// for: Flush blocks (bounded by timeout) until connected followers have
// consumed the committed stream, so syncs committed during the drain window
// reach the successor instead of surviving only in clients' resync windows.
type replFlusher interface {
	Flush(timeout time.Duration)
}

// Gateway is the multi-tenant server. Create with New (or NewReplica), drive
// with Serve, stop with Close.
//
// A gateway has a role, set by its constructor and flipped at most once, by
// Promote. A replica is the same server fed by a replication stream instead
// of by writers: its shard workers advance their tenants one shipped entry at
// a time (Replicate), the same connection loop serves it but only read-only
// connections ("DPSQ"; other hellos are refused so the dialer moves on to the
// primary), and a read whose freshness bound the shard's applied stream
// offset has not reached is refused (wire.CodeStale) with that offset —
// checked on the worker that applies the stream, so a read sees whole batches
// and is as fresh as its check said by goroutine ownership, not by a lock.
type Gateway struct {
	cfg     Config
	replica atomic.Bool // the role; cleared once, by Promote
	lis     net.Listener
	log     *slog.Logger
	tenants *Tenants     // builds tenant machines (backend, ingress sealer, answer cache)
	store   *store.Store // durability subsystem; nil without StoreDir
	tm      gwMetrics    // telemetry handles; zero value no-ops

	shards     []*shard
	quit       chan struct{}
	ownerCount atomic.Int64
	refusals   [wire.MaxRefusalCode + 1]atomic.Int64 // replies that refused, by code
	severed    atomic.Int64                          // connections severed as hostile/stalled
	liveConns  atomic.Int64                          // currently open client connections
	liveRepl   atomic.Int64                          // currently open replication connections

	// Replica-role accounting, counted on the shard workers: reads dispatched
	// and tenants re-materialised from history after a failed ingest (0 on a
	// healthy replica). They stop moving at Promote.
	replicaReads atomic.Int64
	rebuilds     atomic.Int64

	connWG  sync.WaitGroup
	replWG  sync.WaitGroup // replication handlers, drained separately
	shardWG sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	// replConns tracks connections serving the replication protocol. They
	// are long-lived by design (a follower tails forever), so a graceful
	// Close never drains them: after the client drain it flushes the
	// replicator (shipping the drain window's commits) and severs them — a
	// follower reconnects from its cursor; it must never wedge a primary's
	// shutdown.
	replConns map[net.Conn]struct{}
	closed    bool
	abandon   bool
}

// gwMetrics holds the gateway's telemetry handles, resolved once at New so
// the hot path touches only atomics. on gates the time.Now() calls the
// stage decomposition needs, so a telemetry-less gateway pays nothing.
type gwMetrics struct {
	on      bool
	syncs   *telemetry.Counter
	queries *telemetry.Counter
	resumes *telemetry.Counter
	qwait   *telemetry.Histogram // task enqueue → shard worker dequeue
	apply   *telemetry.Histogram // backend ingest (validate + seal + apply)
	commit  *telemetry.Histogram // WAL append → group-commit completion
	ack     *telemetry.Histogram // response enqueue → frame on the wire
	eps     *telemetry.Distribution
	// Noise-reuse answer cache counters (fleet aggregates — per-owner cache
	// behavior is exactly the update/query pattern the aggregate-only
	// posture suppresses) and the cache-served stage latency.
	cache CacheMetrics
	unreg func()
}

// timedResponse is one response queued for a connection writer, carrying the
// time it was ready (UnixNano; 0 when untimed) so the writer can observe the
// ack stage — response ready to frame on the wire — and the request's trace
// context so the writer can finish the trace once the frame is actually on
// the wire.
type timedResponse struct {
	resp wire.GatewayResponse
	enq  int64
	tc   telemetry.TraceContext
}

// New creates a primary-role gateway listening on addr (port 0 picks a free
// port).
func New(addr string, cfg Config) (*Gateway, error) { return newGateway(addr, cfg, false) }

// NewReplica creates a replica-role gateway over cfg.StoreDir: it recovers
// the directory exactly as New does — every owner resident, because a replica
// must fit what it may become — and from then on is advanced by Replicate
// until Promote makes it the primary. cfg.Replicator must be nil.
func NewReplica(addr string, cfg Config) (*Gateway, error) {
	if cfg.StoreDir == "" || cfg.Replicator != nil {
		return nil, fmt.Errorf("gateway: a replica needs StoreDir and takes its Replicator at Promote")
	}
	return newGateway(addr, cfg, true)
}

func newGateway(addr string, cfg Config, replica bool) (*Gateway, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.MaxFrameErrors <= 0 {
		cfg.MaxFrameErrors = 8
	}
	if cfg.MaxOwners <= 0 {
		cfg.MaxOwners = DefaultMaxOwners
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.Replicator != nil && cfg.StoreDir == "" {
		return nil, fmt.Errorf("gateway: Replicator requires StoreDir (replication ships WAL frames)")
	}
	g := &Gateway{cfg: cfg, quit: make(chan struct{}), conns: map[net.Conn]struct{}{}, replConns: map[net.Conn]struct{}{}}
	g.replica.Store(replica)
	if cfg.Logger != nil {
		g.log = cfg.Logger
	} else {
		g.log = telemetry.Discard()
	}
	if reg := cfg.Telemetry; reg != nil {
		g.tm = gwMetrics{
			on:      true,
			syncs:   reg.Counter("gateway_syncs_total", "committed sync uploads (setup + update)"),
			queries: reg.Counter("gateway_queries_total", "served query requests"),
			resumes: reg.Counter("gateway_resumes_total", "resume handshakes answered"),
			qwait: reg.Histogram("gateway_sync_queue_wait_us",
				"request enqueue to shard-worker dequeue, microseconds", telemetry.LatencyBucketsUs),
			apply: reg.Histogram("gateway_sync_apply_us",
				"backend ingest (validate+seal+apply), microseconds", telemetry.LatencyBucketsUs),
			commit: reg.Histogram("gateway_sync_commit_us",
				"WAL append to group-commit completion, microseconds", telemetry.LatencyBucketsUs),
			ack: reg.Histogram("gateway_sync_ack_us",
				"response enqueue to frame written on the wire, microseconds", telemetry.LatencyBucketsUs),
			eps: reg.Distribution("gateway_tenant_eps_spent",
				"fleet-wide distribution of cumulative per-tenant epsilon spend", telemetry.EpsilonBuckets),
			cache: CacheMetrics{
				Hits:          reg.Counter("gateway_qcache_hits_total", "queries served from the noise-reuse answer cache (zero additional epsilon)"),
				Misses:        reg.Counter("gateway_qcache_misses_total", "queries evaluated against the backend (cache cold or invalidated)"),
				Evictions:     reg.Counter("gateway_qcache_evictions_total", "answer-cache entries evicted by the LFU capacity bound"),
				Invalidations: reg.Counter("gateway_qcache_invalidations_total", "answer-cache entries dropped by a committed sync"),
				Serve: reg.Histogram("gateway_qcache_serve_us",
					"cache-hit query service time on the shard worker, microseconds", telemetry.LatencyBucketsUs),
			},
		}
		g.tm.unreg = reg.RegisterCollector(func(emit func(telemetry.Sample)) {
			gauge := func(name, help string, v float64) {
				emit(telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindGauge, Value: v})
			}
			counter := func(name, help string, v int64) {
				emit(telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindCounter, Value: float64(v)})
			}
			gauge("gateway_owners", "established tenant namespaces", float64(g.ownerCount.Load()))
			gauge("gateway_active_conns", "open client connections", float64(g.liveConns.Load()))
			gauge("gateway_repl_conns", "open replication connections", float64(g.liveRepl.Load()))
			for code := wire.RefusalCode(1); code <= wire.MaxRefusalCode; code++ {
				counter(fmt.Sprintf("gateway_refusals_total{code=%q}", code.String()),
					"requests refused, by refusal code", g.refusals[code].Load())
			}
			counter("gateway_severed_total", "connections severed (stalled writer, spent grace window, drain deadline)", g.severed.Load())
			var pending, committed int64
			for _, sh := range g.shards {
				pending += sh.pendingAtomic.Load()
				committed += sh.committedAtomic.Load()
			}
			gauge("gateway_pending_wal_entries", "appended-but-uncommitted WAL entries across shards", float64(pending))
			counter("gateway_committed_entries_total", "committed sync entries across shards", committed)
			if cfg.Tracer != nil {
				sampled, slow := cfg.Tracer.Stats()
				counter("gateway_traces_sampled_total", "requests captured by the trace sampler", sampled)
				counter("gateway_traces_slow_total", "slow-sync exemplars captured past the threshold", slow)
			}
		})
		if cfg.DebugTenantMetrics {
			// Per-owner series, behind the explicit debug gate only: they
			// reveal exactly the per-tenant update-pattern detail the
			// aggregate-by-default rule exists to suppress. Labeled by owner
			// hash; the scrape runs owner cuts on the shard workers, so a
			// debug scrape trades latency for a commit-consistent view.
			unregMain := g.tm.unreg
			var unregDebug func()
			g.tm.unreg = func() { unregMain(); unregDebug() }
			unregDebug = reg.RegisterCollector(func(emit func(telemetry.Sample)) {
				for sid := range g.shards {
					g.OwnerCut(sid, func(states []store.OwnerState) {
						for _, st := range states {
							h := telemetry.OwnerHash(st.Owner)
							emit(telemetry.Sample{
								Name: fmt.Sprintf("gateway_tenant_clock{owner_hash=%q}", h),
								Help: "per-owner committed logical clock (DebugTenantMetrics)",
								Kind: telemetry.KindGauge, Value: float64(st.Clock),
							})
							emit(telemetry.Sample{
								Name: fmt.Sprintf("gateway_tenant_eps{owner_hash=%q}", h),
								Help: "per-owner cumulative epsilon spend (DebugTenantMetrics)",
								Kind: telemetry.KindGauge, Value: st.Budget.Spent(),
							})
						}
					})
				}
			})
		}
	}
	// A gateway that fails to come up leaves nothing behind: not its
	// collectors (a registry must not report a server that does not exist), not
	// an open store.
	fail := func(err error) (*Gateway, error) {
		if g.store != nil {
			g.store.Close()
		}
		if g.tm.unreg != nil {
			g.tm.unreg()
		}
		return nil, err
	}
	var err error
	if g.tenants, err = NewTenants(cfg, g.tm.cache); err != nil {
		return fail(err)
	}
	g.shards = make([]*shard, cfg.Shards)
	for i := range g.shards {
		g.shards[i] = &shard{
			id:     i,
			tasks:  make(chan task, shardQueueLen),
			groups: make(chan store.Group, groupQueueLen),
			owners: map[string]*Tenant{},
		}
	}
	if cfg.StoreDir != "" {
		if err := g.openStore(); err != nil {
			return fail(err)
		}
		for _, sh := range g.shards {
			g.store.OnCommit(sh.id, sh.reportGroup)
		}
	}
	if cfg.Listener != nil {
		g.lis = cfg.Listener
	} else if g.lis, err = net.Listen("tcp", addr); err != nil {
		return fail(fmt.Errorf("gateway: listen: %w", err))
	}
	for _, sh := range g.shards {
		g.shardWG.Add(1)
		go g.runShard(sh)
	}
	return g, nil
}

// openStore opens the durability directory and rebuilds every recovered
// tenant — backend (by re-ingesting the batch history), transcript, clock,
// and ledger — onto its shard, before any worker or connection exists.
func (g *Gateway) openStore() error {
	s, states, err := store.Open(store.Options{
		Dir:           g.cfg.StoreDir,
		Shards:        g.cfg.Shards,
		Fsync:         g.cfg.Fsync,
		HistoryWindow: g.cfg.HistoryWindow,
		SnapshotEvery: g.cfg.SnapshotEvery,
		Telemetry:     g.cfg.Telemetry,
	})
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	g.store = s
	owners := make([]string, 0, len(states))
	for owner := range states {
		owners = append(owners, owner)
	}
	sort.Strings(owners) // deterministic rebuild order
	for _, owner := range owners {
		sid := store.ShardFor(owner, g.cfg.Shards)
		tn, err := g.tenants.Replay(s, sid, states[owner])
		if err != nil {
			return err
		}
		g.shards[sid].owners[owner] = tn
		g.ownerCount.Add(1)
		// Every tick 1..clock is one committed entry, wherever its bytes live
		// — which is also the shard's position in the replication stream.
		g.shards[sid].committedAtomic.Add(int64(tn.Clock))
		g.shards[sid].applied += tn.Clock
	}
	for _, sh := range g.shards {
		sh.appliedAtomic.Store(sh.applied)
	}
	if g.tm.on {
		for _, sh := range g.shards {
			for _, tn := range sh.owners {
				tn.epsSpent = tn.Budget.Spent()
				g.tm.eps.Add(tn.epsSpent)
			}
		}
	}
	if info := s.Info(); info.Owners > 0 || info.CorruptSegments > 0 || info.DamagedHistory > 0 {
		g.log.Info("recovered durable store",
			"owners", info.Owners, "snapshots", info.Snapshots, "entries", info.Entries,
			"skipped", info.SkippedEntries, "torn_tails", info.TornTails,
			"corrupt_segments", info.CorruptSegments, "spilled_refs", info.SpilledRefs,
			"damaged_history", info.DamagedHistory)
	}
	return nil
}

// Addr returns the bound listen address.
func (g *Gateway) Addr() string { return g.lis.Addr().String() }

// Serve accepts connections until Close. It blocks; run it in a goroutine.
// Transient accept failures (fd exhaustion under thousands of owners,
// aborted handshakes) are retried with backoff — one bad accept must not
// tear down every tenant.
func (g *Gateway) Serve() error {
	var delay time.Duration
	for {
		conn, err := g.lis.Accept()
		if err != nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else if delay *= 2; delay > time.Second {
					delay = time.Second
				}
				g.log.Warn("accept failed; retrying", "err", err, "delay", delay)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		// The slot is taken under mu, so it is never added while shutdown,
		// which marks the gateway closed under mu first, waits on connWG. A
		// connection accepted once shutdown has begun is dropped.
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return nil
		}
		g.connWG.Add(1)
		g.mu.Unlock()
		go g.handle(conn) // handle owns the connWG slot (may trade it for replWG)
	}
}

// Close stops the listener, waits for in-flight connections (each of which
// waits for its pending replies — so every acknowledged durable sync has
// group-committed by then), stops the shard workers, and flushes and closes
// the WAL. This is the graceful-drain path cmd/dpsync-server runs on
// SIGINT/SIGTERM.
func (g *Gateway) Close() error {
	return g.shutdown(false)
}

// Kill stops the gateway the way a crash would: connections are severed,
// pending (un-acknowledged) durable syncs are abandoned, nothing further is
// flushed. State already acknowledged is durable; everything in memory is
// lost until the next New recovers it. The crash-injection harness uses it;
// production code wants Close.
func (g *Gateway) Kill() {
	_ = g.shutdown(true)
}

func (g *Gateway) shutdown(abandon bool) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.abandon = abandon
	var open []net.Conn
	if abandon {
		for c := range g.conns {
			open = append(open, c)
		}
	}
	g.mu.Unlock()
	err := g.lis.Close()
	if abandon {
		for _, c := range open {
			_ = c.Close()
		}
		if g.store != nil {
			// Fail the in-flight appends now, so handlers waiting on their
			// deferred replies get error completions instead of hanging.
			g.store.Kill()
		}
	}
	if !abandon && g.cfg.DrainTimeout > 0 {
		// Graceful drain is bounded: a peer that neither finishes nor hangs
		// up (half-open, mid-pipeline stall) must not wedge shutdown. Past
		// the deadline the stragglers are severed — their handlers see read
		// errors, finish their pending replies (shards are still running),
		// and exit; acknowledged durable syncs have committed by then, so
		// severance loses nothing a crash would not.
		drained := make(chan struct{})
		go func() {
			g.connWG.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(g.cfg.DrainTimeout):
			g.mu.Lock()
			stragglers := make([]net.Conn, 0, len(g.conns))
			for c := range g.conns {
				stragglers = append(stragglers, c)
			}
			g.mu.Unlock()
			g.log.Warn("drain deadline elapsed; severing connections",
				"deadline", g.cfg.DrainTimeout, "severed", len(stragglers))
			g.severed.Add(int64(len(stragglers)))
			for _, c := range stragglers {
				_ = c.Close()
			}
		}
	}
	g.connWG.Wait()
	if !abandon && !g.replica.Load() { // a replica has no followers to hand over to
		// Clients are drained, so the committed stream is final. Syncs that
		// committed during the drain window are still in the replication
		// rings; give connected followers a bounded chance to reach the
		// stream head — that is what makes a graceful handover lossless —
		// then sever the tails (they never finish on their own; a follower
		// rejoins whoever is primary next from its cursor).
		if fl, ok := g.cfg.Replicator.(replFlusher); ok {
			bound := g.cfg.DrainTimeout
			if bound <= 0 {
				bound = time.Second
			}
			fl.Flush(bound)
		}
		g.mu.Lock()
		repl := make([]net.Conn, 0, len(g.replConns))
		for c := range g.replConns {
			repl = append(repl, c)
		}
		g.mu.Unlock()
		for _, c := range repl {
			_ = c.Close()
		}
	}
	g.replWG.Wait()
	close(g.quit)
	g.shardWG.Wait()
	if g.store != nil && !abandon {
		if cerr := g.store.Close(); err == nil {
			err = cerr
		}
	}
	if g.tm.unreg != nil {
		g.tm.unreg()
	}
	return err
}

// Owners returns the number of tenant namespaces created so far.
func (g *Gateway) Owners() int { return int(g.ownerCount.Load()) }

// Sheds returns the total number of backpressure refusals issued across all
// connections — the fleet-health counter the load generator reports.
func (g *Gateway) Sheds() int64 { return g.refusals[wire.CodeBackpressure].Load() }

// QueryCacheStats snapshots the noise-reuse answer cache counters across
// every tenant (zero when Telemetry is disabled — the counters are the
// telemetry instruments themselves, read lock-free).
type QueryCacheStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
}

// QueryCacheStats returns the gateway-wide answer-cache counters — what the
// load generator reports as the cache hit ratio.
func (g *Gateway) QueryCacheStats() QueryCacheStats {
	return QueryCacheStats{
		Hits:          g.tm.cache.Hits.Value(),
		Misses:        g.tm.cache.Misses.Value(),
		Evictions:     g.tm.cache.Evictions.Value(),
		Invalidations: g.tm.cache.Invalidations.Value(),
	}
}

// shardFor routes an owner ID to its shard. The hash is stable for the
// gateway's lifetime, so one owner's requests always execute on one worker
// — that is what serializes a tenant without a tenant lock. The mapping is
// store.ShardFor so the durability layer's compaction homes each owner's
// recovered state with the worker that will serve it.
func (g *Gateway) shardFor(owner string) *shard {
	return g.shards[store.ShardFor(owner, len(g.shards))]
}

// onShard runs fn on sh's worker — with owner's tenant, nil if it has none —
// after everything already queued there, and waits for it. It reports false if
// the gateway shut down before fn ran: the worker drains its queue on
// shutdown, so a task that made it in is still served, and the waits select on
// quit in case it never was.
func (g *Gateway) onShard(sh *shard, owner string, fn func(tn *Tenant)) bool {
	done := make(chan struct{})
	t := task{owner: owner, peek: true, run: func(tn *Tenant, _ error) {
		fn(tn)
		close(done)
	}}
	select {
	case sh.tasks <- t:
	case <-g.quit:
		return false
	}
	select {
	case <-done:
		return true
	case <-g.quit:
		// The worker may still drain the task; prefer its answer if so.
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// ObservedPattern returns a copy of one owner's update-pattern transcript —
// the per-tenant leakage DP-Sync bounds. Unknown owners return an empty
// pattern. The read executes on the owner's shard worker, ordered with that
// owner's traffic. Racing a concurrent Close returns an empty pattern rather
// than blocking.
func (g *Gateway) ObservedPattern(owner string) leakage.Pattern {
	var out leakage.Pattern
	if !g.onShard(g.shardFor(owner), owner, func(tn *Tenant) {
		if tn != nil {
			out.Events = append(out.Events, tn.Events...)
		}
	}) {
		return leakage.Pattern{}
	}
	return out
}

// ObservedLedger returns a copy of one owner's privacy-budget ledger — the
// crash-consistent ε accounting the durability subsystem protects. Unknown
// owners return an empty ledger. The read executes on the owner's shard
// worker (same ordering and Close-race rules as ObservedPattern). Charges
// are spent at commit, in the same completion that records the transcript
// event, so the ledger always matches the transcript it is read next to.
func (g *Gateway) ObservedLedger(owner string) *dp.Budget {
	var out *dp.Budget
	if !g.onShard(g.shardFor(owner), owner, func(tn *Tenant) {
		if tn != nil {
			out = tn.Budget.Clone()
		}
	}) || out == nil {
		return dp.NewBudget()
	}
	return out
}

// OwnerCut executes fn on shard sid's worker with a commit-consistent copy
// of every established tenant's durable state on that shard (owners whose
// first sync has not committed are omitted — they have no durable history to
// transfer). Because fn runs on the same goroutine that feeds
// Replicator.Committed, a replication hub can record its stream position and
// take the cut atomically: every commit is either inside the cut or after
// the recorded basis, never both, never neither. The copies
// (OwnerState.Clone) are safe to read concurrently with the live shard.
// Returns false if the gateway shut down before fn could run.
func (g *Gateway) OwnerCut(sid int, fn func([]store.OwnerState)) bool {
	sh := g.shards[sid]
	return g.onShard(sh, "", func(*Tenant) {
		states := make([]store.OwnerState, 0, len(sh.owners))
		for _, tn := range sh.owners {
			if tn.Clock != 0 {
				states = append(states, tn.Clone())
			}
		}
		fn(states)
	})
}

// Store exposes the durability subsystem (nil in in-memory mode) so the
// replication hub can flush and stream history segments for snapshot
// transfers.
func (g *Gateway) Store() *store.Store { return g.store }

// Shards reports the resolved shard-worker count (Config.Shards after
// defaulting) — the replication hub sizes its per-shard stream state to it.
func (g *Gateway) Shards() int { return len(g.shards) }

// Closed is closed when the gateway has shut down (gracefully or by Kill) —
// the signal a cluster node's lease-renewal loop selects on to step down.
func (g *Gateway) Closed() <-chan struct{} { return g.quit }

// StoreMetrics reports the durability subsystem's counters; ok is false in
// in-memory mode.
func (g *Gateway) StoreMetrics() (m store.Metrics, ok bool) {
	if g.store == nil {
		return store.Metrics{}, false
	}
	return g.store.Metrics(), true
}

// ShardStatus is one shard worker's durable-progress view for the status
// plane: WAL entries appended but not yet group-committed, the shard's
// committed entry total, and — on a replica — the replication stream offset
// it has applied, which is the cursor its tail rejoins from.
type ShardStatus struct {
	Shard      int
	PendingWAL int64
	Committed  int64
	Applied    uint64
}

// ShardStatuses reports every shard's durable progress. It reads atomic
// mirrors the shard workers maintain — a status scrape never enqueues onto a
// shard, so it stays bounded no matter how deep the shard queues are.
func (g *Gateway) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(g.shards))
	for i, sh := range g.shards {
		out[i] = ShardStatus{
			Shard:      i,
			PendingWAL: sh.pendingAtomic.Load(),
			Committed:  sh.committedAtomic.Load(),
			Applied:    sh.appliedAtomic.Load(),
		}
	}
	return out
}

// DurableStatusText is the /statusz section for the durable path: the
// store's health line, then one line per shard — committed and pending WAL
// entries, the age of its last snapshot rotation, and the two sizes the
// rotation policy compares (the current image against the log written
// since). Shard aggregates only, and read from atomics: it names no tenant and
// never enqueues onto a shard.
func (g *Gateway) DurableStatusText() string {
	var b strings.Builder
	var rots []store.RotationStatus
	if g.store != nil {
		if g.store.Healthy() {
			b.WriteString("store: healthy\n")
		} else {
			b.WriteString("store: UNHEALTHY (group commit error latched; affected tenants suspended until restart)\n")
		}
		rots = g.store.RotationStatuses()
	}
	for _, ss := range g.ShardStatuses() {
		fmt.Fprintf(&b, "shard %d: committed=%d pending_wal=%d", ss.Shard, ss.Committed, ss.PendingWAL)
		if g.replica.Load() {
			fmt.Fprintf(&b, " applied=%d", ss.Applied)
		}
		if ss.Shard < len(rots) {
			r := rots[ss.Shard]
			if r.Age < 0 {
				b.WriteString(" last_snapshot=never")
			} else {
				fmt.Fprintf(&b, " last_snapshot=%s ago", r.Age.Round(time.Millisecond))
			}
			fmt.Fprintf(&b, " image_bytes=%d log_bytes_since=%d", r.ImageBytes, r.LogBytes)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ReplicaStats reports what the gateway did in replica role: read requests
// dispatched (refusals included), reads refused as stale, and tenants rebuilt
// from history after a failed ingest. The counters stop at Promote.
func (g *Gateway) ReplicaStats() (reads, stale, rebuilds int64) {
	return g.replicaReads.Load(), g.refusals[wire.CodeStale].Load(), g.rebuilds.Load()
}

// Live reports currently open client and replication connections.
func (g *Gateway) Live() (conns, repl int64) {
	return g.liveConns.Load(), g.liveRepl.Load()
}

// Recovery reports what New's recovery pass reconstructed (zero value in
// in-memory mode).
func (g *Gateway) Recovery() store.RecoveryInfo {
	if g.store == nil {
		return store.RecoveryInfo{}
	}
	return g.store.Info()
}

// handle speaks the gateway protocol on one connection: hello negotiation,
// then pipelined multiplexed frames until the peer hangs up, stalls past
// the read deadline, or exceeds the malformed-frame bound.
func (g *Gateway) handle(conn net.Conn) {
	// The handler arrives owning a connWG slot; a replication handover swaps
	// it for a replWG slot so client drain never waits on follower tails.
	swapped := false
	defer func() {
		if swapped {
			g.replWG.Done()
		} else {
			g.connWG.Done()
		}
	}()
	defer conn.Close()
	// Register for forced teardown (Kill severs live connections the way a
	// crash would); a connection accepted while an abandon is in progress
	// is dropped immediately.
	g.mu.Lock()
	if g.closed && g.abandon {
		g.mu.Unlock()
		return
	}
	g.conns[conn] = struct{}{}
	g.mu.Unlock()
	g.liveConns.Add(1)
	defer func() {
		g.liveConns.Add(-1)
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
	}()
	logged := 0
	logf := func(format string, args ...any) {
		if logged < maxErrorLogs {
			g.log.Warn(fmt.Sprintf(format, args...), "conn", conn.RemoteAddr().String())
			logged++
		}
	}

	if g.cfg.ReadTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(g.cfg.ReadTimeout))
	}
	kind, versionByte, err := wire.ReadAnyHello(conn)
	if err != nil {
		logf("rejecting connection: %v", err)
		return
	}
	if kind != wire.HelloRead && g.replica.Load() {
		// A replica serves readers only: a writer or a would-be follower gets
		// the refusal byte and moves on to whoever holds the lease.
		_ = wire.WriteHelloRefused(conn)
		return
	}
	if kind == wire.HelloRepl {
		// A follower asking to tail this node's WAL. Without a hub the
		// answer is a refusal (this gateway is not a cluster primary); with
		// one, the connection is handed over whole. Repl conns are tracked
		// separately so a graceful Close severs rather than drains them.
		if g.cfg.Replicator == nil {
			_ = wire.WriteHelloRefused(conn)
			return
		}
		g.mu.Lock()
		if g.closed {
			// Shutdown already snapshotted the tails it will sever; a late
			// joiner would outlive the severance pass and wedge replWG.
			g.mu.Unlock()
			_ = wire.WriteHelloRefused(conn)
			return
		}
		g.replConns[conn] = struct{}{}
		g.replWG.Add(1)
		g.mu.Unlock()
		g.connWG.Done()
		swapped = true
		g.liveRepl.Add(1)
		defer func() {
			g.liveRepl.Add(-1)
			g.mu.Lock()
			delete(g.replConns, conn)
			g.mu.Unlock()
		}()
		_ = conn.SetReadDeadline(time.Time{}) // the hub owns its own deadlines
		g.cfg.Replicator.ServeConn(conn, versionByte)
		return
	}
	// Whatever codec byte the hello proposed, the ack names the one codec
	// this build speaks; a client that cannot speak it hangs up.
	if err := wire.WriteHelloAck(conn, wire.CodecBinary); err != nil {
		return
	}

	fc := wire.NewConn(conn)
	fc.ReadTimeout, fc.WriteTimeout = g.cfg.ReadTimeout, g.cfg.WriteTimeout
	cc := &clientConn{
		g: g, readOnly: kind == wire.HelloRead, logf: logf,
		respCh: make(chan timedResponse, g.cfg.MaxInFlight+shedHeadroom),
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		cc.writeLoop(fc, conn)
	}()
	// One payload buffer for the connection's every frame: a sync is decoded
	// into its own entry frame and nothing else a request decodes to points
	// into the payload, so it is free again once admitFrame returns.
	var payload []byte
	for {
		var err error
		if cap(payload) > maxKeptPayload {
			payload = nil
		}
		payload, err = fc.ReadFrame(payload)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					logf("closing idle connection: no complete frame within %v", g.cfg.ReadTimeout)
				} else {
					logf("closing connection: %v", err)
				}
			}
			break
		}
		if !cc.admitFrame(payload) {
			break
		}
	}
	// In-flight tasks still owe responses; wait for them before tearing the
	// response channel down, then let the writer flush.
	cc.pending.Wait()
	close(cc.respCh)
	<-writerDone
}

// clientConn is one client connection's serving state: what its reader
// (handle), its writer goroutine, and the shard workers answering its
// requests share.
//
// Flow control invariant: inflight counts every admitted request and every
// reader-originated refusal from admission until the writer dequeues its
// response. Admission stops at MaxInFlight (wire.CodeBackpressure), and even
// refusals stop at MaxInFlight + shedHeadroom (the
// connection is severed instead). respCh's capacity is that same bound, so a
// shard worker's reply can NEVER block on a slow connection — the slow
// tenant sheds its own load while unrelated tenants on the same shard keep
// their latency.
type clientConn struct {
	g *Gateway
	// readOnly marks a connection opened with the read-only hello ("DPSQ"),
	// the only kind a replica accepts. It is served from the same path as a
	// full client — on a primary it is trivially fresh, so MinOffset never
	// refuses there — but its write half is disabled: syncs and resumes are
	// refused (wire.CodeNotPrimary) so a misrouted writer fails loudly instead
	// of mutating state over a connection negotiated as read-only.
	readOnly bool
	logf     func(format string, args ...any) // the handler's bounded logger; reader goroutine only
	// respCh carries responses to the writer; inflight is the flow-control
	// count and pending the reader's wait for owed replies.
	respCh    chan timedResponse
	inflight  atomic.Int64
	pending   sync.WaitGroup
	frameErrs int               // malformed frames so far; reader goroutine only
	owners    map[string]string // intern's table; reader goroutine only
}

// admit reserves an inflight slot for one response. Reader-side replies
// get a slot unconditionally up to the severance bound; shard-bound
// requests stop at the cap.
func (c *clientConn) admit() { c.inflight.Add(1); c.pending.Add(1) }

// reply queues one response for the writer, and counts it if it is a
// refusal — every reply passes here, from the reader and from the shards. It
// never blocks: respCh holds every response admit has reserved a slot for.
// at is when the response was ready (UnixNano), the start of its ack stage,
// if the caller has read the clock already; 0 reads it here when telemetry
// is on.
func (c *clientConn) reply(id uint64, resp wire.Response, tc telemetry.TraceContext, at int64) {
	if resp.Refusal != nil {
		c.g.refusals[resp.Refusal.Code].Add(1)
	}
	tr := timedResponse{resp: wire.GatewayResponse{ID: id, Resp: resp}, enq: at, tc: tc}
	if at == 0 && c.g.tm.on {
		tr.enq = time.Now().UnixNano()
	}
	c.respCh <- tr
	c.pending.Done()
}

// refuse answers a frame from the reader, without a shard.
func (c *clientConn) refuse(id uint64, code wire.RefusalCode, detail string) {
	c.admit()
	c.reply(id, wire.Refuse(code, 0, detail), telemetry.TraceContext{}, 0)
}

// intern returns the owner ID b names as a string, allocated only the first
// time the connection sees it: a pipelined connection carries a fleet's
// requests, and their owner IDs repeat. The table is bounded (maxInterned),
// so a peer that invents IDs grows nothing without limit. Reader goroutine
// only.
func (c *clientConn) intern(b []byte) string {
	if s, ok := c.owners[string(b)]; ok {
		return s
	}
	if c.owners == nil {
		c.owners = make(map[string]string)
	} else if len(c.owners) >= maxInterned {
		clear(c.owners)
	}
	s := string(b)
	c.owners[s] = s
	return s
}

// admitFrame is the reader's work for one frame: decode it, refuse it here
// (malformed, ownerless, an unsequenced sync, a write on a read-only
// connection, over the in-flight cap) or hand it to the owner's shard as a
// task — a sync decoded straight into the entry frame its batch will carry,
// so the frame's encode and CRC run here rather than on the serial shard
// worker, and nothing the task holds points into payload. It reports
// whether the connection keeps being served.
func (c *clientConn) admitFrame(payload []byte) bool {
	g := c.g
	maxInFlight := g.cfg.MaxInFlight
	if int(c.inflight.Load()) >= maxInFlight+shedHeadroom {
		// The peer ignored its window AND shedHeadroom refusals in a
		// row: the grace window is spent. Sever rather than shed again —
		// every further frame is free hostility.
		c.logf("severing connection: %d unanswered requests exceed in-flight cap %d + grace %d",
			c.inflight.Load(), maxInFlight, shedHeadroom)
		g.severed.Add(1)
		return false
	}
	f, err := wire.ParseGatewayRequest(payload)
	if err != nil {
		c.frameErrs++
		c.logf("malformed frame (%d/%d): %v", c.frameErrs, g.cfg.MaxFrameErrors, err)
		c.refuse(f.ID, wire.CodeBadRequest, err.Error())
		if c.frameErrs >= g.cfg.MaxFrameErrors {
			c.logf("closing connection after %d malformed frames", c.frameErrs)
			return false
		}
		return true
	}
	if len(f.Owner) == 0 {
		c.refuse(f.ID, wire.CodeBadRequest, "gateway: missing owner id")
		return true
	}
	setup := f.Req.Type == wire.MsgSetup
	sync := setup || f.Req.Type == wire.MsgUpdate
	if sync && f.Req.Seq == 0 {
		// Every sync claims its tick. Refused here, before the shard's
		// duplicate rule (0 ≤ any applied seq) could ack it as a retransmit,
		// and before a setup could allocate a namespace.
		c.refuse(f.ID, wire.CodeBadRequest, "gateway: unsequenced sync (seq 0)")
		return true
	}
	if c.readOnly && (sync || f.Req.Type == wire.MsgResume) {
		c.refuse(f.ID, wire.CodeNotPrimary, "")
		return true
	}
	if int(c.inflight.Load()) >= maxInFlight {
		// Load shed: refuse without touching tenant state, so the client can
		// back off and retry — application state (clock, ledger, transcript)
		// is untouched, which is what keeps a shed privacy-neutral.
		c.refuse(f.ID, wire.CodeBackpressure, "")
		return true
	}
	owner := c.intern(f.Owner)
	// Only the setup protocol creates a namespace (peek otherwise):
	// queries, updates, resumes, and stats probes against unknown owners
	// must not let a read-only request stream allocate backend state.
	t := task{owner: owner, peek: !setup, req: f.Req}
	if sync {
		// The entry this sync's batch will carry if the shard applies it:
		// Seq is its tick. A frame the codec accepted always fits one.
		e, err := store.SyncEntry(owner, f.Req.Seq, setup, g.chargeFor(setup), f.Width, f.Block)
		if err != nil {
			c.refuse(f.ID, wire.CodeBadRequest, err.Error())
			return true
		}
		t.bt = e.Batch
	}
	c.admit()
	// Admission is the first stage boundary: one clock read starts the
	// queue-wait stage and the trace, and one atomic add decides sampling.
	var tc telemetry.TraceContext
	if g.tm.on || g.cfg.Tracer != nil {
		now := time.Now()
		t.at = now.UnixNano()
		tc = g.cfg.Tracer.Admit("client-admit", now)
		if tc.Sampled() && g.cfg.DebugTenantMetrics {
			// Tenant identity on a trace only behind the same debug gate
			// as per-tenant metrics, and only as the owner hash.
			tc.SetAttr("owner_hash=" + telemetry.OwnerHash(owner))
		}
	}
	t.reply = replyTo{conn: c, id: f.ID, tc: tc}
	// A reader that outlives the shard workers (its accept raced Close's
	// wait for connections) must not leave a task in a queue nobody serves:
	// quit is checked first — a nil queue takes nothing — then raced against
	// a full one.
	tasks := g.shardFor(owner).tasks
	select {
	case <-g.quit:
		tasks = nil
	default:
	}
	select {
	case tasks <- t:
	case <-g.quit:
		t.reply.send(wire.Refuse(wire.CodeClosing, 0, ""))
	}
	return true
}

// writeLoop is the connection's writer goroutine: it serializes responses
// onto fc until respCh closes. Responses arrive from shard workers out of
// order (that is the point of pipelining); request IDs let the client
// re-match them. Each dequeued response is encoded into fc's buffer, and the
// buffer goes to the socket when respCh is empty — so a response with
// nothing queued behind it is written at once, and responses that were
// already waiting share one write. Nothing is ever held back for a timer or
// for a later frame. Once a write fails or times out — the write-stall
// deadline, armed by fc before every socket write — the writer turns into a
// drain AND severs the connection, so the reader stops admitting work for a
// peer that has stopped consuming responses.
func (c *clientConn) writeLoop(fc *wire.Conn, conn net.Conn) {
	g := c.g
	timed := g.tm.on || g.cfg.Tracer != nil
	// unflushed are the responses encoded since the last flush: their ack
	// stage and their traces end when their bytes are on the wire, not when
	// they are encoded.
	var unflushed []timedResponse
	dead := false
	for r := range c.respCh {
		// The slot frees at dequeue, flushed or not: the response has left
		// the queue a shard worker could block on.
		c.inflight.Add(-1)
		if dead {
			continue
		}
		b, err := wire.AppendGatewayResponse(fc.BeginFrame(), r.resp)
		if err != nil {
			g.log.Error("encoding response failed; severing connection",
				"conn", conn.RemoteAddr().String(), "err", err)
		} else if _, err = fc.EndFrame(b); err == nil {
			if timed {
				r.resp = wire.GatewayResponse{}
				unflushed = append(unflushed, r)
			}
			if len(c.respCh) == 0 {
				if err = fc.Flush(); err == nil {
					c.acked(unflushed)
					unflushed = unflushed[:0]
				}
			}
		}
		if err != nil {
			// Sever: the peer stalled past the write deadline (or the
			// stream is unencodable). Closing the conn breaks the
			// reader out of its blocking read, so the connection
			// winds down instead of half-living as a request sink.
			dead = true
			g.severed.Add(1)
			conn.Close()
		}
	}
}

// acked ends the ack stage and the trace of every response a flush just put
// on the wire, all at the flush's one clock read, and drops the batch's trace
// records.
func (c *clientConn) acked(batch []timedResponse) {
	if len(batch) == 0 {
		return
	}
	now := time.Now()
	ns := now.UnixNano()
	for _, r := range batch {
		if r.enq != 0 {
			c.g.tm.ack.ObserveEx(float64(ns-r.enq)/1e3, r.tc.TraceID())
		}
		// The request's trace ends here (root span client-admit = admission
		// → ack written). Unsampled-but-slow syncs are captured by the same
		// call.
		c.g.cfg.Tracer.Finish(r.tc, "client-admit", now)
	}
	clear(batch)
}
