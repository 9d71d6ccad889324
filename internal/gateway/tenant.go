package gateway

import (
	"fmt"
	"time"

	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/leakage"
	"dpsync/internal/oblidb"
	"dpsync/internal/qcache"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// Tenant is one owner's namespace, and the one state machine every node
// advances an owner through: the owner's committed durable state (the
// embedded store.OwnerState — logical clock, ε ledger, spilled history refs
// and hot history tail), the adversary-view transcript derived from that
// history, a private encrypted backend holding the batches of ticks 1..Clock,
// and a noise-reuse answer cache over that backend. No owner's state is shared
// with another's, so the per-owner-transcript isolation invariant is
// structural; what tenants share is read-only and owner-free — the node's
// sealer and the cost model, through the backend — so a new tenant costs only
// what it holds (TestTenantFixedCost).
//
// The machine has two transitions and one observation:
//
//   - Ingest lands a sealed batch in the backend.
//   - Commit advances the committed state by that batch (OwnerState.Apply:
//     clock, ledger charge, history tail — all or nothing), then records its
//     transcript event and drops the answer cache.
//   - Read answers a stats request or a query from the backend, the query
//     through the answer cache.
//
// Three drivers sequence them. The live gateway ingests at apply time and
// commits when the sync's WAL entry has group-committed (immediately without
// a store), so a sync is observable only once it is durable and the charge is
// spent with the transcript event, never before. Recovery (Tenants.Replay,
// called only when a gateway opens its directory) installs the recovered
// OwnerState and ingests its history, and derives the ledger and the
// transcript from it, through Store.StreamHistory. A replica-role gateway
// commits, then ingests, each shipped entry in one task (Gateway.Replicate):
// the primary already committed it. Whichever driver runs it, the backend
// holds exactly the batches the OwnerState counts whenever a Read may run —
// the live driver parks reads behind uncommitted syncs, the other two never
// leave the gap open, and a tenant whose ingest failed is suspended, never
// rebuilt (Gateway.applyEntry says why).
//
// A Tenant is not safe for concurrent use: the gateway confines each to its
// shard worker.
type Tenant struct {
	*store.OwnerState
	// events is the update pattern, one event per committed batch: derived
	// from the history, never persisted. Commit appends, Replay rebuilds.
	events []leakage.Event
	env    *Tenants
	db     backend
	// cts is Ingest's scratch for handing a batch to the backend as
	// []seal.Sealed, reused so a steady-state sync allocates no header copy. It
	// is cleared after every call, so it pins no ciphertext, and kept only up
	// to ingestScratch headers, so a bulk setup load leaves nothing behind.
	cts []seal.Sealed
	// qc holds released query responses keyed by the full QuerySpec, served
	// without touching the backend (a released DP answer is already noised —
	// re-serving it is pure post-processing and spends nothing). RAM-only by
	// design: Commit drops it where Clock advances — never at ingest — so a
	// cached answer cannot outlive the committed state it was computed from,
	// and recovery always starts cold. The zero Cache, which holds nothing,
	// when Config.QueryCache is negative.
	qc qcache.Cache

	// The rest is the live driver's; a replica keeps seq at Clock and failed
	// for a tenant it must not serve.

	// seq is the apply-time upload counter: it assigns each ingest its
	// logical tick before the WAL entry is built, so pipelined syncs of one
	// owner get consecutive ticks while earlier commits are still in
	// flight. seq == Clock whenever the shard is quiesced.
	seq uint64
	// epsSpent caches Budget.Spent() so the commit path can move this
	// tenant's membership in the fleet ε distribution without re-summing the
	// ledger per sync.
	epsSpent float64
	// failed latches after a durable sync's group commit reports an error:
	// the outcome of that sync is indeterminate (its frame may or may not
	// have reached disk), so accepting further syncs would let the live
	// clock run past a possible gap and diverge from what recovery can
	// prove. A failed tenant refuses syncs until a restart re-derives its
	// state from the log.
	failed bool
	// deferred holds reads (queries, stats) that arrived while this
	// owner's earlier syncs were ingested but not yet committed. The
	// backend already contains those batches, so answering immediately
	// would (a) expose state a crash could make unrecoverable and (b) let
	// the read's response overtake the earlier sync's ack, breaking
	// per-owner FIFO. Each entry waits for the commit of the syncs that
	// preceded it (waitSeq) and runs on the shard worker from the commit
	// completion.
	deferred []deferredRead
}

// deferredRead is one parked request: run answers it, unless the tenant
// failed while it waited.
type deferredRead struct {
	waitSeq uint64
	reply   replyTo
	run     func() wire.Response
}

// flushDeferred runs every parked read whose awaited syncs have committed
// (all of them if the tenant failed — they must still be answered, with
// the failure). Runs on the shard worker.
func (tn *Tenant) flushDeferred() {
	for len(tn.deferred) > 0 {
		d := tn.deferred[0]
		if !tn.failed && d.waitSeq > tn.Clock {
			return
		}
		tn.deferred = tn.deferred[1:]
		if tn.failed {
			d.reply.send(wire.Refuse(wire.CodeSuspended, 0, ""))
		} else {
			d.reply.send(d.run())
		}
	}
}

// ingestScratch bounds the header scratch a tenant keeps between syncs (24
// bytes each): DP-Timer/ANT syncs are a handful of records, and anything
// larger is a setup load whose scratch is not worth holding per tenant.
const ingestScratch = 64

// backend is what a tenant needs of its encrypted database: an edb.Database
// that ingests a sealed batch itself, so a batch is opened only behind the
// backend's own boundary (the ObliDB enclave, the Cryptε aggregation
// service), never by the gateway.
type backend interface {
	edb.Database
	SetupSealed([]seal.Sealed) error
	UpdateSealed([]seal.Sealed) error
}

// CacheMetrics are the answer-cache instruments a Tenant reports into. Nil
// handles no-op, and a nil Serve also skips the clock reads that time a hit.
type CacheMetrics struct {
	Hits, Misses, Evictions, Invalidations *telemetry.Counter
	Serve                                  *telemetry.Histogram // cache-hit service time, microseconds
}

// Tenants is what all of one node's tenant machines share: how a backend is
// built, the backend the node states in its hello ack, and the answer cache's
// capacity and instruments. NewTenants is the one place a Config's Key,
// NewBackend and QueryCache are resolved, in either role — so a replica's
// machine is what recovery over its directory would build.
type Tenants struct {
	newBackend func(owner string) (edb.Database, error)
	identity   wire.Backend
	qcap       int
	cm         CacheMetrics
}

// NewTenants resolves cfg's backend constructor. Nil means a per-owner ObliDB
// instance whose enclave opens with the node's one sealer for Key, which is
// then required; a NewBackend's backends hold their own keys. The node's
// backend is read once, here, from one built for no owner. A constructor may
// refuse a name it does not serve, that one included (a stub that builds only
// the namespaces of its workload, say); such a node states the class L2,
// which no §6 gate passes, under the scheme "unidentified".
func NewTenants(cfg Config, cm CacheMetrics) (*Tenants, error) {
	ts := &Tenants{newBackend: cfg.NewBackend, qcap: cfg.QueryCache, cm: cm}
	if ts.newBackend == nil {
		s, err := seal.NewSealer(cfg.Key)
		if err != nil {
			return nil, fmt.Errorf("gateway: default ObliDB backend: %w", err)
		}
		ts.newBackend = func(string) (edb.Database, error) { return oblidb.NewWithSealer(s), nil }
	}
	ts.identity = wire.Backend{Scheme: "unidentified", Leakage: edb.L2}
	if db, err := ts.newBackend(""); err == nil {
		ts.identity = wire.Backend{Scheme: db.Name(), Leakage: db.Leakage()}
	}
	return ts, nil
}

// backend builds owner's backend, refusing one that cannot ingest a sealed
// batch.
func (ts *Tenants) backend(owner string) (backend, error) {
	db, err := ts.newBackend(owner)
	if err != nil {
		return nil, fmt.Errorf("gateway: backend for %q: %w", owner, err)
	}
	b, ok := db.(backend)
	if !ok {
		return nil, fmt.Errorf("gateway: backend %q has no sealed ingest", db.Name())
	}
	return b, nil
}

// New builds an empty machine — clock zero, empty ledger — over a fresh
// backend.
func (ts *Tenants) New(owner string) (*Tenant, error) {
	db, err := ts.backend(owner)
	if err != nil {
		return nil, err
	}
	tn := &Tenant{OwnerState: &store.OwnerState{Owner: owner, Budget: dp.NewBudget()}, env: ts, db: db}
	if ts.qcap >= 0 {
		tn.qc = qcache.New(ts.qcap)
	}
	return tn, nil
}

// Replay rebuilds the machine of one committed state: the ledger, the backend
// and the transcript are reconstructed together by *streaming* st's durable
// batch history — spilled runs straight off their history segments, then the
// inline tail — each batch's logged charge into a fresh ledger, the batch
// through Ingest and into its event, and st itself, already the committed
// clock and history, becomes the machine's state. A restart thus derives its
// ledger the way a follower and a snapshot transfer do: from the charges the
// history carries, re-spent once each. The spilled tier is never
// materialized; per-batch memory is one frame. st must be a state store.Open
// returned: Open has flushed every spill its compaction made, so each ref
// names bytes in a file.
func (ts *Tenants) Replay(s *store.Store, st *store.OwnerState) (*Tenant, error) {
	tn, err := ts.New(st.Owner)
	if err != nil {
		return nil, err
	}
	st.Budget = tn.Budget // New's empty ledger
	tn.OwnerState, tn.seq = st, st.Clock
	tn.events = make([]leakage.Event, 0, st.Clock)
	if err := s.StreamHistory(st, func(bt store.Batch) error {
		if err := bt.Charge.Spend(st.Budget); err != nil {
			return fmt.Errorf("tick %d: %w", bt.Tick, err)
		}
		if err := tn.Ingest(bt.Setup, bt.Sealed); err != nil {
			return fmt.Errorf("tick %d: %w", bt.Tick, err)
		}
		tn.events = append(tn.events, event(bt))
		return nil
	}); err != nil {
		return nil, fmt.Errorf("gateway: replaying owner %q: %w", st.Owner, err)
	}
	return tn, nil
}

// Ingest hands one sealed batch to the backend verbatim: the backend alone
// opens it.
func (tn *Tenant) Ingest(setup bool, sealed [][]byte) error {
	cts := tn.cts[:0]
	for _, b := range sealed {
		cts = append(cts, seal.Sealed(b))
	}
	var err error
	if setup {
		err = tn.db.SetupSealed(cts)
	} else {
		err = tn.db.UpdateSealed(cts)
	}
	clear(cts)
	if cap(cts) <= ingestScratch {
		tn.cts = cts[:0]
	}
	return err
}

// Commit makes an ingested batch part of the committed state: the sync
// becomes observable — its transcript event recorded and its charge spent —
// only here, so ledger, transcript, clock and history always describe the
// same committed prefix (what snapshots persist and recovery rebuilds). The
// answer cache is dropped in the same step, before any read can run against
// the new clock. A refused charge changes nothing and records nothing.
func (tn *Tenant) Commit(bt store.Batch) error {
	if err := tn.Apply(bt); err != nil {
		return err
	}
	tn.events = append(tn.events, event(bt))
	if n := tn.qc.Invalidate(); n > 0 {
		tn.env.cm.Invalidations.Add(int64(n))
	}
	return nil
}

// event is what the adversary observes of one committed batch: its tick and
// volume, the records its messages seal (one message or one per record).
func event(bt store.Batch) leakage.Event {
	n := 0
	for _, ct := range bt.Sealed {
		n += seal.Records(len(ct))
	}
	return leakage.Event{Tick: record.Tick(bt.Tick), Volume: n}
}

// Read evaluates a stats request or a query (req.Query non-nil) against the
// backend, the query through the answer cache. Drivers call it only while
// the backend holds exactly the committed batches, and Commit drops the cache
// where Clock advances, so a hit can only re-serve bytes the current
// committed state would recompute identically — and re-serving a released DP
// answer spends zero additional ε.
func (tn *Tenant) Read(req wire.Request) wire.Response {
	if req.Type == wire.MsgStats {
		return wire.NewStatsResponse(tn.db.Stats())
	}
	spec := *req.Query
	cm := &tn.env.cm
	if tn.env.qcap >= 0 {
		var start time.Time
		if cm.Serve != nil {
			start = time.Now()
		}
		if resp, ok := tn.qc.Get(spec); ok {
			cm.Hits.Inc()
			if cm.Serve != nil {
				cm.Serve.ObserveSince(start)
			}
			return resp
		}
		cm.Misses.Inc()
	}
	q := spec.ToQuery()
	ans, cost, err := tn.db.Query(q)
	if err != nil {
		return failed(err)
	}
	// The one place an answer's width and layout are bound: by the kind and
	// by the records this node's store holds — a replica's its applied
	// prefix — so a cached answer keeps the layout it was computed at until
	// Commit, which moves the count, drops it.
	resp := wire.NewBoundedQueryResponse(ans, cost, q.Kind, tn.db.Stats().Records)
	if tn.qc.Put(spec, resp) {
		cm.Evictions.Inc()
	}
	return resp
}
