package gateway

import (
	"fmt"
	"sync/atomic"
	"time"

	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/leakage"
	"dpsync/internal/qcache"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// task is one unit of shard work, executed on the shard worker goroutine
// against the owner's resolved tenant: a client request (req, answered
// through reply) dispatched directly, or — for the gateway's own peeks and
// cuts — the run closure. Tasks for one owner execute in the order they were
// enqueued — the shard worker is the serialization point for an owner's
// state; no tenant lock exists.
type task struct {
	owner string
	// peek makes tenant resolution non-creating. Everything except the
	// setup protocol peeks: transcript reads, queries, updates, and stats
	// probes must not allocate a namespace for an owner that never ran
	// setup (MaxOwners bounds *established* tenants, and a hostile
	// read-only request stream must not be able to reach it).
	peek bool
	// req and reply are a client request and where its one response goes.
	// They ride in the task by value, so admitting a request allocates no
	// closure; run is nil then.
	req   wire.Request
	reply replyTo
	run   func(tn *tenant, err error)
	// at is the enqueue timestamp (UnixNano; 0 when telemetry and tracing are
	// both off) — the shard worker observes queue wait at dequeue.
	at int64
}

// replyTo addresses one request's response: the connection that asked, the
// request ID the client matches on, and the request's trace context (zero
// when unsampled) under whose root the shard worker records the queue-wait
// and apply spans. A reply deferred behind a commit captures it in a closure;
// every other reply is a direct send.
type replyTo struct {
	conn *clientConn
	id   uint64
	tc   telemetry.TraceContext
}

// send delivers the request's one response.
func (r replyTo) send(resp wire.Response) { r.conn.reply(r.id, resp, r.tc) }

// shard is one worker's state: its task queue, its commit-completion queue,
// and the tenants hashed onto it. owners and the WAL bookkeeping fields are
// touched only by the shard's goroutine — no lock.
type shard struct {
	id          int
	tasks       chan task
	completions chan func()
	owners      map[string]*tenant

	// pendingWAL counts this shard's appended-but-uncommitted entries;
	// sinceSnap counts appends since the last snapshot; snapWanted asks the
	// worker to quiesce and rotate. snapThreshold is the rotation trigger:
	// it starts at Config.SnapshotEvery and grows with the shard's total
	// history (a snapshot rewrites the whole history, so a fixed interval
	// would cost O(n²) I/O over a long-lived shard; a geometric interval
	// keeps the rewrite amortized). Durable mode only.
	pendingWAL    int
	sinceSnap     int
	snapWanted    bool
	snapThreshold int

	// pendingAtomic mirrors pendingWAL and committedAtomic counts committed
	// entries, both written only by the shard worker. They exist so the
	// telemetry collector and ShardStatuses can read durable progress without
	// enqueuing onto the shard — a scrape must never wait behind tenant work.
	pendingAtomic   atomic.Int64
	committedAtomic atomic.Int64
}

// tenant is one owner's namespace: its private encrypted store, its private
// update-pattern transcript, its private logical clock, and its private
// privacy-budget ledger. Nothing in here is shared across owners; the
// per-owner-transcript isolation invariant is structural.
type tenant struct {
	db     edb.Database
	sealed sealedStore // non-nil when the backend ingests ciphertexts directly
	// observed is this owner's adversary-view transcript; ticks is the
	// owner's *committed* server-side logical clock. In durable mode both
	// advance only when the sync's WAL entry has group-committed — the
	// sync-observable half of the spend-before-sync invariant. Without a
	// store they advance at apply time, exactly like the single-owner
	// reference (the differential test pins the two transcripts
	// bit-identical either way).
	observed leakage.Pattern
	ticks    int
	// seq is the apply-time upload counter: it assigns each ingest its
	// logical tick before the WAL entry is built, so pipelined syncs of one
	// owner get consecutive ticks while earlier commits are still in
	// flight. seq == ticks whenever the shard is quiesced.
	seq uint64
	// budget is the owner's ε ledger. A sync's charge is validated
	// (CanCharge) before the batch touches the backend and spent at commit
	// together with the transcript event — the charge rides inside the WAL
	// entry, so it is durable before the sync is observable, and the
	// in-memory ledger always equals the committed history's spend.
	budget *dp.Budget
	// history is the *hot tail* of the ingest history in tick order,
	// appended at commit time. With Config.HistoryWindow set, batches past
	// the window spill to on-disk history segments and only their refs
	// stay here (spilled); snapshots persist refs + tail, so log
	// truncation loses nothing and RAM stays bounded by the window. With
	// window 0 the tail is the whole history. Durable mode only (nil
	// otherwise).
	history []store.Batch
	// spilled references the cold history runs, in tick order, contiguous
	// from tick 1; history continues where they end.
	spilled []store.SegmentRef
	// epsSpent caches budget.Spent() so the commit path can move this
	// tenant's membership in the fleet ε distribution without re-summing the
	// ledger per sync. Shard-worker-only, like every other tenant field.
	epsSpent float64
	// failed latches after a durable sync's group commit reports an error:
	// the outcome of that sync is indeterminate (its frame may or may not
	// have reached disk), so accepting further syncs would let the live
	// clock run past a possible gap and diverge from what recovery can
	// prove. A failed tenant refuses syncs until a restart re-derives its
	// state from the log.
	failed bool
	// deferred holds reads (queries, stats) that arrived while this
	// owner's earlier syncs were applied but not yet committed. The
	// backend already contains those batches, so answering immediately
	// would (a) expose state a crash could make unrecoverable and (b) let
	// the read's response overtake the earlier sync's ack, breaking
	// per-owner FIFO. Each entry waits for the commit of the syncs that
	// preceded it (waitSeq) and runs on the shard worker from the commit
	// completion.
	deferred []deferredRead
	// qc is the owner's noise-reuse answer cache: released query responses
	// keyed by the full QuerySpec, served without touching the backend (a
	// released DP answer is already noised — re-serving it is pure post-
	// processing and spends nothing). RAM-only by design: it is invalidated
	// where ticks advances — at *commit*, never at apply — so a cached
	// answer cannot outlive the committed state it was computed from, and
	// recovery always starts cold. Shard-worker-only like every other
	// tenant field; nil when Config.QueryCache is negative.
	qc *qcache.Cache
}

// deferredRead is one parked read: run(false) executes it, run(true)
// refuses it because the tenant failed while it waited.
type deferredRead struct {
	waitSeq uint64
	run     func(failed bool)
}

// flushDeferred runs every parked read whose awaited syncs have committed
// (all of them if the tenant failed — they must still be answered, with
// the failure). Runs on the shard worker.
func (tn *tenant) flushDeferred() {
	for len(tn.deferred) > 0 {
		d := tn.deferred[0]
		if !tn.failed && d.waitSeq > uint64(tn.ticks) {
			return
		}
		tn.deferred = tn.deferred[1:]
		d.run(tn.failed)
	}
}

// sealedStore is the optional backend fast path for substrates that accept
// sealed ciphertexts without opening them (the ObliDB enclave boundary).
type sealedStore interface {
	SetupSealed([]seal.Sealed) error
	UpdateSealed([]seal.Sealed) error
}

// runShard is the worker loop. Completions (commit callbacks from the WAL
// writer) and tasks are served from one goroutine, so every tenant mutation
// — apply-time and commit-time alike — stays single-threaded. When a
// snapshot is due the worker quiesces: it stops taking new tasks, drains
// its in-flight commits, rotates the log, then resumes.
//
// The loop exits when the gateway closes; by then every connection has
// drained (Close waits for handlers before signaling quit), so only
// transcript peeks from a racing ObservedPattern/ObservedLedger can still
// be queued — the drain below serves them instead of stranding the caller.
func (g *Gateway) runShard(sh *shard) {
	defer g.shardWG.Done()
	serve := func(t task) {
		if t.at != 0 {
			now := time.Now()
			g.tm.qwait.ObserveEx(float64(now.UnixNano()-t.at)/1e3, t.reply.tc.TraceID())
			t.reply.tc.Record("queue-wait", time.Unix(0, t.at), now)
		}
		tn, err := g.tenantFor(sh, t.owner, t.peek)
		switch {
		case t.run != nil:
			t.run(tn, err)
		case err != nil:
			t.reply.send(wire.Response{Error: err.Error()})
		default:
			g.dispatch(sh, tn, t.owner, t.req, t.reply)
		}
	}
	for {
		if sh.snapWanted && sh.pendingWAL == 0 {
			g.snapshotShard(sh)
			sh.snapWanted, sh.sinceSnap = false, 0
		}
		if sh.snapWanted {
			// Quiesce: only commit completions until in-flight appends
			// drain. New tasks wait in the queue; backpressure propagates
			// through the bounded channel to the connection readers.
			select {
			case f := <-sh.completions:
				f()
			case <-g.quit:
				g.drainShard(sh, serve)
				return
			}
			continue
		}
		select {
		case f := <-sh.completions:
			f()
		case t := <-sh.tasks:
			serve(t)
		case <-g.quit:
			g.drainShard(sh, serve)
			return
		}
	}
}

// drainShard serves whatever is still queued at shutdown and waits out the
// shard's in-flight WAL commits, so no caller is stranded mid-reply. On the
// graceful path the queues are already empty (Close waited for every
// connection, and every connection waited for its replies); on the Kill
// path the store has already failed the pending entries, so the completions
// arrive promptly with errors.
func (g *Gateway) drainShard(sh *shard, serve func(task)) {
	for {
		select {
		case f := <-sh.completions:
			f()
		case t := <-sh.tasks:
			serve(t)
		default:
			if sh.pendingWAL == 0 {
				return
			}
			f := <-sh.completions
			f()
		}
	}
}

// tenantFor resolves (and unless peeking, creates) the owner's tenant. Runs
// on the shard worker only.
func (g *Gateway) tenantFor(sh *shard, owner string, peek bool) (*tenant, error) {
	if tn, ok := sh.owners[owner]; ok {
		return tn, nil
	}
	if peek {
		return nil, nil
	}
	if int(g.ownerCount.Load()) >= g.cfg.MaxOwners {
		return nil, fmt.Errorf("gateway: owner limit %d reached", g.cfg.MaxOwners)
	}
	tn, err := g.newTenant(owner)
	if err != nil {
		return nil, err
	}
	sh.owners[owner] = tn
	g.ownerCount.Add(1)
	// Enroll the new tenant in the fleet ε distribution at zero spend;
	// commits Move it up. Recovered tenants enroll in openStore instead, at
	// their replayed spend.
	g.tm.eps.Add(0)
	return tn, nil
}

// newTenant builds a namespace around a fresh backend (shared by live setup
// and crash recovery).
func (g *Gateway) newTenant(owner string) (*tenant, error) {
	db, err := g.cfg.NewBackend(owner)
	if err != nil {
		return nil, fmt.Errorf("gateway: backend for %q: %w", owner, err)
	}
	tn := &tenant{db: db, budget: dp.NewBudget()}
	if g.cfg.QueryCache >= 0 {
		tn.qc = qcache.New(g.cfg.QueryCache)
	}
	if ss, ok := db.(sealedStore); ok {
		tn.sealed = ss
	} else if g.sealer == nil {
		return nil, fmt.Errorf("gateway: backend %q has no sealed-ingest path and gateway has no ingress key", db.Name())
	}
	return tn, nil
}

// ingest lands one sealed batch in the tenant's backend: verbatim for
// enclave-style backends, through the ingress sealer for record-level ones.
// Shared by live dispatch and recovery replay, so the two paths cannot
// diverge.
func (g *Gateway) ingest(tn *tenant, setup bool, cts []seal.Sealed) error {
	if tn.sealed != nil {
		// Enclave-style backend: ciphertexts pass through verbatim; the
		// gateway never opens records destined for an enclave.
		if setup {
			return tn.sealed.SetupSealed(cts)
		}
		return tn.sealed.UpdateSealed(cts)
	}
	// Aggregation-service-style backend: the transport sealing ends here
	// (the ingress boundary) and the records continue into the substrate,
	// which applies its own encoding/encryption.
	rs, err := g.sealer.OpenAll(cts)
	if err != nil {
		return err
	}
	if setup {
		return tn.db.Setup(rs)
	}
	return tn.db.Update(rs)
}

// chargeFor names the ledger expenditure one sync incurs. The charge is
// carried inside the sync's WAL entry, so recovery re-spends what the
// original run spent even if the configured epsilon has since changed.
func (g *Gateway) chargeFor(setup bool) store.Charge {
	name := "m_update"
	if setup {
		name = "m_setup"
	}
	return store.Charge{Name: name, Eps: g.cfg.SyncEpsilon, Rule: dp.Sequential}
}

// dispatch executes one EDB protocol message against a tenant and delivers
// the response through reply — synchronously for queries, stats, and
// in-memory syncs; deferred to the WAL group commit for durable syncs
// (spend-before-sync: the charge and the entry are durable before the ack
// and the transcript event exist). reply.send is invoked exactly once. tn is
// nil for owners that never ran setup (see task.peek); those requests are
// answered without materializing the namespace. Stage spans land under the
// root of reply.tc, and durable syncs thread it through the WAL to the
// replication hub.
func (g *Gateway) dispatch(sh *shard, tn *tenant, owner string, req wire.Request, reply replyTo) {
	tc := reply.tc
	if tn == nil {
		reply.send(g.dispatchUnknown(owner, req))
		return
	}
	if tn.failed {
		// The tenant's backend may hold a batch whose durability is
		// indeterminate; serving *anything* from it (queries and stats
		// included) would expose state a restart may not reconstruct.
		reply.send(wire.Response{Error: "gateway: a durable sync failed for this owner; restart to recover"})
		return
	}
	switch req.Type {
	case wire.MsgResume:
		// The reconnect handshake: report the owner's committed clock. The
		// answer is immediate even while earlier syncs are applied-but-
		// uncommitted (tn.seq > tn.ticks) — a client replaying from the
		// committed clock re-sends those seqs, and the duplicate path below
		// parks their acks on the original commits, so resume can never
		// promise more than recovery could prove.
		g.tm.resumes.Inc()
		reply.send(wire.Response{OK: true, Resume: &wire.ResumeSpec{Clock: uint64(tn.ticks)}})

	case wire.MsgSetup, wire.MsgUpdate:
		setup := req.Type == wire.MsgSetup
		// Tick-ordered idempotent apply. A sequenced sync (req.Seq != 0)
		// claims a specific logical tick:
		//   - seq == tn.seq+1: the next tick — apply normally below.
		//   - seq <= tn.seq: already applied. A retransmit (the client lost
		//     the ack, not the sync) is acknowledged WITHOUT re-ingesting or
		//     re-charging the ε ledger — this is the invariant that makes
		//     reconnect replay privacy-safe. The ack waits for the original
		//     commit if it is still in flight, so a duplicate ack is never
		//     a stronger durability claim than the first would have been.
		//   - seq > tn.seq+1: a gap — the client skipped a sync. Refuse
		//     without touching state; applying out of order would let a
		//     distorted schedule masquerade as the DP-optimized one.
		// Seq 0 is the legacy single-shot behavior: assign the next tick.
		if req.Seq != 0 {
			if req.Seq <= tn.seq {
				g.serveDuplicateAck(tn, req.Seq, reply)
				return
			}
			if req.Seq != tn.seq+1 {
				reply.send(wire.Response{Error: fmt.Sprintf(
					"gateway: sync gap: got seq %d, expected %d", req.Seq, tn.seq+1)})
				return
			}
		}
		// Validate the ledger charge before any irreversible step: a
		// refused charge (epsilon/rule drift against a recovered ledger)
		// must refuse the sync while the backend is still untouched. The
		// spend itself happens at commit, alongside the transcript event —
		// both are carried by the WAL entry, so the durable order is still
		// spend-with-sync-record before observability.
		charge := g.chargeFor(setup)
		if err := tn.budget.CanCharge(charge.Name, charge.Eps, charge.Rule); err != nil {
			reply.send(wire.Response{Error: err.Error()})
			return
		}
		cts := make([]seal.Sealed, len(req.Sealed))
		for i, b := range req.Sealed {
			cts[i] = seal.Sealed(b)
		}
		var applyStart time.Time
		if g.tm.on || tc.Sampled() {
			applyStart = time.Now()
		}
		if err := g.ingest(tn, setup, cts); err != nil {
			reply.send(wire.Response{Error: err.Error()})
			return
		}
		if !applyStart.IsZero() {
			g.tm.apply.ObserveSinceEx(applyStart, tc.TraceID())
			tc.Record("apply", applyStart, time.Now())
		}
		tn.seq++
		tick, volume := tn.seq, len(cts)
		if g.store == nil {
			// In-memory mode: commit is immediate.
			tn.ticks = int(tick)
			g.invalidateCache(tn)
			tn.observed.Record(record.Tick(tick), volume, false)
			if err := tn.budget.Charge(charge.Name, charge.Eps, charge.Rule); err != nil {
				g.log.Error("ledger charge failed after validation",
					"owner_hash", telemetry.OwnerHash(owner), "tick", tick, "err", err)
			}
			g.commitTelemetry(sh, tn, charge)
			reply.send(wire.Response{OK: true})
			return
		}
		entry := store.Entry{Owner: owner, Batch: store.Batch{
			Tick:   tick,
			Setup:  setup,
			Sealed: req.Sealed,
			Charge: charge,
		}}
		sh.pendingWAL++
		sh.pendingAtomic.Store(int64(sh.pendingWAL))
		sh.sinceSnap++
		if sh.sinceSnap >= sh.snapThreshold {
			sh.snapWanted = true
		}
		var appendAt int64
		if g.tm.on || tc.Sampled() {
			appendAt = time.Now().UnixNano()
		}
		err := g.store.AppendTraced(sh.id, entry, tc, func(werr error, walTC telemetry.TraceContext) {
			// Runs on the WAL writer; hop back to the shard worker so every
			// tenant mutation stays single-goroutine. walTC is tc advanced to
			// the entry's WAL-commit span — the parent the replication ship
			// hangs under.
			sh.completions <- func() {
				sh.pendingWAL--
				sh.pendingAtomic.Store(int64(sh.pendingWAL))
				if werr != nil || tn.failed {
					// A commit failure poisons the tenant: this sync's
					// durability is indeterminate, so recording later
					// (even successfully committed) syncs would advance
					// the live clock past a possible gap that recovery's
					// contiguity rule will stop at. Freeze the committed
					// prefix instead — it is exactly what a restart will
					// reconstruct.
					if werr != nil && !tn.failed {
						g.log.Error("durable sync failed, suspending tenant",
							"owner_hash", telemetry.OwnerHash(owner), "tick", entry.Batch.Tick, "err", werr)
					}
					tn.failed = true
					if werr == nil {
						werr = fmt.Errorf("an earlier sync's durability is unknown")
					}
					reply.send(wire.Response{Error: fmt.Sprintf("gateway: durable sync failed; restart to recover (%v)", werr)})
					tn.flushDeferred()
					return
				}
				// Commit: the sync becomes observable — and its charge
				// spent — only now, so the in-memory ledger, transcript,
				// clock, and history always describe the same committed
				// prefix (what snapshots persist and recovery rebuilds).
				tn.ticks = int(entry.Batch.Tick)
				g.invalidateCache(tn)
				tn.observed.Record(record.Tick(entry.Batch.Tick), volume, false)
				if cerr := tn.budget.Charge(charge.Name, charge.Eps, charge.Rule); cerr != nil {
					g.log.Error("ledger charge failed after validation",
						"owner_hash", telemetry.OwnerHash(owner), "tick", entry.Batch.Tick, "err", cerr)
				}
				if appendAt != 0 {
					g.tm.commit.ObserveEx(float64(time.Now().UnixNano()-appendAt)/1e3, tc.TraceID())
				}
				g.commitTelemetry(sh, tn, charge)
				tn.history = append(tn.history, entry.Batch)
				g.spillHistory(sh, owner, tn)
				if g.cfg.Replicator != nil {
					// Offer the committed entry to the replication hub here —
					// on the shard worker, after the commit-time mutations —
					// so shipping order is commit order and an OwnerCut taken
					// on this worker is exactly consistent with the stream.
					g.cfg.Replicator.Committed(sh.id, entry, walTC)
				}
				reply.send(wire.Response{OK: true})
				// Reads parked behind this sync can answer now.
				tn.flushDeferred()
			}
		})
		if err != nil {
			// Never enqueued (store closed / unencodable). The backend
			// already holds the batch, so the tenant is poisoned like any
			// other post-ingest durability failure; no completion will
			// arrive for this entry.
			sh.pendingWAL--
			sh.pendingAtomic.Store(int64(sh.pendingWAL))
			sh.sinceSnap--
			tn.failed = true
			reply.send(wire.Response{Error: fmt.Sprintf("gateway: durable sync: %v", err)})
			tn.flushDeferred()
		}

	case wire.MsgQuery:
		if req.Query == nil {
			reply.send(wire.Response{Error: "query missing"})
			return
		}
		g.tm.queries.Inc()
		g.serveRead(tn, req, reply)

	case wire.MsgStats:
		g.serveRead(tn, req, reply)

	default:
		reply.send(wire.Response{Error: fmt.Sprintf("unknown message type %q", req.Type)})
	}
}

// commitTelemetry records one committed sync: the syncs counter, the shard's
// committed-entries mirror, and the tenant's move up the fleet ε-spent
// distribution (skipped for free syncs). Runs on the shard worker at commit
// time — immediately in in-memory mode, from the group-commit completion in
// durable mode — so tn.epsSpent stays single-goroutine.
func (g *Gateway) commitTelemetry(sh *shard, tn *tenant, charge store.Charge) {
	if !g.tm.on {
		return
	}
	g.tm.syncs.Inc()
	sh.committedAtomic.Add(1)
	if charge.Eps != 0 {
		g.tm.eps.Move(tn.epsSpent, tn.epsSpent+charge.Eps)
		tn.epsSpent += charge.Eps
	}
}

// serveDuplicateAck answers a retransmitted sync the tenant has already
// applied. Nothing is re-ingested and nothing is re-charged; the only
// question is *when* to ack. Committed seqs ack immediately; applied-but-
// uncommitted seqs park on the original sync's commit (same machinery as
// deferred reads), so the retransmit's ack carries exactly the durability
// the original's would have.
func (g *Gateway) serveDuplicateAck(tn *tenant, seq uint64, reply replyTo) {
	if seq <= uint64(tn.ticks) {
		reply.send(wire.Response{OK: true})
		return
	}
	tn.deferred = append(tn.deferred, deferredRead{waitSeq: seq, run: func(failed bool) {
		if failed {
			reply.send(wire.Response{Error: "gateway: a durable sync failed for this owner; restart to recover"})
			return
		}
		reply.send(wire.Response{OK: true})
	}})
}

// serveRead answers a read (query or stats) immediately when the tenant's
// backend holds only committed syncs; otherwise it parks the read until the
// in-flight syncs that precede it commit. This keeps reads from exposing
// applied-but-uncommitted state (which a crash could make unrecoverable)
// and preserves per-owner FIFO: a pipelined read's response never overtakes
// the ack of a sync sent before it.
func (g *Gateway) serveRead(tn *tenant, req wire.Request, reply replyTo) {
	if g.store == nil || tn.seq == uint64(tn.ticks) {
		reply.send(g.execRead(tn, req))
		return
	}
	tn.deferred = append(tn.deferred, deferredRead{waitSeq: tn.seq, run: func(failed bool) {
		if failed {
			reply.send(wire.Response{Error: "gateway: a durable sync failed for this owner; restart to recover"})
			return
		}
		reply.send(g.execRead(tn, req))
	}})
}

// execRead evaluates a stats probe or a query (req.Query non-nil) against
// the tenant's committed state, the query through the noise-reuse answer
// cache. serveRead calls it only when the backend holds no uncommitted sync
// (immediately when seq == ticks, or from the commit completion after
// flushDeferred) and invalidation happens where ticks advances, so a hit can
// only re-serve bytes the current committed state would recompute
// identically — and re-serving a released DP answer spends zero additional ε.
func (g *Gateway) execRead(tn *tenant, req wire.Request) wire.Response {
	if req.Type == wire.MsgStats {
		return wire.NewStatsResponse(tn.db.Stats(), tn.db.Name(), int(tn.db.Leakage()))
	}
	spec := *req.Query
	var start time.Time
	if g.tm.on {
		start = time.Now()
	}
	if tn.qc != nil {
		if resp, ok := tn.qc.Get(spec); ok {
			g.tm.qcHits.Inc()
			if !start.IsZero() {
				g.tm.qcServe.ObserveSince(start)
			}
			return resp
		}
		g.tm.qcMiss.Inc()
	}
	ans, cost, err := tn.db.Query(spec.ToQuery())
	if err != nil {
		return wire.Response{Error: err.Error()}
	}
	resp := wire.NewQueryResponse(ans, cost)
	if tn.qc != nil {
		if tn.qc.Put(spec, resp) {
			g.tm.qcEvict.Inc()
		}
	}
	return resp
}

// invalidateCache drops the tenant's noise-reuse answer cache. Called at
// every point where tn.ticks advances — commit time, never apply time — and
// always before the deferred reads parked behind that commit run, so a
// cached answer can never outlive the committed state that produced it.
func (g *Gateway) invalidateCache(tn *tenant) {
	if tn.qc == nil {
		return
	}
	if n := tn.qc.Invalidate(); n > 0 {
		g.tm.qcInval.Add(int64(n))
	}
}

// dispatchUnknown answers requests addressed to a namespace that does not
// exist yet. Updates and queries fail exactly as an un-setup database
// would; stats probes report the backend's identity (scheme, leakage
// class, zero storage) from a throwaway instance so clients can learn what
// they would be talking to — without the probe allocating tenant state.
func (g *Gateway) dispatchUnknown(owner string, req wire.Request) wire.Response {
	switch req.Type {
	case wire.MsgSetup:
		// Unreachable: setup tasks resolve with peek=false, which creates
		// the tenant (or reports the creation error) before dispatch.
		return wire.Response{Error: "gateway: internal: setup routed to unknown-owner path"}
	case wire.MsgUpdate, wire.MsgQuery:
		return wire.Response{Error: edb.ErrNotSetup.Error()}
	case wire.MsgResume:
		// A resume for a namespace this process has not materialized answers
		// from the durable floor: the store's recovered clock (0 for owners
		// it never saw). In-memory mode has no floor — an unknown owner's
		// clock is simply 0.
		var clock uint64
		if g.store != nil {
			clock = g.store.Clock(owner)
		}
		return wire.Response{OK: true, Resume: &wire.ResumeSpec{Clock: clock}}
	case wire.MsgStats:
		db, err := g.cfg.NewBackend(owner)
		if err != nil {
			return wire.Response{Error: fmt.Sprintf("gateway: backend for %q: %v", owner, err)}
		}
		return wire.NewStatsResponse(db.Stats(), db.Name(), int(db.Leakage()))
	default:
		return wire.Response{Error: fmt.Sprintf("unknown message type %q", req.Type)}
	}
}

// spillHistory enforces the tenant's in-RAM history window after a commit:
// once the tail reaches twice the window, everything past the window moves
// to the shard's history segment and only SegmentRefs stay in memory. The
// 2× hysteresis spills ≥window batches at a time, and the store coalesces
// a run that lands right after the owner's previous ref into that ref —
// together they keep per-owner ref counts sublinear in history (a naive
// spill-on-every-commit would mint one 36-byte ref per tick and sneak
// O(total-ingest) state back into RAM and manifests). A spill failure is
// survivable — the batches simply stay in RAM (still correct, just not
// bounded) and the next commit retries; the store latches genuinely lossy
// writers so a manifest can never reference bytes that failed to land.
// Runs on the shard worker.
func (g *Gateway) spillHistory(sh *shard, owner string, tn *tenant) {
	w := g.cfg.HistoryWindow
	if w <= 0 || len(tn.history) < 2*w {
		return
	}
	n := len(tn.history) - w
	var prev *store.SegmentRef
	prevCount := 0
	if len(tn.spilled) > 0 {
		prev = &tn.spilled[len(tn.spilled)-1]
		prevCount = int(prev.Count)
	}
	refs, extended, err := g.store.Spill(sh.id, owner, prev, tn.history[:n])
	// A partial failure still returns refs for the runs that completed:
	// keep them (their bytes are written; Rotate refuses to manifest them
	// unless they flush) and drop exactly the batches they cover, so a
	// retry never re-spills — and double-counts — an already-written run.
	if len(refs) > 0 {
		done := 0
		for _, r := range refs {
			done += int(r.Count)
		}
		if extended {
			done -= prevCount // the widened ref re-counts prev's batches
			tn.spilled[len(tn.spilled)-1] = refs[0]
			refs = refs[1:]
		}
		tn.spilled = append(tn.spilled, refs...)
		kept := make([]store.Batch, len(tn.history)-done)
		copy(kept, tn.history[done:])
		tn.history = kept
	}
	if err != nil {
		g.log.Warn("history spill deferred; batches stay in RAM",
			"owner_hash", telemetry.OwnerHash(owner), "batches", len(tn.history), "err", err)
	}
}

// committedEntries is the shard's total durable history length, derived
// from the tenants' committed clocks. This is the only correct size once
// history is split between RAM and spill segments: every tick 1..clock is
// exactly one committed entry, wherever its bytes live, so the count never
// double-counts a batch that is both spilled and still referenced, and
// never shrinks just because the window moved batches out of RAM.
func (sh *shard) committedEntries() int {
	total := 0
	for _, tn := range sh.owners {
		total += tn.ticks
	}
	return total
}

// nextSnapThreshold picks the shard's next rotation trigger. With a history
// window, snapshots are manifests — O(refs + window) regardless of total
// history — so a fixed cadence is right and also bounds the WAL length
// (which bounds both recovery replay and its RAM). Without a window a
// snapshot rewrites the whole inline history, so the threshold grows
// geometrically with the committed entry count to keep total rotation I/O
// amortized over a long-lived shard.
func nextSnapThreshold(snapshotEvery, historyWindow, committedEntries int) int {
	if historyWindow > 0 {
		return snapshotEvery
	}
	return max(snapshotEvery, committedEntries/4)
}

// snapshotShard rotates the shard's log: its tenants' committed state is
// written as the shard's snapshot and the segment is truncated. Runs on the
// shard worker with zero in-flight appends, so clocks, transcripts,
// ledgers, and histories are mutually consistent. Afterwards the rotation
// threshold is re-derived (see nextSnapThreshold); a failed rotation
// doubles the threshold instead, so the shard does not hot-loop a rotation
// that keeps failing — the WAL keeps growing and keeps everything
// recoverable.
func (g *Gateway) snapshotShard(sh *shard) {
	states := make([]store.OwnerState, 0, len(sh.owners))
	for owner, tn := range sh.owners {
		states = append(states, store.OwnerState{
			Owner:   owner,
			Clock:   uint64(tn.ticks),
			Events:  tn.observed.Events,
			Budget:  tn.budget,
			Spilled: tn.spilled,
			Tail:    tn.history,
		})
	}
	if err := g.store.Rotate(sh.id, states); err != nil {
		g.log.Error("snapshot rotation failed; doubling threshold", "shard", sh.id, "err", err)
		sh.snapThreshold *= 2
		return
	}
	sh.snapThreshold = nextSnapThreshold(g.cfg.SnapshotEvery, g.cfg.HistoryWindow, sh.committedEntries())
}

// replayOwner rebuilds one recovered tenant: the backend is reconstructed
// by *streaming* the durable batch history through the shared ingest path —
// spilled runs straight off their history segments, then the inline tail —
// and the committed transcript, clock, and ledger are installed verbatim.
// The spilled tier is never materialized; per-batch memory is one frame.
func (g *Gateway) replayOwner(st *store.OwnerState) (*tenant, error) {
	tn, err := g.newTenant(st.Owner)
	if err != nil {
		return nil, err
	}
	if err := g.store.StreamHistory(st, func(bt store.Batch) error {
		cts := make([]seal.Sealed, len(bt.Sealed))
		for i, b := range bt.Sealed {
			cts[i] = seal.Sealed(b)
		}
		if err := g.ingest(tn, bt.Setup, cts); err != nil {
			return fmt.Errorf("tick %d: %w", bt.Tick, err)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("gateway: replaying owner %q: %w", st.Owner, err)
	}
	tn.ticks = int(st.Clock)
	tn.seq = st.Clock
	tn.observed = leakage.Pattern{Events: st.Events}
	tn.budget = st.Budget
	tn.history = st.Tail
	tn.spilled = st.Spilled
	return tn, nil
}
