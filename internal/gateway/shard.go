package gateway

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// task is one unit of shard work, executed on the shard worker goroutine
// against the owner's resolved tenant: a client request (req, answered
// through reply) dispatched directly, or — for the gateway's own peeks and
// cuts, and for a replica's replication steps — the run closure. Tasks for
// one owner execute in the order they were enqueued — the shard worker is the
// serialization point for an owner's state; no tenant lock exists.
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
	// closure; run is nil then. A sync's batch is bt — already in the
	// canonical entry frame the connection reader decoded it into
	// (store.SyncEntry) — and req.Sealed is nil.
	req   wire.Request
	bt    store.Batch
	reply replyTo
	run   func(tn *Tenant, err error)
	// at is the admission timestamp (UnixNano; 0 when telemetry and tracing
	// are both off) — the shard worker observes queue wait at dequeue.
	at int64
}

// replyTo addresses one request's response: the connection that asked, the
// request ID the client matches on, and the request's trace context (zero
// when unsampled) under whose root the shard worker records the queue-wait
// and apply spans. A reply deferred behind a commit rides in the shard's WAL
// queue or a tenant's parked reads; every other reply is a direct send.
type replyTo struct {
	conn *clientConn
	id   uint64
	tc   telemetry.TraceContext
}

// send delivers the request's one response.
func (r replyTo) send(resp wire.Response) { r.conn.reply(r.id, resp, r.tc, 0) }

// sendAt is send when the caller has already read the clock: at (UnixNano)
// ends the stage before the reply and starts its ack stage.
func (r replyTo) sendAt(resp wire.Response, at int64) { r.conn.reply(r.id, resp, r.tc, at) }

// shard is one worker's state: its task queue, the group-commit reports the
// WAL writer sends it, the appends those reports complete, and the tenants
// hashed onto it. owners and the WAL bookkeeping fields are touched only by
// the shard's goroutine — no lock.
type shard struct {
	id     int
	tasks  chan task
	groups chan store.Group
	owners map[string]*Tenant

	// wal holds this shard's appended-but-uncommitted entries in append
	// order — a group's report completes the oldest it counts; snapWanted —
	// set when the store reports a rotation due after an append — asks the
	// worker to quiesce and rotate. Durable mode only.
	wal        []walWait
	snapWanted bool

	// applied is the replication stream offset this shard has applied: the
	// sum of its owners' clocks at recovery, then whatever Replicate's live
	// entries and transfer ends make it. Replica role only; a replica read's
	// freshness bound is checked against it on this worker.
	applied uint64

	// pendingAtomic mirrors len(wal), committedAtomic counts committed
	// entries and appliedAtomic mirrors applied, all written only by the shard
	// worker. They exist so the telemetry collector, ShardStatuses and a
	// replica's rejoin can read durable progress without enqueuing onto the
	// shard — a scrape must never wait behind tenant work.
	pendingAtomic   atomic.Int64
	committedAtomic atomic.Int64
	appliedAtomic   atomic.Uint64
}

// walWait is one append in flight on the shard's WAL, kept by value until the
// group commit that completes it is reported: the tenant it advances, its
// batch, and for a live sync the reply its commit answers and its append time
// (UnixNano; 0 untimed). A replica's append of a shipped entry has no reply.
type walWait struct {
	tn    *Tenant
	bt    store.Batch
	reply replyTo
	at    int64
}

// push queues one append the store has taken.
func (sh *shard) push(w walWait) {
	sh.wal = append(sh.wal, w)
	sh.pendingAtomic.Store(int64(len(sh.wal)))
}

// reportGroup is the shard's store commit hook: it runs on the WAL writer and
// hands the group to the shard worker — one send a group, never a closure.
// The worker always receives, so the writer cannot deadlock against it.
func (sh *shard) reportGroup(grp store.Group) { sh.groups <- grp }

// setApplied moves the shard's applied stream offset and its mirror.
func (sh *shard) setApplied(offset uint64) {
	sh.applied = offset
	sh.appliedAtomic.Store(offset)
}

// runShard is the worker loop. Group-commit reports from the WAL writer and
// tasks are served from one goroutine, so every tenant mutation — apply-time
// and commit-time alike — stays single-threaded. When a snapshot is due the
// worker quiesces: it stops taking new tasks, drains its in-flight commits,
// rotates the log, then resumes.
//
// The loop exits when the gateway closes; by then every connection has
// drained (Close waits for handlers before signaling quit), so only
// transcript peeks from a racing ObservedPattern/ObservedLedger can still
// be queued — the drain below serves them instead of stranding the caller.
func (g *Gateway) runShard(sh *shard) {
	defer g.shardWG.Done()
	serve := func(t *task) {
		// Dequeue ends the queue-wait stage and starts apply: one clock read.
		var deq int64
		if t.at != 0 {
			now := time.Now()
			deq = now.UnixNano()
			g.tm.qwait.ObserveEx(float64(deq-t.at)/1e3, t.reply.tc.TraceID())
			t.reply.tc.Record("queue-wait", time.Unix(0, t.at), now)
		}
		tn, err := g.tenantFor(sh, t.owner, t.peek)
		switch {
		case t.run != nil:
			t.run(tn, err)
		case err != nil:
			t.reply.send(failed(err))
		default:
			g.dispatch(sh, tn, t, deq)
		}
	}
	for {
		if sh.snapWanted && len(sh.wal) == 0 {
			g.snapshotShard(sh)
			sh.snapWanted = false
		}
		if sh.snapWanted {
			// Quiesce: only group commits until in-flight appends drain. New
			// tasks wait in the queue; backpressure propagates through the
			// bounded channel to the connection readers.
			select {
			case grp := <-sh.groups:
				g.commitGroup(sh, grp)
			case <-g.quit:
				g.drainShard(sh, serve)
				return
			}
			continue
		}
		select {
		case grp := <-sh.groups:
			g.commitGroup(sh, grp)
		case t := <-sh.tasks:
			serve(&t)
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
// path the store has already failed the pending entries, so their groups
// arrive promptly with errors.
func (g *Gateway) drainShard(sh *shard, serve func(*task)) {
	for {
		select {
		case grp := <-sh.groups:
			g.commitGroup(sh, grp)
		case t := <-sh.tasks:
			serve(&t)
		default:
			if len(sh.wal) == 0 {
				return
			}
			g.commitGroup(sh, <-sh.groups)
		}
	}
}

// commitGroup finishes the appends one group commit completed — the N oldest
// in flight, in commit order: a live sync is committed and acknowledged, or,
// when the group failed, its tenant is suspended and the sync refused; a
// replica's own append that failed poisons its tenant. One report a group,
// so the worker wakes once however many syncs the group carried.
func (g *Gateway) commitGroup(sh *shard, grp store.Group) {
	for i := range sh.wal[:grp.N] {
		w := &sh.wal[i]
		if w.reply.conn == nil {
			if grp.Err != nil {
				// RAM is now ahead of the directory for this owner: never serve
				// it, and (store.Healthy) never promote over it.
				g.log.Error("replica WAL append failed, suspending tenant",
					"owner_hash", telemetry.OwnerHash(w.tn.Owner), "tick", w.bt.Tick, "err", grp.Err)
				w.tn.failed = true
			}
			continue
		}
		g.syncCommitted(sh, w, grp)
	}
	n := copy(sh.wal, sh.wal[grp.N:])
	clear(sh.wal[n:])
	sh.wal = sh.wal[:n]
	sh.pendingAtomic.Store(int64(n))
}

// syncCommitted is a live sync's commit step, once its group commit is
// reported: the tenant commits the batch, the hub is offered the entry, the
// sync is acknowledged and reads parked behind it run. The group's commit
// time ends the sync's commit stage and starts its ack stage, and it is when
// a sampled sync's wal-flush and wal-commit spans end — no clock read here.
func (g *Gateway) syncCommitted(sh *shard, w *walWait, grp store.Group) {
	tn, tc := w.tn, w.reply.tc
	err := grp.Err
	if err == nil && !tn.failed {
		err = g.commit(sh, tn, w.bt)
	}
	if err != nil || tn.failed {
		// A commit failure poisons the tenant: this sync's durability is
		// indeterminate, so recording later (even successfully committed)
		// syncs would advance the live clock past a possible gap that
		// recovery's contiguity rule will stop at. Freeze the committed
		// prefix instead — it is exactly what a restart will reconstruct.
		w.reply.send(g.suspend(tn, w.bt.Tick, err))
		tn.flushDeferred()
		return
	}
	walTC := tc
	if w.at != 0 {
		g.tm.commit.ObserveEx(float64(grp.End-w.at)/1e3, tc.TraceID())
		if tc.Sampled() {
			end := time.Unix(0, grp.End)
			fid := tc.Record("wal-flush", time.Unix(0, grp.Start), end)
			walTC = tc.At(tc.At(fid).Record("wal-commit", time.Unix(0, w.at), end))
		}
	}
	if g.cfg.Replicator != nil {
		// Offer the committed entry to the replication hub here — on the
		// shard worker, after the commit-time mutations — so shipping order
		// is commit order and an OwnerCut taken on this worker is exactly
		// consistent with the stream. walTC is the sync's trace at its
		// wal-commit span, the parent the ship hangs under.
		g.cfg.Replicator.Committed(sh.id, store.Entry{Owner: tn.Owner, Batch: w.bt}, walTC)
	}
	w.reply.sendAt(wire.Response{OK: true}, grp.End)
	// Reads parked behind this sync can answer now.
	tn.flushDeferred()
}

// tenantFor resolves (and unless peeking, creates) the owner's tenant. Runs
// on the shard worker only.
func (g *Gateway) tenantFor(sh *shard, owner string, peek bool) (*Tenant, error) {
	if tn, ok := sh.owners[owner]; ok {
		return tn, nil
	}
	if peek {
		return nil, nil
	}
	if int(g.ownerCount.Load()) >= g.cfg.MaxOwners {
		return nil, fmt.Errorf("gateway: owner limit %d reached", g.cfg.MaxOwners)
	}
	tn, err := g.tenants.New(owner)
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

// failed is the refusal for an error a backend, a ledger or a tenant
// constructor returned: not-setup when that is what it said — what an
// in-process edb.Database returns — and otherwise CodeFailed with its text.
func failed(err error) wire.Response {
	if errors.Is(err, edb.ErrNotSetup) {
		return wire.Refuse(wire.CodeNotSetup, 0, "")
	}
	return wire.Refuse(wire.CodeFailed, 0, err.Error())
}

// suspend freezes tn at its committed prefix — a sync's batch is in the
// backend and its entry may or may not be durable, so the tenant serves
// nothing until a restart re-derives it from the log — and returns the
// refusal that sync, and every later request, gets. The cause goes to the
// server's log, once; the refusal names none.
func (g *Gateway) suspend(tn *Tenant, tick uint64, cause error) wire.Response {
	if cause != nil && !tn.failed {
		g.log.Error("sync failed after ingest, suspending tenant",
			"owner_hash", telemetry.OwnerHash(tn.Owner), "tick", tick, "err", cause)
	}
	tn.failed = true
	return wire.Refuse(wire.CodeSuspended, 0, "")
}

// chargeFor names the ledger expenditure one sync incurs. The connection
// reader builds it into the sync's WAL entry, so recovery re-spends what the
// original run spent even if the configured epsilon has since changed.
func (g *Gateway) chargeFor(setup bool) store.Charge {
	name := "m_update"
	if setup {
		name = "m_setup"
	}
	return store.Charge{Name: name, Eps: g.cfg.SyncEpsilon, Rule: dp.Sequential}
}

// dispatch executes one EDB protocol message against a tenant and delivers
// the response through t.reply — synchronously for queries, stats, and
// in-memory syncs; deferred to the WAL group commit for durable syncs
// (spend-before-sync: the charge and the entry are durable before the ack
// and the transcript event exist). The reply is sent exactly once. tn is
// nil for owners that never ran setup (see task.peek); those requests are
// answered without materializing the namespace. deq is the dequeue time
// (UnixNano; 0 untimed), where a sync's apply stage starts. Stage spans land
// under the root of the reply's trace context, and a durable sync keeps it
// in the shard's WAL queue for its commit and the replication hub.
func (g *Gateway) dispatch(sh *shard, tn *Tenant, t *task, deq int64) {
	owner, req, reply := t.owner, t.req, t.reply
	tc := reply.tc
	if g.replica.Load() {
		// Only reads reach a replica's shards (its connections are read-only).
		// The freshness bound is checked here, on the worker that applies the
		// stream, whether or not the owner exists: nothing can land between
		// this check and the answer below.
		g.replicaReads.Add(1)
		if req.MinOffset > sh.applied {
			reply.send(wire.Refuse(wire.CodeStale, sh.applied, ""))
			return
		}
	}
	if tn == nil {
		reply.send(g.dispatchUnknown(owner, req))
		return
	}
	if tn.failed {
		// The tenant's backend may hold a batch whose durability is
		// indeterminate; serving *anything* from it (queries and stats
		// included) would expose state a restart may not reconstruct.
		reply.send(wire.Refuse(wire.CodeSuspended, 0, ""))
		return
	}
	switch req.Type {
	case wire.MsgResume:
		// The reconnect handshake: report the owner's committed clock. The
		// answer is immediate even while earlier syncs are applied-but-
		// uncommitted (tn.seq > tn.Clock) — a client replaying from the
		// committed clock re-sends those seqs, and the duplicate path below
		// parks their acks on the original commits, so resume can never
		// promise more than recovery could prove.
		g.tm.resumes.Inc()
		reply.send(wire.Response{OK: true, Resume: &wire.ResumeSpec{Clock: tn.Clock}})

	case wire.MsgSetup, wire.MsgUpdate:
		// The reader built the sync's entry: its tick is the Seq the sync
		// claims, its charge the one chargeFor names.
		bt := t.bt
		// Tick-ordered idempotent apply. A sync claims a specific logical tick
		// (the reader has refused Seq 0):
		//   - seq == tn.seq+1: the next tick — apply the batch the reader
		//     built; every other case drops it untouched.
		//   - seq <= tn.seq: already applied. A retransmit (the client lost
		//     the ack, not the sync) is acknowledged WITHOUT re-ingesting or
		//     re-charging the ε ledger — this is the invariant that makes
		//     reconnect replay privacy-safe. The ack waits for the original
		//     commit if it is still in flight, so a duplicate ack is never
		//     a stronger durability claim than the first would have been.
		//   - seq > tn.seq+1: a gap — the client skipped a sync. Refuse
		//     without touching state, naming the seq expected; applying out
		//     of order would let a distorted schedule masquerade as the
		//     DP-optimized one.
		if bt.Tick <= tn.seq {
			g.serveDuplicateAck(tn, bt.Tick, reply)
			return
		}
		if bt.Tick != tn.seq+1 {
			reply.send(wire.Refuse(wire.CodeSeqGap, tn.seq+1, ""))
			return
		}
		// Validate the ledger charge before any irreversible step: a
		// refused charge (epsilon/rule drift against a recovered ledger)
		// must refuse the sync while the backend is still untouched. The
		// spend itself happens at commit, alongside the transcript event —
		// both are carried by the WAL entry, so the durable order is still
		// spend-with-sync-record before observability.
		if err := tn.Budget.CanCharge(bt.Charge.Name, bt.Charge.Eps, bt.Charge.Rule); err != nil {
			reply.send(failed(err))
			return
		}
		if err := tn.Ingest(bt.Setup, bt.Sealed); err != nil {
			reply.send(failed(err))
			return
		}
		// The end of apply is the append time: one clock read.
		var end int64
		if deq != 0 {
			end = time.Now().UnixNano()
			g.tm.apply.ObserveEx(float64(end-deq)/1e3, tc.TraceID())
			tc.Record("apply", time.Unix(0, deq), time.Unix(0, end))
		}
		tn.seq++
		if g.store == nil {
			// In-memory mode: commit is immediate.
			if err := g.commit(sh, tn, bt); err != nil {
				reply.send(g.suspend(tn, bt.Tick, err))
				return
			}
			reply.sendAt(wire.Response{OK: true}, end)
			return
		}
		// The append wraps the frame the batch carries. Its outcome comes back
		// with its group (commitGroup); the shard's WAL queue keeps what the
		// commit needs, by value.
		if err := g.store.AppendAt(sh.id, store.Entry{Owner: tn.Owner, Batch: bt}, end); err != nil {
			// Never enqueued (store closed). The backend already holds the
			// batch, so the tenant is poisoned like any other post-ingest
			// durability failure.
			reply.send(g.suspend(tn, bt.Tick, err))
			tn.flushDeferred()
			return
		}
		sh.push(walWait{tn: tn, bt: bt, reply: reply, at: end})
		if g.store.RotateDue(sh.id) {
			sh.snapWanted = true
		}

	case wire.MsgQuery:
		if req.Query == nil {
			reply.send(wire.Refuse(wire.CodeBadRequest, 0, "gateway: query missing"))
			return
		}
		g.tm.queries.Inc()
		g.serveRead(tn, req, reply)

	case wire.MsgStats:
		g.serveRead(tn, req, reply)

	default:
		reply.send(wire.Refuse(wire.CodeBadRequest, 0, fmt.Sprintf("gateway: unknown message type %q", req.Type)))
	}
}

// commit is the live driver's commit step, run on the shard worker —
// immediately in in-memory mode, from the group-commit completion in durable
// mode. The machine commits the batch (the ledger refusing a charge it
// validated before ingest is the only error, and changes nothing). The
// history tail is brought back inside its bound: with a store it is the
// durable history's hot end and Config.HistoryWindow bounds it (a spill
// failure only defers the spill); an in-memory gateway has nothing to rebuild
// a tenant from, so it keeps no batch at all. And the sync is counted — the
// shard's committed-entries mirror always (/statusz reads it with or without a
// registry), the syncs counter and the tenant's move up the fleet ε-spent
// distribution (skipped for free syncs) when telemetry is on.
func (g *Gateway) commit(sh *shard, tn *Tenant, bt store.Batch) error {
	if err := tn.Commit(bt); err != nil {
		return err
	}
	if g.store == nil {
		clear(tn.Tail)
		tn.Tail = tn.Tail[:0]
	} else if err := g.store.EnforceWindow(sh.id, tn.OwnerState, g.cfg.HistoryWindow); err != nil {
		g.log.Warn("history spill deferred; batches stay in RAM",
			"owner_hash", telemetry.OwnerHash(tn.Owner), "batches", len(tn.Tail), "err", err)
	}
	sh.committedAtomic.Add(1)
	if g.tm.on {
		g.tm.syncs.Inc()
		if eps := bt.Charge.Eps; eps != 0 {
			g.tm.eps.Move(tn.epsSpent, tn.epsSpent+eps)
			tn.epsSpent += eps
		}
	}
	return nil
}

// serveDuplicateAck answers a retransmitted sync the tenant has already
// applied. Nothing is re-ingested and nothing is re-charged; the only
// question is *when* to ack. Committed seqs ack immediately; applied-but-
// uncommitted seqs park on the original sync's commit (same machinery as
// deferred reads), so the retransmit's ack carries exactly the durability
// the original's would have.
func (g *Gateway) serveDuplicateAck(tn *Tenant, seq uint64, reply replyTo) {
	ack := func() wire.Response { return wire.Response{OK: true} }
	if seq <= tn.Clock {
		reply.send(ack())
		return
	}
	tn.deferred = append(tn.deferred, deferredRead{waitSeq: seq, reply: reply, run: ack})
}

// serveRead answers a read (query or stats) immediately when the tenant's
// backend holds only committed syncs; otherwise it parks the read until the
// in-flight syncs that precede it commit. This keeps reads from exposing
// applied-but-uncommitted state (which a crash could make unrecoverable)
// and preserves per-owner FIFO: a pipelined read's response never overtakes
// the ack of a sync sent before it.
func (g *Gateway) serveRead(tn *Tenant, req wire.Request, reply replyTo) {
	if g.store == nil || tn.seq == tn.Clock {
		reply.send(tn.Read(req))
		return
	}
	tn.deferred = append(tn.deferred, deferredRead{waitSeq: tn.seq, reply: reply, run: func() wire.Response { return tn.Read(req) }})
}

// dispatchUnknown answers requests addressed to a namespace that does not
// exist yet. Updates and queries fail exactly as an un-setup database
// would; stats probes report the backend's identity (scheme, leakage
// class, zero storage) from a throwaway instance so clients can learn what
// they would be talking to — without the probe allocating tenant state.
func (g *Gateway) dispatchUnknown(owner string, req wire.Request) wire.Response {
	switch req.Type {
	case wire.MsgUpdate, wire.MsgQuery:
		return wire.Refuse(wire.CodeNotSetup, 0, "")
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
		return g.tenants.StatsProbe(owner)
	default:
		// Unreachable: the decoder yields no other type, and a setup resolves
		// with peek=false, which creates the tenant (or reports the creation
		// error) before dispatch.
		return wire.Refuse(wire.CodeFailed, 0, fmt.Sprintf("gateway: internal: %s routed to unknown-owner path", req.Type))
	}
}

// snapshotShard rotates the shard's log: its tenants' committed state is
// written as the shard's snapshot and the segment is truncated. Runs on the
// shard worker with zero in-flight appends, so clocks, transcripts,
// ledgers, and histories are mutually consistent. When the next one is due
// is the store's decision (store.RotateDue), failed rotations included — the
// WAL keeps growing and keeps everything recoverable.
func (g *Gateway) snapshotShard(sh *shard) {
	states := make([]store.OwnerState, 0, len(sh.owners))
	for _, tn := range sh.owners {
		states = append(states, *tn.OwnerState)
	}
	if err := g.store.Rotate(sh.id, states); err != nil {
		g.log.Error("snapshot rotation failed", "shard", sh.id, "err", err)
	}
}

// ErrStreamGap reports a replication step that does not extend the shard
// contiguously — a live offset past applied+1, or a tick past the owner's
// clock+1. Nothing was applied; the stream must be healed by a snapshot
// transfer before the shard takes another live entry.
var ErrStreamGap = errors.New("gateway: replication stream gap")

// ErrUnhealthyReplica is Promote's refusal: a WAL append of this replica
// failed, so its RAM is ahead of what its directory can prove.
var ErrUnhealthyReplica = errors.New("gateway: a replica WAL append failed; recover from the directory instead of promoting")

// Replicate hands one step of the replication stream to shard sid's worker —
// the replica role's only write path. frame is a shipped entry
// (store.EncodeEntryFrame bytes, verified on the worker): with offset > 0 the
// live entry at that stream offset, with offset 0 a bootstrap entry of a
// snapshot transfer, ordered by its tick alone. A nil frame is the transfer's
// end and moves the shard's applied offset to offset. done runs on the worker
// with the outcome: applied is false for an entry the shard already holds
// (offset ≤ applied, or tick ≤ the owner's clock); a non-nil err means the
// step could not extend the replica, which is then exactly as it was. Replicate
// returns false, and never calls done, if the gateway shut down first.
func (g *Gateway) Replicate(sid int, offset uint64, frame []byte, done func(applied bool, err error)) bool {
	sh := g.shards[sid]
	t := task{peek: true, run: func(*Tenant, error) { done(g.applyShipped(sh, offset, frame)) }}
	select {
	case sh.tasks <- t:
		return true
	case <-g.quit:
		return false
	}
}

// applyShipped is Replicate's work on the shard worker. Offsets order the
// transport (skip ≤ applied, apply applied+1, gap otherwise); ticks order the
// content — the split that lets a snapshot transfer heal a cursor from another
// primary's stream without ever double-applying a batch. The applied offset
// moves only once the entry it names is in the replica.
func (g *Gateway) applyShipped(sh *shard, offset uint64, frame []byte) (applied bool, err error) {
	if !g.replica.Load() {
		return false, errors.New("gateway: replication step on a primary")
	}
	if frame == nil {
		sh.setApplied(offset)
		return false, nil
	}
	if offset != 0 {
		if offset <= sh.applied {
			return false, nil // duplicate of the applied prefix
		}
		if offset != sh.applied+1 {
			return false, fmt.Errorf("%w: shard %d got offset %d, expected %d", ErrStreamGap, sh.id, offset, sh.applied+1)
		}
	}
	e, err := store.DecodeEntryFrame(frame)
	if err != nil {
		return false, fmt.Errorf("gateway: shard %d: corrupt shipped entry: %w", sh.id, err)
	}
	if store.ShardFor(e.Owner, len(g.shards)) != sh.id {
		return false, fmt.Errorf("gateway: shard %d was shipped another shard's owner", sh.id)
	}
	tn := sh.owners[e.Owner]
	var clock uint64
	if tn != nil {
		clock = tn.Clock
	}
	switch tick := e.Batch.Tick; {
	case tick <= clock:
		// Content already in the replica (offset streams overlap after healing).
	case tick != clock+1:
		return false, fmt.Errorf("%w: owner %s tick %d does not extend clock %d",
			ErrStreamGap, telemetry.OwnerHash(e.Owner), tick, clock)
	default:
		if err := g.applyEntry(sh, tn, e); err != nil {
			return false, err
		}
		applied = true
	}
	if offset != 0 {
		sh.setApplied(offset)
	}
	return applied, nil
}

// applyEntry advances one owner by one shipped batch, by the recovery rule and
// through the live path's own steps: commit (the primary committed it, so it
// is observable at once: clock, transcript, charge, cache drop, window),
// ingest, then the append to this replica's own WAL under the shard's
// pending-append accounting — so the directory is a restart image at every
// instant and a rotation quiesces here exactly as it does on a primary. tn is
// nil for an owner's first entry.
func (g *Gateway) applyEntry(sh *shard, tn *Tenant, e store.Entry) (err error) {
	if tn == nil {
		if tn, err = g.tenantFor(sh, e.Owner, false); err != nil {
			return err
		}
	}
	if err := g.commit(sh, tn, e.Batch); err != nil {
		// A refused charge changes nothing (OwnerState.Apply is all-or-nothing).
		return fmt.Errorf("gateway: applying owner %s tick %d: %w", telemetry.OwnerHash(e.Owner), e.Batch.Tick, err)
	}
	tn.seq = tn.Clock
	if !tn.failed {
		if err := tn.Ingest(e.Batch.Setup, e.Batch.Sealed); err != nil {
			tn = g.rebuild(sh, tn, err)
		}
	}
	if err := g.store.AppendAt(sh.id, e, 0); err != nil {
		tn.failed = true
		return fmt.Errorf("gateway: replica WAL append: %w", err)
	}
	sh.push(walWait{tn: tn, bt: e.Batch}) // its group's failure poisons tn (commitGroup)
	if g.store.RotateDue(sh.id) {
		sh.snapWanted = true
	}
	return nil
}

// rebuild replaces a tenant whose backend missed a committed batch (its
// ingest erred) with one replayed from the history the store holds — the
// committed state is right, so it carries over. A tenant that cannot be
// rebuilt is poisoned: either way a backend that is not at its clock is never
// served.
func (g *Gateway) rebuild(sh *shard, tn *Tenant, cause error) *Tenant {
	g.rebuilds.Add(1)
	fresh, err := g.tenants.Replay(g.store, sh.id, tn.OwnerState)
	if err != nil {
		g.log.Error("replica ingest failed and the tenant could not be rebuilt; suspending it",
			"owner_hash", telemetry.OwnerHash(tn.Owner), "tick", tn.Clock, "ingest_err", cause, "err", err)
		tn.failed = true
		return tn
	}
	g.log.Warn("replica ingest failed; tenant rebuilt from history",
		"owner_hash", telemetry.OwnerHash(tn.Owner), "tick", tn.Clock, "err", cause)
	fresh.epsSpent = tn.epsSpent
	sh.owners[tn.Owner] = fresh
	return fresh
}

// Promote flips a replica to primary. The caller has fenced (it holds the
// lease) and stopped the stream (no Replicate is in flight or will follow);
// Promote waits out every shard's queue and pending WAL appends, refuses if
// one of them failed (ErrUnhealthyReplica), attaches repl — already bound to
// this gateway's per-shard stream heads — and from then on the connection loop
// accepts writers and followers. Nothing is recovered and nothing is dropped:
// the tenants, their backends and their answer caches are the ones the stream
// kept current, each with seq == Clock.
func (g *Gateway) Promote(repl Replicator) error {
	if !g.replica.Load() {
		return errors.New("gateway: Promote on a primary")
	}
	for _, sh := range g.shards {
		if !g.onShard(sh, "", func(*Tenant) {
			for len(sh.wal) > 0 {
				g.commitGroup(sh, <-sh.groups)
			}
		}) {
			return errors.New("gateway: shut down during promotion")
		}
	}
	if !g.store.Healthy() {
		return ErrUnhealthyReplica
	}
	// Published by the role's atomic store: whoever reads the role as primary
	// sees the hub.
	g.cfg.Replicator = repl
	g.replica.Store(false)
	return nil
}
