package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpsync/internal/dp"
	"dpsync/internal/gateway"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// The follower's half of replication. A follower is not a serving gateway:
// it owns its own store.Store under its own directory and folds the
// primary's shipped WAL entries through the exact rules recovery uses —
// tick ≤ clock is skipped, tick == clock+1 is applied (transcript event,
// ε charge, history tail) and appended to the follower's own WAL, anything
// else is a stream gap. Because the fold and the append are recovery's own
// semantics, the follower's directory is at every instant a valid restart
// image: promotion is nothing more than sealing it and running gateway.New
// over it.
//
// An owner that has been read through the read plane is resident: next to
// its OwnerState the follower keeps a gateway.Tenant over that same state —
// backend and answer cache — and the fold that advances the state ingests
// the shipped batch into it, so a read never re-derives an owner from history
// because its clock moved.
//
// Stream positions: counts[sid] is the shard's applied live-stream offset
// (== the shard's committed entry count, re-derivable from recovered
// clocks, which is what makes resume-after-restart exact). Snapshot
// transfers deliver bootstrap entries with offset 0 — folded by tick only —
// and reposition the cursor at the transfer's basis.

// errStreamGap reports a replication stream that cannot extend this
// follower's state contiguously; the tail loop drops the link and rejoins
// asking for a snapshot transfer on the damaged shard.
var errStreamGap = errors.New("cluster: replication stream gap")

// errShardMismatch reports a primary whose shard count differs from this
// node's — a misconfigured cluster, fatal (shard hashing would scatter
// owners differently on each node).
var errShardMismatch = errors.New("cluster: primary shard count differs from local configuration")

// resyncCursor is the join cursor a follower sends for a shard whose
// stream it can no longer extend (tick gap, corrupt frame): it is above any
// real head, so the primary's servability check always answers with a
// snapshot transfer.
const resyncCursor = ^uint64(0)

// FollowerStats are the follower-side replication counters.
type FollowerStats struct {
	// Applied counts live stream entries folded and WAL-appended.
	Applied uint64
	// Snapshots counts per-shard snapshot transfers applied.
	Snapshots uint64
	// LagNs is the cumulative (apply time − primary commit time) over
	// Applied entries, in nanoseconds; divide for the mean replication lag.
	LagNs int64
}

// followerCore is the replica state machine. All stream methods run on one
// goroutine (the tail loop); Stats and the WAL-append completions touch
// only the mutex-guarded fields. The read plane answers under smu, which
// synchronizes it with the tail loop.
type followerCore struct {
	log    *slog.Logger
	st     *store.Store
	shards int
	window int
	// tracer records follower-apply fragments for traces the primary
	// propagated in traced entry frames; nil disables (spans are dropped,
	// frames apply identically).
	tracer *telemetry.Tracer

	// lastContact is the UnixNano of the last frame read off the primary
	// (heartbeats included); 0 before the first session. Readiness reads it
	// lock-free — a follower replicating within its lag bound is ready.
	lastContact atomic.Int64

	// smu orders the tail loop's state mutations against read-plane requests:
	// applyFrame holds it across each non-heartbeat frame and a read holds it
	// from its freshness check to its answer, so a read sees stream cursor,
	// owner state and the owner's machine from the same frame boundary —
	// never a half-applied batch, never a backend ahead of or behind its
	// OwnerState. WAL-append completions take only mu, so holding smu across
	// rotate's quiesce cannot deadlock.
	smu       sync.Mutex
	states    []map[string]*store.OwnerState // per shard, per owner
	counts    []uint64                       // applied live-stream offsets
	resync    []bool                         // shard needs a snapshot transfer
	inSnap    []bool                         // mid snapshot transfer
	snapBasis []uint64
	pending   []sync.WaitGroup // in-flight WAL appends per shard
	// machines holds the resident owners' tenant machines, each over the
	// owner's entry in states (the same pointer). The read plane adds an
	// owner at its first read; fold keeps it current and drops it if an
	// ingest fails; dropMachines empties it (nil) before the replica seals.
	machines map[string]*gateway.Tenant

	mu        sync.Mutex
	appendErr error
	stats     FollowerStats
}

// openFollower opens (or resumes) a replica image at dir. Whatever a prior
// process left there — primary or follower alike — is recovered through the
// standard store recovery, and each shard's stream cursor is re-derived
// from its owners' committed clocks. snapEvery is the store's rotation floor
// (store.Options.SnapshotEvery), the same one the node's gateway would pass.
func openFollower(dir string, shards, window, snapEvery int, fsync bool, lg *slog.Logger, tracer *telemetry.Tracer) (*followerCore, error) {
	st, states, err := store.Open(store.Options{Dir: dir, Shards: shards, Fsync: fsync, HistoryWindow: window, SnapshotEvery: snapEvery})
	if err != nil {
		return nil, fmt.Errorf("cluster: opening replica store: %w", err)
	}
	f := &followerCore{
		log: lg, st: st, shards: shards, window: window, tracer: tracer,
		states:    make([]map[string]*store.OwnerState, shards),
		counts:    make([]uint64, shards),
		resync:    make([]bool, shards),
		inSnap:    make([]bool, shards),
		snapBasis: make([]uint64, shards),
		pending:   make([]sync.WaitGroup, shards),
		machines:  map[string]*gateway.Tenant{},
	}
	for sid := range f.states {
		f.states[sid] = map[string]*store.OwnerState{}
	}
	for owner, os := range states {
		sid := store.ShardFor(owner, shards)
		f.states[sid][owner] = os
		f.counts[sid] += os.Clock
	}
	return f, nil
}

// tail runs one replication session: handshake, join from the durable
// cursors, then apply frames until the link dies or the stream gaps. The
// returned error says why the session ended; wire.ErrNotPrimary and
// errShardMismatch are typed for the caller. readTO bounds silence on the
// link (the primary heartbeats when idle, so a quiet link is a dead one).
func (f *followerCore) tail(conn net.Conn, node string, readTO time.Duration) error {
	deadline := time.Now().Add(replHandshakeTimeout)
	_ = conn.SetDeadline(deadline)
	if err := wire.WriteReplHello(conn, wire.ReplVersion); err != nil {
		return err
	}
	if err := wire.ReadReplHelloAck(conn); err != nil {
		return err // wire.ErrNotPrimary passes through typed
	}
	cursors := make([]wire.ReplCursor, f.shards)
	f.smu.Lock()
	for sid := range cursors {
		off := f.counts[sid]
		if f.resync[sid] {
			off = resyncCursor
		}
		cursors[sid] = wire.ReplCursor{Shard: uint32(sid), Offset: off}
	}
	f.smu.Unlock()
	jb, err := wire.EncodeReplJoin(wire.ReplJoin{Node: node, Cursors: cursors})
	if err != nil {
		return err
	}
	// The hello exchange is over; frames from here on move through the
	// buffered connection. Its read timeout stays unset through the join, which
	// runs under the handshake deadline armed above.
	fc := wire.NewConn(conn)
	if err := fc.WriteFrame(jb); err != nil {
		return err
	}
	if err := fc.Flush(); err != nil {
		return err
	}
	payload, err := fc.ReadFrame(nil)
	if err != nil {
		return err
	}
	ack, err := wire.DecodeReplJoinAck(payload)
	if err != nil {
		return err
	}
	if int(ack.Shards) != f.shards {
		return fmt.Errorf("%w: primary has %d, this node %d", errShardMismatch, ack.Shards, f.shards)
	}
	_ = conn.SetWriteDeadline(time.Time{})
	// A dropped link mid-transfer leaves inSnap set; the rejoin restarts the
	// transfer from scratch, so clear the per-session markers.
	for sid := range f.inSnap {
		f.inSnap[sid] = false
	}
	fc.ReadTimeout = readTO
	for {
		// A fresh payload per frame: a folded entry's ciphertexts alias it and
		// live on in the owner's history tail.
		payload, err := fc.ReadFrame(nil)
		if err != nil {
			return err
		}
		fr, err := wire.DecodeReplFrame(payload)
		if err != nil {
			return fmt.Errorf("cluster: malformed stream frame: %w", err)
		}
		now := time.Now()
		f.lastContact.Store(now.UnixNano())
		if err := f.applyFrame(fr, now); err != nil {
			return err
		}
	}
}

// applyFrame advances the replica by one stream frame. Offsets order the
// transport (skip ≤ cursor, apply cursor+1, gap otherwise); ticks order the
// content — the same split that lets a snapshot transfer heal a cursor from
// another primary's stream without ever double-applying a batch.
func (f *followerCore) applyFrame(fr wire.ReplFrame, now time.Time) error {
	if fr.Kind == wire.ReplHeartbeat {
		return nil
	}
	// One frame is the unit of atomicity the read plane observes: a read waits
	// out an in-progress fold, never sees a half-applied batch.
	f.smu.Lock()
	defer f.smu.Unlock()
	sid := int(fr.Shard)
	if sid < 0 || sid >= f.shards {
		return fmt.Errorf("cluster: stream frame for shard %d of %d", fr.Shard, f.shards)
	}
	switch fr.Kind {
	case wire.ReplSnapBegin:
		f.inSnap[sid], f.snapBasis[sid] = true, fr.Offset
		return nil
	case wire.ReplSnapEnd:
		if !f.inSnap[sid] {
			return fmt.Errorf("cluster: snapshot end without begin on shard %d", sid)
		}
		f.inSnap[sid] = false
		f.counts[sid] = f.snapBasis[sid]
		f.resync[sid] = false
		f.mu.Lock()
		f.stats.Snapshots++
		f.mu.Unlock()
		return nil
	case wire.ReplEntry, wire.ReplEntryTraced:
		if fr.Offset == 0 {
			if !f.inSnap[sid] {
				return fmt.Errorf("cluster: bootstrap entry outside snapshot transfer on shard %d", sid)
			}
			return f.fold(sid, fr, false, now)
		}
		if fr.Offset <= f.counts[sid] {
			return nil // duplicate of our applied prefix
		}
		if fr.Offset != f.counts[sid]+1 {
			f.resync[sid] = true
			return fmt.Errorf("%w: shard %d got offset %d, expected %d", errStreamGap, sid, fr.Offset, f.counts[sid]+1)
		}
		if err := f.fold(sid, fr, true, now); err != nil {
			return err
		}
		f.counts[sid]++
		return nil
	}
	return fmt.Errorf("cluster: unknown stream frame kind %d", fr.Kind)
}

// fold lands one shipped entry: verify its frame (CRC), fold its batch into
// the owner's state by the recovery rule — through the owner's machine when
// it is resident, which also ingests the batch and drops the answer cache,
// O(batch) — append it to the replica's own WAL, and keep the replica's RAM
// bounded exactly as a live gateway would (history spill past the window,
// log rotation when the store says one is due).
func (f *followerCore) fold(sid int, fr wire.ReplFrame, live bool, now time.Time) error {
	e, err := store.DecodeEntryFrame(fr.Entry)
	if err != nil {
		f.resync[sid] = true
		return fmt.Errorf("cluster: shard %d: corrupt shipped entry: %w", sid, err)
	}
	st := f.states[sid][e.Owner]
	if st == nil {
		st = &store.OwnerState{Owner: e.Owner, Budget: dp.NewBudget()}
		f.states[sid][e.Owner] = st
	}
	tick := e.Batch.Tick
	if tick <= st.Clock {
		return nil // content already in the replica (offset streams overlap after healing)
	}
	if tick != st.Clock+1 {
		f.resync[sid] = true
		return fmt.Errorf("%w: owner %q tick %d does not extend clock %d", errStreamGap, e.Owner, tick, st.Clock)
	}
	tn := f.machines[e.Owner]
	if tn != nil {
		err = tn.Commit(e.Batch)
	} else {
		err = st.Apply(e.Batch)
	}
	if err != nil {
		f.resync[sid] = true
		return fmt.Errorf("cluster: folding owner %q tick %d: %w", e.Owner, tick, err)
	}
	if tn != nil {
		if err := tn.Ingest(e.Batch.Setup, e.Batch.Sealed); err != nil {
			// The state is right and the backend is not: a machine that
			// missed a batch is never served. The owner's next read replays
			// one from history.
			delete(f.machines, e.Owner)
			f.log.Warn("replica ingest failed; dropping the owner's resident machine",
				"owner_hash", telemetry.OwnerHash(e.Owner), "tick", tick, "err", err)
		}
	}
	f.pending[sid].Add(1)
	if err := f.st.Append(sid, e, func(werr error) {
		if werr != nil {
			f.mu.Lock()
			if f.appendErr == nil {
				f.appendErr = werr
			}
			f.mu.Unlock()
		}
		f.pending[sid].Done()
	}); err != nil {
		f.pending[sid].Done()
		return fmt.Errorf("cluster: replica WAL append: %w", err)
	}
	if err := f.st.EnforceWindow(sid, st, f.window); err != nil {
		f.log.Warn("replica history spill deferred; batches stay in RAM",
			"owner_hash", telemetry.OwnerHash(st.Owner), "batches", len(st.Tail), "err", err)
	}
	if f.st.RotateDue(sid) {
		f.rotate(sid)
	}
	f.mu.Lock()
	f.stats.Applied++
	if live {
		f.stats.LagNs += now.UnixNano() - fr.CommitNs
	}
	f.mu.Unlock()
	if fr.Kind == wire.ReplEntryTraced {
		// The primary sampled this sync: join its trace with a fragment whose
		// span parents under the propagated repl-ship span ID. The fragment
		// carries stage timing only — the wire context is trace ID + parent
		// span, never tenant identity.
		f.tracer.Fragment(fr.TraceID, fr.ParentSpan, "follower-apply", now, time.Now())
	}
	return nil
}

// rotate snapshots one shard of the replica and truncates its WAL, after
// draining that shard's in-flight appends (the quiesce the store requires).
// A failed rotation only means a longer WAL — the store does not report
// another due until the log has doubled; everything stays recoverable.
func (f *followerCore) rotate(sid int) {
	f.pending[sid].Wait()
	f.mu.Lock()
	werr := f.appendErr
	f.mu.Unlock()
	if werr != nil {
		return // the tail loop will surface the append failure
	}
	owners := make([]store.OwnerState, 0, len(f.states[sid]))
	for _, st := range f.states[sid] {
		owners = append(owners, *st)
	}
	if err := f.st.Rotate(sid, owners); err != nil {
		f.log.Warn("replica rotation failed", "shard", sid, "err", err)
	}
}

// seal quiesces the replica and closes its store, leaving the directory a
// committed restart image — the promotion (and graceful shutdown) barrier.
// It reports a latched WAL append failure, if any; even then the directory
// holds the longest provable prefix.
func (f *followerCore) seal() error {
	for sid := range f.pending {
		f.pending[sid].Wait()
	}
	f.mu.Lock()
	werr := f.appendErr
	f.mu.Unlock()
	if cerr := f.st.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// kill abandons the replica the way a crash would: pending appends fail,
// nothing further is flushed.
func (f *followerCore) kill() { f.st.Kill() }

// Stats returns a copy of the follower counters.
func (f *followerCore) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// dropMachines discards every resident machine and refuses new ones. Called
// before the replica seals or is killed, so promotion stays "recovery over
// the directory" and nothing built from the store outlives it.
func (f *followerCore) dropMachines() {
	f.smu.Lock()
	f.machines = nil
	f.smu.Unlock()
}
