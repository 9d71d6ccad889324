package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpsync/internal/gateway"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// The follower's half of replication. A follower is a gateway in replica
// role (gateway.NewReplica) over the node's own directory, plus this file: the
// tail of the primary's stream. Serving, tenant state, the replica's WAL,
// history window and rotation all belong to the gateway's shard workers; what
// is the stream's own stays here — the handshake and join cursors, the
// snapshot-transfer bracketing, heartbeats and the lag counters. Each shipped
// entry is handed to the owner's shard (Gateway.Replicate), which applies it
// by the recovery rule — tick ≤ clock is skipped, tick == clock+1 is applied
// (transcript event, ε charge, history tail, backend ingest) and appended to
// the replica's own WAL, anything else is a stream gap — so the directory is
// at every instant a valid restart image and the RAM above it is what recovery
// over it would build: promotion is a role flip, not a recovery.
//
// The tail waits for each step's outcome before reading the next frame, so a
// frame that cannot extend the replica ends the session with nothing of that
// shard applied after it, and the cursors a rejoin sends are exactly what the
// shards hold.
//
// Stream positions: a shard's applied live-stream offset (== its committed
// entry count, re-derivable from recovered clocks, which is what makes
// resume-after-restart exact) is kept by its shard worker. Snapshot transfers
// deliver bootstrap entries with offset 0 — applied by tick only — and
// reposition the cursor at the transfer's basis.

// errGatewayClosed ends a session whose gateway shut down under it; unlike
// every other failed step it says nothing about the stream.
var errGatewayClosed = errors.New("cluster: replica gateway closed")

// errShardMismatch reports a primary whose shard count differs from this
// node's — a misconfigured cluster (shard hashing would scatter owners
// differently on each node). It ends the session, not the node: the role
// loop redials with backoff, in case the primary it finds next agrees.
var errShardMismatch = errors.New("cluster: primary shard count differs from local configuration")

// resyncCursor is the join cursor a follower sends for a shard whose
// stream it can no longer extend (gateway.ErrStreamGap, corrupt frame,
// refused charge): it is above any
// real head, so the primary's servability check always answers with a
// snapshot transfer.
const resyncCursor = ^uint64(0)

// FollowerStats are the follower-side replication counters.
type FollowerStats struct {
	// Applied counts stream entries applied and WAL-appended.
	Applied uint64
	// Snapshots counts per-shard snapshot transfers applied.
	Snapshots uint64
	// LagNs is the cumulative (apply time − primary commit time) over
	// Applied entries, in nanoseconds; divide for the mean replication lag.
	LagNs int64
}

// followerCore is the tail of the primary's stream into gw. All stream
// methods run on one goroutine (the tail loop), which is also the only caller
// of gw.Replicate; Stats reads the mutex-guarded counters.
type followerCore struct {
	log    *slog.Logger
	gw     *gateway.Gateway
	shards int
	// tracer records follower-apply fragments for traces the primary
	// propagated in traced entry frames; nil disables (spans are dropped,
	// frames apply identically).
	tracer *telemetry.Tracer

	// lastContact is the UnixNano of the last frame read off the primary
	// (heartbeats included); 0 before the first session. Readiness reads it
	// lock-free — a follower replicating within its lag bound is ready.
	lastContact atomic.Int64

	resync    []bool // shard needs a snapshot transfer
	inSnap    []bool // mid snapshot transfer
	snapBasis []uint64

	mu    sync.Mutex
	stats FollowerStats
}

type stepOutcome struct {
	applied bool
	err     error
}

func newFollower(gw *gateway.Gateway, lg *slog.Logger, tracer *telemetry.Tracer) *followerCore {
	shards := gw.Shards()
	return &followerCore{
		log: lg, gw: gw, shards: shards, tracer: tracer,
		resync:    make([]bool, shards),
		inSnap:    make([]bool, shards),
		snapBasis: make([]uint64, shards),
	}
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
	cursors := make([]uint64, f.shards)
	for sid, ss := range f.gw.ShardStatuses() {
		cursors[sid] = ss.Applied
		if f.resync[sid] {
			cursors[sid] = resyncCursor
		}
	}
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
	shards, err := wire.DecodeReplJoinAck(payload)
	if err != nil {
		return err
	}
	if shards != uint64(f.shards) {
		return fmt.Errorf("%w: primary has %d, this node %d", errShardMismatch, shards, f.shards)
	}
	_ = conn.SetWriteDeadline(time.Time{})
	// A dropped link mid-transfer leaves inSnap set; the rejoin restarts the
	// transfer from scratch, so clear the per-session markers.
	for sid := range f.inSnap {
		f.inSnap[sid] = false
	}
	fc.ReadTimeout = readTO
	for {
		// A fresh payload per frame: an applied entry's ciphertexts alias it and
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

// applyFrame advances the replica by one stream frame: the transfer
// bracketing is the tail's, everything that touches a shard is a step on its
// worker. A step that cannot extend the replica marks the shard for resync —
// the rejoin asks for a snapshot transfer — and ends the session.
func (f *followerCore) applyFrame(fr wire.ReplFrame, now time.Time) error {
	if fr.Kind == wire.ReplHeartbeat {
		return nil
	}
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
		if _, err := f.step(sid, f.snapBasis[sid], nil); err != nil {
			return err
		}
		f.inSnap[sid], f.resync[sid] = false, false
		f.mu.Lock()
		f.stats.Snapshots++
		f.mu.Unlock()
		return nil
	case wire.ReplEntry:
		if fr.Offset == 0 && !f.inSnap[sid] {
			return fmt.Errorf("cluster: bootstrap entry outside snapshot transfer on shard %d", sid)
		}
		applied, err := f.step(sid, fr.Offset, fr.Entry)
		if err != nil {
			f.resync[sid] = !errors.Is(err, errGatewayClosed)
			return err
		}
		if !applied {
			return nil // the replica already held it
		}
		f.mu.Lock()
		f.stats.Applied++
		if fr.Offset != 0 {
			f.stats.LagNs += now.UnixNano() - fr.CommitNs
		}
		f.mu.Unlock()
		if fr.TraceID != 0 {
			// The primary sampled this sync: join its trace with a fragment whose
			// span parents under the propagated repl-ship span ID. The fragment
			// carries stage timing only — the wire context is trace ID + parent
			// span, never tenant identity.
			f.tracer.Fragment(fr.TraceID, fr.ParentSpan, "follower-apply", now, time.Now())
		}
		return nil
	}
	return fmt.Errorf("cluster: unknown stream frame kind %d", fr.Kind)
}

// step runs one Replicate step on shard sid's worker and waits for its
// outcome.
func (f *followerCore) step(sid int, offset uint64, frame []byte) (bool, error) {
	outcome := make(chan stepOutcome, 1) // buffered: the worker never blocks on it
	if !f.gw.Replicate(sid, offset, frame, func(applied bool, err error) {
		outcome <- stepOutcome{applied, err}
	}) {
		return false, errGatewayClosed
	}
	select {
	case o := <-outcome:
		return o.applied, o.err
	case <-f.gw.Closed():
		return false, errGatewayClosed
	}
}

// Stats returns a copy of the follower counters.
func (f *followerCore) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
