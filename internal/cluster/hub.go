package cluster

import (
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"dpsync/internal/gateway"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// The primary's half of replication. The Hub taps the gateway's durable
// commit stream (gateway.Replicator) and ships every committed WAL entry,
// in commit order, to however many followers are tailing. Per shard it
// keeps a bounded ring of recently shipped frames keyed by a monotone
// stream offset; a follower joins with its per-shard cursors and is served
// the suffix from the ring when it can be, or a full snapshot transfer —
// the owner histories streamed straight off the primary's history segments
// — when it has fallen behind the ring or its cursors belong to another
// primary's stream.
//
// Offsets are not invented by the Hub: a shard's offset is its total
// committed entry count (the sum of its owners' clocks), which both sides
// can re-derive from their own recovered state. That is what makes a
// follower's resume cursor durable — after a restart it rejoins at exactly
// the entry after the last one it applied, no gap, no re-apply. Cursors
// are still stream-local: a follower whose cursors disagree with this
// primary's history (ahead of head, or behind the ring) is healed by a
// snapshot transfer, whose per-owner tick folding is immune to offset
// divergence.

const (
	// DefaultRingSize is the per-shard count of recently committed frames
	// the primary retains for follower catch-up; a follower further behind
	// gets a snapshot transfer instead.
	DefaultRingSize = 4096
	// DefaultHeartbeat is the idle-stream heartbeat interval. A follower's
	// read deadline is derived from it, so silence means a dead primary,
	// not a quiet one.
	DefaultHeartbeat = 250 * time.Millisecond
	// replHandshakeTimeout bounds the join exchange on both sides.
	replHandshakeTimeout = 10 * time.Second
	// replWriteTimeout bounds one frame batch's write to a follower; a
	// follower that stalls longer sheds itself (it rejoins by cursor).
	replWriteTimeout = 30 * time.Second
	// senderBatch caps frames shipped per sender iteration so one huge
	// backlog cannot starve the heartbeat/death checks.
	senderBatch = 256
)

// HubConfig assembles a Hub.
type HubConfig struct {
	// RingSize is the per-shard catch-up ring length (0 = DefaultRingSize).
	RingSize int
	// Heartbeat is the idle-stream heartbeat interval (0 = DefaultHeartbeat).
	Heartbeat time.Duration
	// Clock stamps CommitNs on shipped frames (nil = time.Now); the
	// follower's replication-lag metric is the difference against its own
	// clock, so tests inject a shared fake.
	Clock func() time.Time
	// Logger receives bounded diagnostics; nil discards.
	Logger *slog.Logger
	// Telemetry receives the hub's replication metrics (frames shipped,
	// snapshot fallbacks, per-follower cursor lag in entries and ms). Nil
	// disables export.
	Telemetry *telemetry.Registry
}

// HubStats are the primary-side replication counters.
type HubStats struct {
	// Followers is the number of currently connected followers.
	Followers int
	// Shipped counts live stream entries written to followers (snapshot
	// bootstrap entries excluded).
	Shipped uint64
	// Snapshots counts per-shard snapshot transfers served.
	Snapshots uint64
}

// replRing is one shard's catch-up buffer: a circular window of the last
// len(slots) committed frames, ending at stream offset head. Pushing onto a
// full ring overwrites the oldest slot in place — no copy, and the frame it
// held becomes collectable.
type replRing struct {
	head  uint64
	slots []ringSlot // RingSize of them, allocated at Bind
	start int        // index of the oldest buffered slot
	n     int        // buffered slots
}

// ringSlot is one buffered offset: the one encoded stream frame for it — a
// ReplEntryTraced frame if the entry's sync was sampled, a ReplEntry frame
// otherwise — its CommitNs, kept beside it so the lag collector can turn a
// follower's owed suffix into milliseconds without decoding frames, and the
// ship-span completion state of a sampled entry (nil otherwise).
type ringSlot struct {
	frame    []byte
	commitNs int64
	meta     *shipMeta
}

// at returns the i-th oldest buffered slot.
func (r *replRing) at(i int) *ringSlot { return &r.slots[(r.start+i)%len(r.slots)] }

// push buffers the frame for offset head+1.
func (r *replRing) push(s ringSlot) {
	r.head++
	if r.n < len(r.slots) {
		r.n++
	} else {
		r.start = (r.start + 1) % len(r.slots)
	}
	*r.at(r.n - 1) = s
}

// shipMeta completes one sampled entry's repl-ship span. The span's ID was
// Alloc'd at commit time (it is the parent the follower's span joins under,
// so it must be on the wire before it has an end); the first sender to put
// the entry on a wire records it — once, however many followers tail.
type shipMeta struct {
	tc    telemetry.TraceContext // positioned at the entry's wal-commit span
	ship  uint32                 // the Alloc'd repl-ship span ID
	start time.Time
	once  sync.Once
}

// oldest is the lowest offset still buffered; callers check n > 0.
func (r *replRing) oldest() uint64 { return r.head - uint64(r.n) + 1 }

// hubSub is one connected follower: its conn, its per-shard cursors (owned
// by its sender goroutine), and the channels that wake or kill the sender.
type hubSub struct {
	conn    net.Conn
	node    string // follower's self-reported node ID (labels its lag series)
	cursors []uint64
	wake    chan struct{} // capacity 1; Committed nudges idle senders
	dead    chan struct{} // closed when the conn dies (read watchdog)
	busy    bool          // sender holds collected frames it has not flushed yet
}

// Hub is the primary-side replication fan-out. Create with NewHub, wire it
// into the gateway via Config.Replicator, then Bind it to the gateway it
// serves before Serve starts accepting.
type Hub struct {
	cfg   HubConfig
	log   *slog.Logger
	quit  chan struct{}
	unreg func() // telemetry collector unregistration; nil without Telemetry

	mu        sync.Mutex
	gw        *gateway.Gateway
	rings     []replRing
	subs      map[*hubSub]struct{}
	closed    bool
	shipped   uint64
	snapshots uint64
}

// NewHub builds a hub. It is inert until Bind.
func NewHub(cfg HubConfig) *Hub {
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	h := &Hub{cfg: cfg, quit: make(chan struct{}), subs: map[*hubSub]struct{}{}}
	if cfg.Logger != nil {
		h.log = cfg.Logger
	} else {
		h.log = telemetry.Discard()
	}
	if reg := cfg.Telemetry; reg != nil {
		h.unreg = reg.RegisterCollector(h.emitTelemetry)
	}
	return h
}

// emitTelemetry is the hub's scrape-time collector. It runs under h.mu — the
// admin plane's goroutine, never a shard worker — so a scrape can observe
// follower cursors without perturbing the commit path (Committed holds the
// same mutex only for its ring append).
func (h *Hub) emitTelemetry(emit func(telemetry.Sample)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	emit(telemetry.Sample{Name: "repl_followers", Help: "connected followers",
		Kind: telemetry.KindGauge, Value: float64(len(h.subs))})
	emit(telemetry.Sample{Name: "repl_shipped_total", Help: "live stream entries written to followers",
		Kind: telemetry.KindCounter, Value: float64(h.shipped)})
	emit(telemetry.Sample{Name: "repl_snapshots_total", Help: "per-shard snapshot transfers served",
		Kind: telemetry.KindCounter, Value: float64(h.snapshots)})
	now := h.cfg.Clock().UnixNano()
	for sub := range h.subs {
		lagE, lagMs := h.lagLocked(sub, now)
		emit(telemetry.Sample{
			Name: fmt.Sprintf("repl_follower_lag_entries{follower=%q}", sub.node),
			Help: "entries committed on the primary but not yet shipped to this follower",
			Kind: telemetry.KindGauge, Value: float64(lagE)})
		emit(telemetry.Sample{
			Name: fmt.Sprintf("repl_follower_lag_ms{follower=%q}", sub.node),
			Help: "age of the oldest entry owed to this follower, milliseconds",
			Kind: telemetry.KindGauge, Value: lagMs})
	}
}

// lagLocked computes one follower's owed-entry count and the age of the
// oldest owed frame still in a ring (0 ms when fully caught up, or when the
// owed suffix fell off the ring — a snapshot transfer is already due then).
func (h *Hub) lagLocked(sub *hubSub, nowNs int64) (entries int64, ms float64) {
	var oldest int64
	for sid, c := range sub.cursors {
		r := &h.rings[sid]
		if c >= r.head {
			continue
		}
		entries += int64(r.head - c)
		if r.n > 0 && c+1 >= r.oldest() {
			if ts := r.at(int(c + 1 - r.oldest())).commitNs; oldest == 0 || ts < oldest {
				oldest = ts
			}
		}
	}
	if oldest != 0 {
		ms = float64(nowNs-oldest) / 1e6
	}
	return entries, ms
}

// Bind attaches the hub to the gateway it replicates and initializes each
// shard's stream head to the shard's recovered committed entry count (the
// sum of its owners' clocks) — so offsets continue the durable stream
// rather than restarting at zero on every primary. Call after gateway.New
// and before Serve accepts connections.
func (h *Hub) Bind(gw *gateway.Gateway) error {
	if gw.Store() == nil {
		return fmt.Errorf("cluster: hub requires a durable gateway (StoreDir)")
	}
	rings := make([]replRing, gw.Shards())
	for sid := range rings {
		var head uint64
		ok := gw.OwnerCut(sid, func(states []store.OwnerState) {
			for _, st := range states {
				head += st.Clock
			}
		})
		if !ok {
			return fmt.Errorf("cluster: gateway shut down during hub bind")
		}
		rings[sid].head = head
		rings[sid].slots = make([]ringSlot, h.cfg.RingSize)
	}
	h.mu.Lock()
	h.gw = gw
	h.rings = rings
	h.mu.Unlock()
	return nil
}

// Close tears the hub down: idle senders wake and exit, connected followers
// are severed (they rejoin whoever is primary next from their cursors).
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	conns := make([]net.Conn, 0, len(h.subs))
	for sub := range h.subs {
		conns = append(conns, sub.conn)
	}
	h.mu.Unlock()
	close(h.quit)
	for _, c := range conns {
		_ = c.Close()
	}
	if h.unreg != nil {
		h.unreg()
	}
}

// Stats reports the hub's counters.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HubStats{Followers: len(h.subs), Shipped: h.shipped, Snapshots: h.snapshots}
}

// FollowerStatus is one connected follower's stream position, for the status
// plane.
type FollowerStatus struct {
	Node       string
	Cursors    []uint64
	LagEntries int64
	LagMs      float64
}

// Followers reports every connected follower's cursors and lag.
func (h *Hub) Followers() []FollowerStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.cfg.Clock().UnixNano()
	out := make([]FollowerStatus, 0, len(h.subs))
	for sub := range h.subs {
		lagE, lagMs := h.lagLocked(sub, now)
		cursors := make([]uint64, len(sub.cursors))
		copy(cursors, sub.cursors)
		out = append(out, FollowerStatus{Node: sub.node, Cursors: cursors, LagEntries: lagE, LagMs: lagMs})
	}
	return out
}

// Committed implements gateway.Replicator: one durably committed sync
// entry, on its shard's worker, in commit order. It wraps the entry's frame
// in a stream frame, appends it to the shard's ring, and nudges idle senders
// — never blocking: a follower that cannot keep up falls off the ring and is healed
// by a snapshot transfer, not by stalling the commit path. For a sampled
// entry (tc carries a trace, positioned at the wal-commit span) it also
// Allocs the repl-ship span — whose ID crosses the wire as the parent the
// follower's apply span joins under — and the frame is the traced kind.
func (h *Hub) Committed(sid int, e store.Entry, tc telemetry.TraceContext) {
	// The gateway's entry carries the frame its WAL append encoded, and wrapping
	// that cannot fail. Only a hand-built entry is encoded here, and only that
	// can err; losing the frame would silently desynchronize every follower, so
	// log loudly.
	raw, err := e.Frame()
	if err != nil {
		h.log.Error("cannot encode committed entry; followers will desynchronize",
			"shard", sid, "owner_hash", telemetry.OwnerHash(e.Owner), "err", err)
		return
	}
	h.mu.Lock()
	if h.closed || h.rings == nil || sid < 0 || sid >= len(h.rings) {
		h.mu.Unlock()
		return
	}
	r := &h.rings[sid]
	commitNs := h.cfg.Clock().UnixNano()
	fr := wire.ReplFrame{
		Kind:     wire.ReplEntry,
		Shard:    uint32(sid),
		Offset:   r.head + 1,
		CommitNs: commitNs,
		Entry:    raw,
	}
	var meta *shipMeta
	if id := tc.TraceID(); id != 0 {
		ship := tc.Alloc()
		meta = &shipMeta{tc: tc, ship: ship, start: h.cfg.Clock()}
		fr.Kind, fr.TraceID, fr.ParentSpan = wire.ReplEntryTraced, id, ship
	}
	payload, err := wire.EncodeReplFrame(fr)
	if err != nil {
		h.mu.Unlock()
		h.log.Error("cannot frame committed entry", "shard", sid, "err", err)
		return
	}
	r.push(ringSlot{frame: payload, commitNs: commitNs, meta: meta})
	for sub := range h.subs {
		select {
		case sub.wake <- struct{}{}:
		default:
		}
	}
	h.mu.Unlock()
}

// ServeConn implements gateway.Replicator: the join handshake, then the
// frame stream, on the connection's handler goroutine until the follower
// disconnects or the hub/gateway shuts down.
func (h *Hub) ServeConn(conn net.Conn, version byte) {
	h.mu.Lock()
	gw, ready := h.gw, !h.closed && h.rings != nil
	h.mu.Unlock()
	// No negotiation: a follower on any other replication version is
	// refused, the same answer a non-primary gives.
	if !ready || version != wire.ReplVersion {
		_ = conn.SetWriteDeadline(time.Now().Add(replHandshakeTimeout))
		_ = wire.WriteHelloRefused(conn)
		return
	}
	_ = conn.SetWriteDeadline(time.Now().Add(replHandshakeTimeout))
	if err := wire.WriteReplHelloAck(conn, wire.ReplVersion); err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Now().Add(replHandshakeTimeout))
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		return
	}
	join, err := wire.DecodeReplJoin(payload)
	if err != nil {
		h.log.Warn("malformed follower join", "conn", conn.RemoteAddr().String(), "err", err)
		return
	}
	shards := len(h.rings)
	cursors := make([]uint64, shards)
	for _, c := range join.Cursors {
		if int(c.Shard) >= shards {
			h.log.Warn("follower cursor for unknown shard",
				"follower", join.Node, "shard", c.Shard, "shards", shards)
			return
		}
		cursors[c.Shard] = c.Offset
	}
	snap := false
	h.mu.Lock()
	for sid := range cursors {
		if h.needsSnapshotLocked(sid, cursors[sid]) {
			snap = true
		}
	}
	h.mu.Unlock()
	_ = conn.SetWriteDeadline(time.Now().Add(replHandshakeTimeout))
	if err := wire.WriteFrame(conn, wire.EncodeReplJoinAck(wire.ReplJoinAck{Shards: uint32(shards), Snapshot: snap})); err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	sub := &hubSub{conn: conn, node: join.Node, cursors: cursors, wake: make(chan struct{}, 1), dead: make(chan struct{})}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.subs, sub)
		h.mu.Unlock()
	}()
	// A follower never writes after its join, so a successful read here is a
	// protocol violation and an error is the conn dying — either way the
	// sender must stop. This watchdog is what lets the sender block on an
	// idle stream yet still notice a dead peer immediately.
	go func() {
		buf := make([]byte, 1)
		_, _ = conn.Read(buf)
		close(sub.dead)
	}()
	h.log.Info("follower joined", "follower", join.Node, "conn", conn.RemoteAddr().String(), "snapshot", snap)
	h.runSender(gw, sub, join.Node)
}

// needsSnapshotLocked decides whether a cursor can be served from the ring:
// a cursor ahead of the stream head belongs to another primary's history,
// and a cursor behind the oldest buffered frame has lost its suffix — both
// are healed by a snapshot transfer.
func (h *Hub) needsSnapshotLocked(sid int, cursor uint64) bool {
	r := &h.rings[sid]
	if cursor > r.head {
		return true
	}
	if cursor == r.head {
		return false
	}
	return r.n == 0 || cursor+1 < r.oldest()
}

// collect gathers up to senderBatch ring frames the follower is owed and
// advances its cursors; metas are the ship spans of the sampled entries
// among them, which the sender completes once the frames are on the wire.
// resnap reports any shard that has meanwhile fallen off the ring (the
// caller runs a snapshot pass before waiting).
func (h *Hub) collect(sub *hubSub) (frames [][]byte, metas []*shipMeta, resnap bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sid := range sub.cursors {
		if len(frames) >= senderBatch {
			break
		}
		r := &h.rings[sid]
		c := sub.cursors[sid]
		if c >= r.head {
			continue
		}
		if h.needsSnapshotLocked(sid, c) {
			resnap = true
			continue
		}
		first := int(c + 1 - r.oldest())
		take := min(r.n-first, senderBatch-len(frames))
		for i := first; i < first+take; i++ {
			s := r.at(i)
			frames = append(frames, s.frame)
			if s.meta != nil {
				metas = append(metas, s.meta)
			}
		}
		sub.cursors[sid] = c + uint64(take)
	}
	h.shipped += uint64(len(frames))
	// Cursors advance before the write happens; busy keeps Flush honest
	// until the collected frames are actually on the wire.
	sub.busy = len(frames) > 0
	return frames, metas, resnap
}

// settle clears a sub's busy mark once its collected frames are flushed (or
// its sender is about to exit).
func (h *Hub) settle(sub *hubSub) {
	h.mu.Lock()
	sub.busy = false
	h.mu.Unlock()
}

// Flush implements the gateway's graceful-close flush hook: it blocks until
// every connected follower has consumed the committed stream (cursors at
// every shard head, no collected-but-unwritten frames), or until timeout.
// With no followers connected it returns immediately — the drain window's
// commits then survive in the store and the clients' resync windows alone.
func (h *Hub) Flush(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		h.mu.Lock()
		caught := !h.closed
		for sub := range h.subs {
			if sub.busy {
				caught = false
				break
			}
			for sid, c := range sub.cursors {
				if c < h.rings[sid].head {
					caught = false
					break
				}
			}
			if !caught {
				break
			}
		}
		h.mu.Unlock()
		if caught || time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// runSender is one follower's stream loop: snapshot transfers for shards the
// ring cannot serve, then ring frames as they commit, heartbeats when idle.
func (h *Hub) runSender(gw *gateway.Gateway, sub *hubSub, node string) {
	// Every socket write gets replWriteTimeout; a follower that stalls longer
	// sheds itself.
	fc := wire.NewConn(sub.conn)
	fc.WriteTimeout = replWriteTimeout
	for {
		for sid := range sub.cursors {
			h.mu.Lock()
			need := h.needsSnapshotLocked(sid, sub.cursors[sid])
			h.mu.Unlock()
			if need {
				if err := h.sendSnapshot(gw, sub, sid, fc); err != nil {
					h.log.Warn("snapshot transfer failed", "follower", node, "shard", sid, "err", err)
					return
				}
			}
		}
		frames, metas, resnap := h.collect(sub)
		if len(frames) > 0 {
			for _, fr := range frames {
				if err := fc.WriteFrame(fr); err != nil {
					return
				}
			}
			if err := fc.Flush(); err != nil {
				return
			}
			// The entries are on a wire: complete their repl-ship spans. Once
			// per entry — the first sender to ship it wins; later followers
			// re-ship the same frame without re-recording.
			if len(metas) > 0 {
				now := time.Now()
				for _, m := range metas {
					m.once.Do(func() {
						m.tc.RecordSpan(telemetry.Span{
							ID: m.ship, Parent: m.tc.Span(), Name: "repl-ship",
							Start: m.start, End: now,
						})
					})
				}
			}
			h.settle(sub)
			continue
		}
		if resnap {
			continue
		}
		select {
		case <-sub.wake:
		case <-sub.dead:
			return
		case <-h.quit:
			return
		case <-time.After(h.cfg.Heartbeat):
			hb, err := wire.EncodeReplFrame(wire.ReplFrame{Kind: wire.ReplHeartbeat, CommitNs: h.cfg.Clock().UnixNano()})
			if err != nil {
				return
			}
			if fc.WriteFrame(hb) != nil || fc.Flush() != nil {
				return
			}
		}
	}
}

// sendSnapshot heals one shard's stream for one follower: a commit-
// consistent cut of the shard's owner states is taken on the shard worker
// (recording the stream basis atomically — every commit is inside the cut
// or after the basis, never both), the shard's buffered history spill is
// flushed, and each owner's full batch history is streamed off the
// primary's own segments as bootstrap entries the follower folds by tick.
// The follower's cursor resumes from the basis.
func (h *Hub) sendSnapshot(gw *gateway.Gateway, sub *hubSub, sid int, fc *wire.Conn) error {
	var basis uint64
	var states []store.OwnerState
	if ok := gw.OwnerCut(sid, func(sts []store.OwnerState) {
		h.mu.Lock()
		basis = h.rings[sid].head
		h.mu.Unlock()
		states = sts
	}); !ok {
		return fmt.Errorf("gateway shut down during cut")
	}
	st := gw.Store()
	if err := st.FlushHistory(sid); err != nil {
		return err
	}
	begin, err := wire.EncodeReplFrame(wire.ReplFrame{Kind: wire.ReplSnapBegin, Shard: uint32(sid), Offset: basis})
	if err != nil {
		return err
	}
	if err := fc.WriteFrame(begin); err != nil {
		return err
	}
	for i := range states {
		owner := states[i].Owner
		err := st.StreamHistory(&states[i], func(bt store.Batch) error {
			raw, err := store.Entry{Owner: owner, Batch: bt}.Frame()
			if err != nil {
				return err
			}
			payload, err := wire.EncodeReplFrame(wire.ReplFrame{
				Kind: wire.ReplEntry, Shard: uint32(sid), CommitNs: h.cfg.Clock().UnixNano(), Entry: raw,
			})
			if err != nil {
				return err
			}
			return fc.WriteFrame(payload)
		})
		if err != nil {
			return fmt.Errorf("owner %q: %w", owner, err)
		}
	}
	end, err := wire.EncodeReplFrame(wire.ReplFrame{Kind: wire.ReplSnapEnd, Shard: uint32(sid)})
	if err != nil {
		return err
	}
	if err := fc.WriteFrame(end); err != nil {
		return err
	}
	if err := fc.Flush(); err != nil {
		return err
	}
	// Under h.mu: the telemetry collector and Followers read cursors from
	// other goroutines (collect already guards its accesses the same way).
	h.mu.Lock()
	sub.cursors[sid] = basis
	h.snapshots++
	h.mu.Unlock()
	return nil
}
