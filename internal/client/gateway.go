// Package client provides the owner- and analyst-side network client. An
// OwnerSession implements edb.Database over the wire protocol, so the whole
// DP-Sync stack (core.Owner, strategies, cache) runs unchanged against a
// remote gateway: records are sealed locally before transmission, and the
// session keeps the true real/dummy storage accounting that the server, by
// design, cannot.
package client

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/wire"
)

// DefaultWindow is the default in-flight request window per gateway
// connection: how many requests may be awaiting responses before senders
// block. It is the client-side backpressure valve — a saturated gateway
// slows its clients instead of accumulating unbounded in-flight state.
const DefaultWindow = 64

// Reconnect tuning. Backoff is capped exponential with full jitter: each
// attempt sleeps a uniformly random duration in [delay/2, delay], then the
// delay doubles up to the cap — the jitter keeps a fleet of owners that lost
// the same gateway from redialing in lockstep.
const (
	// DefaultReconnectAttempts bounds redials per outage before the
	// connection fails permanently.
	DefaultReconnectAttempts = 10
	reconnectBaseDelay       = 5 * time.Millisecond
	reconnectMaxDelay        = time.Second
	// helloTimeout bounds one dial's hello exchange, so an address whose
	// listener is up but whose node is wedged cannot hang the rotation —
	// failover depends on moving to the next address promptly. It is also
	// the replica link's timeout: a follower that accepts and then says
	// nothing costs the reads in flight on it this long, together, and then
	// the primary answers them.
	helloTimeout = 5 * time.Second
)

// DefaultResyncWindow is how many recently acked sync payloads an
// OwnerSession retains for failover resync. When a promoted gateway's
// committed clock turns out to lag the session's acked sequence (the old
// primary committed-but-never-shipped those syncs before dying), the
// session re-uploads the difference verbatim from this window — that is
// what keeps every owner's transcript and ε ledger identical to an
// uninterrupted run across a failover. A session that outruns the window
// cannot heal and fails loudly instead of silently forking history.
const DefaultResyncWindow = 256

// codec is the one payload encoding the client proposes and speaks.
const codec = wire.CodecBinary

// GatewayConn is a client's connection to a multi-tenant gateway, shared
// concurrently by many goroutines and many owners. It is one link to the
// primary — every sync and resume, and every read nobody else answers — and,
// with WithReadReplica, a second link of the same kind to a follower's read
// plane. Both are pipelined and multiplexed (see link); what differs between
// them is set where each is opened and nowhere else.
//
// Obtain per-owner edb.Database handles with Owner.
type GatewayConn struct {
	sealer    *seal.Sealer
	addrs     []string // rotation order; addrs[addrIdx] is the last good one
	addrIdx   int      // touched only by the primary link's single dialing goroutine
	dialer    func(addr string) (net.Conn, error)
	resyncWin int
	window    int    // each link's in-flight cap
	readAddr  string // read-replica address ("" = reads go to the primary)

	primary *link
	traffic traffic // frame bytes of both links

	// The replica link: dialed with the read-only hello by the first read
	// that finds none alive, under rmu — a dial lock, never held across a
	// round trip, so any number of reads are in flight on the link at once.
	// It never replays and never reconnects in the background: reads are
	// side-effect free, so when it dies every read in flight on it fails over
	// to the primary, once, and the next read redials; so does every read
	// that waited for a dial that failed (rdials counts the dials, rerr is the
	// last one's failure, under rmu). Close must not wait for a dial, so it
	// takes no lock: it sets closed and then closes the link it finds, the
	// dialer stores its link and then looks at closed, and one of the two
	// always sees the other.
	rmu     sync.Mutex
	replica atomic.Pointer[link]
	rdials  atomic.Uint64
	rerr    error
	closed  atomic.Bool

	replicaServed    atomic.Int64
	replicaBehind    atomic.Int64
	replicaFallbacks atomic.Int64

	// The backend's identity (scheme, §6 leakage class, outsourced record
	// width): one backend constructor serves every tenant of a node, so the
	// first stats probe that answers speaks for all of the connection's
	// owners (see OwnerSession.info).
	backend atomic.Pointer[backendInfo]
}

// backendInfo is a node's backend identity as a stats probe reports it.
type backendInfo struct {
	scheme string
	leak   edb.LeakageClass
	width  int64
}

// traffic counts frame bytes (4-byte length prefixes included) across a
// GatewayConn's links.
type traffic struct{ out, in atomic.Int64 }

// link is one pipelined, multiplexed frame connection to a node: each request
// carries a fresh ID, responses are matched back by ID, and frame writes are
// serialized so the node observes each owner's requests in send order
// (per-owner FIFO). IDs are the link's own.
//
// Senders do not write to the socket. Each appends its frame to the
// transport's buffer and kicks the transport's flusher, which yields to the
// scheduler once and then writes the buffer: every sender that was already
// runnable — the callers one batch of responses just woke — gets its frame
// into the same write, and a lone sender's frame is written as soon as the
// scheduler returns to the flusher. No timer is involved, so an idle
// link never adds latency to coalesce.
//
// With reconnect, a lost transport is redialed automatically (capped
// exponential backoff + jitter) and every in-flight request is replayed in
// ID order on the new connection. Replay is safe because sequenced syncs
// are idempotent at the gateway (a retransmitted seq the tenant already
// applied is acked without re-ingesting or re-charging the ε ledger) and
// reads are side-effect free; callers blocked in roundTrip simply get their
// response on the new transport. Without, the first transport failure is
// permanent: every in-flight request fails with it and the link stays dead.
//
// With timeout, no request waits on the node longer than that: the reader's
// socket deadline follows the oldest request in flight (watch), so one timer
// covers every waiter and a node that accepts and then says nothing kills
// the link — and releases all of them — after one bounded wait.
type link struct {
	dial        func() (net.Conn, error) // reaches a serving node, hello included
	reconnect   bool
	maxAttempts int
	timeout     time.Duration
	traffic     *traffic

	wmu    sync.Mutex    // serializes frame appends and flushes; append order = node arrival order
	window chan struct{} // in-flight cap (backpressure)
	nextID atomic.Uint64

	mu           sync.Mutex
	tr           *transport    // the current epoch's transport
	gate         chan struct{} // closed = sends may proceed; replaced while reconnecting
	reconnecting bool
	pending      map[uint64]*pendingReq
	oldest       uint64 // no pending ID is below it; kept by watch
	closed       bool   // closed by the user; no further reconnects
	err          error  // first permanent failure; latched

	reconnects  atomic.Int64
	reconnectNs atomic.Int64
}

// transport is one epoch's connection: the buffered frame connection senders
// append to under wmu, and the flusher that puts their frames on the socket.
// The epoch increments per successful (re)dial; a failure reported for a
// stale epoch is ignored.
type transport struct {
	fc    *wire.Conn
	sock  net.Conn // fc's socket, for the read deadline watch moves
	epoch uint64
	kick  chan struct{} // capacity 1: frames are waiting in fc's buffer
	stop  chan struct{} // closed when the epoch is retired; its flusher exits
	once  sync.Once
}

// newTransport wraps a connection whose hello is done. A link with a timeout
// bounds each socket write by it too: a node that stops reading must not
// wedge the flusher, and with it every sender, behind a full socket buffer.
func (l *link) newTransport(conn net.Conn, epoch uint64) *transport {
	t := &transport{fc: wire.NewConn(conn), sock: conn, epoch: epoch, kick: make(chan struct{}, 1), stop: make(chan struct{})}
	t.fc.WriteTimeout = l.timeout
	return t
}

// retire stops the transport's flusher. The epoch is over: lost, or closed.
func (t *transport) retire() { t.once.Do(func() { close(t.stop) }) }

// pendingReq is one in-flight request, retained in full (not just its
// response channel) so a reconnect can replay it verbatim.
type pendingReq struct {
	owner string
	req   wire.Request
	ch    chan wire.Response
	sent  time.Time // when it was registered; stamped only on a link with a timeout
}

// GatewayOption tunes a GatewayConn.
type GatewayOption func(*gatewayOpts)

type gatewayOpts struct {
	window      int
	reconnect   bool
	maxAttempts int
	dialer      func(addr string) (net.Conn, error)
	addrs       []string
	resyncWin   int
	readAddr    string
}

// WithWindow sets the in-flight request window (default DefaultWindow).
func WithWindow(n int) GatewayOption {
	return func(o *gatewayOpts) {
		if n > 0 {
			o.window = n
		}
	}
}

// WithReconnect enables automatic redial + replay after transport loss.
// attempts bounds redials per outage (0 = DefaultReconnectAttempts).
func WithReconnect(attempts int) GatewayOption {
	return func(o *gatewayOpts) {
		o.reconnect = true
		if attempts > 0 {
			o.maxAttempts = attempts
		}
	}
}

// WithDialer substitutes the transport constructor (default net.Dial
// "tcp"). The fault-injection harness uses it to wrap connections in
// deterministic failure schedules.
func WithDialer(dial func(addr string) (net.Conn, error)) GatewayOption {
	return func(o *gatewayOpts) { o.dialer = dial }
}

// WithAddrs adds fallback addresses the client rotates across when the
// current one is unreachable or refuses the hello (wire.HelloRefused,
// wire.ErrNotPrimary — a cluster follower). The DialGateway address is
// tried first; together they are the cluster's node list, and failover is
// just the rotation landing on whichever node is serving.
func WithAddrs(addrs ...string) GatewayOption {
	return func(o *gatewayOpts) { o.addrs = append(o.addrs, addrs...) }
}

// WithReadReplica routes queries and stats probes to a follower's read
// plane at addr ("DPSQ" hello), keeping syncs on the primary. The replica
// gets the same pipelined link the primary does, so concurrent readers are
// in flight on it together, up to the window. A replica answer is served
// from the follower's committed replicated prefix; when the caller demands
// fresher state than the replica has applied (OwnerSession.QueryAt with a
// MinOffset above the replica's cursor), the replica's refusal
// (wire.ErrStale) — and any other replica failure, a reply that does not come
// within helloTimeout included — falls back to the primary transparently.
// ReplicaStats reports the split.
func WithReadReplica(addr string) GatewayOption {
	return func(o *gatewayOpts) { o.readAddr = addr }
}

// WithResyncWindow sets how many recently acked sync payloads each owner
// session retains for failover resync (default DefaultResyncWindow;
// negative = unbounded, for harnesses that must survive arbitrarily stale
// replicas).
func WithResyncWindow(n int) GatewayOption {
	return func(o *gatewayOpts) {
		if n != 0 {
			o.resyncWin = n
		}
	}
}

// DialGateway connects to a gateway, runs the hello exchange, and starts the
// demultiplexing reader.
func DialGateway(addr string, key []byte, opts ...GatewayOption) (*GatewayConn, error) {
	o := gatewayOpts{window: DefaultWindow, maxAttempts: DefaultReconnectAttempts, resyncWin: DefaultResyncWindow}
	for _, opt := range opts {
		opt(&o)
	}
	if o.dialer == nil {
		o.dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	s, err := seal.NewSealer(key)
	if err != nil {
		return nil, err
	}
	c := &GatewayConn{
		sealer:    s,
		addrs:     append([]string{addr}, o.addrs...),
		dialer:    o.dialer,
		resyncWin: o.resyncWin,
		window:    o.window,
		readAddr:  o.readAddr,
	}
	c.primary, err = c.openLink(&link{dial: c.dialTransport, reconnect: o.reconnect, maxAttempts: o.maxAttempts})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// openLink dials l's first transport and starts it: l arrives holding what
// distinguishes it (dial, reconnect, timeout) and leaves ready to send on.
func (c *GatewayConn) openLink(l *link) (*link, error) {
	conn, err := l.dial()
	if err != nil {
		return nil, err
	}
	l.traffic, l.window = &c.traffic, make(chan struct{}, c.window)
	l.gate, l.pending = closedGate(), map[uint64]*pendingReq{}
	l.tr = l.newTransport(conn, 1)
	l.start(l.tr)
	return l, nil
}

// start launches a transport's two goroutines. Both end with the epoch: the
// reader when the connection dies (connLost and close close it), the flusher
// when the transport is retired.
func (l *link) start(t *transport) {
	go l.readLoop(t)
	go l.flushLoop(t)
}

func closedGate() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// dialTransport finds a serving gateway: it tries the address list starting
// from the last good entry, skipping nodes that are unreachable or refuse
// the hello (wire.ErrNotPrimary — a cluster follower). It is the primary
// link's dial, first and on every reconnect, so the handshake cannot diverge
// between them; called from one goroutine at a time (init, then the single
// redial), which is what lets addrIdx go unlocked.
func (c *GatewayConn) dialTransport() (net.Conn, error) {
	var lastErr error
	for i := range c.addrs {
		idx := (c.addrIdx + i) % len(c.addrs)
		conn, err := c.dialOne(c.addrs[idx], wire.WriteHello)
		if err != nil {
			lastErr = err
			continue
		}
		c.addrIdx = idx
		return conn, nil
	}
	return nil, lastErr
}

// dialOne dials a single address and runs the hello exchange — hello is
// wire.WriteHello, or wire.WriteReadHello for the read-only plane — under a
// deadline, so one wedged node cannot stall the rotation.
func (c *GatewayConn) dialOne(addr string, hello func(io.Writer, wire.Codec) error) (net.Conn, error) {
	conn, err := c.dialer(addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial gateway %s: %w", addr, err)
	}
	_ = conn.SetDeadline(time.Now().Add(helloTimeout))
	if err := hello(conn, codec); err != nil {
		conn.Close()
		return nil, err
	}
	// Any ack but the codec proposed is an error: there is nothing to
	// negotiate down to.
	if _, err := wire.ReadHelloAck(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: gateway hello %s: %w", addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

var errClosed = errors.New("client: gateway connection closed")

// Close terminates the connection; in-flight requests fail and no reconnect
// is attempted — an explicit Close is the user's decision, not an outage.
// It never waits, not even for a replica dial in progress (see replica), and
// reads blocked on either link are severed.
func (c *GatewayConn) Close() error {
	c.closed.Store(true)
	if r := c.replica.Load(); r != nil {
		_ = r.close()
	}
	return c.primary.close()
}

// close fails the link for good: the socket is closed and every waiter
// released.
func (l *link) close() error {
	l.mu.Lock()
	l.closed = true
	tr := l.tr
	l.mu.Unlock()
	err := tr.fc.Close()
	l.fail(errClosed)
	return err
}

// dead reports whether the link has failed permanently.
func (l *link) dead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err != nil
}

// Drop severs the primary's transport without closing the logical
// connection — exactly what a mid-pipeline network failure looks like. With
// reconnect enabled the connection heals itself (redial + replay); without,
// it fails like any other transport loss. The churn harness's hook.
func (c *GatewayConn) Drop() {
	l := c.primary
	l.mu.Lock()
	tr := l.tr
	l.mu.Unlock()
	tr.fc.Close()
}

// BytesOut and BytesIn report total frame bytes (including the 4-byte
// length prefixes) sent and received, on the primary link and the replica
// link together — the load generator's bytes/sync numerator.
func (c *GatewayConn) BytesOut() int64 { return c.traffic.out.Load() }

// BytesIn reports total frame bytes received.
func (c *GatewayConn) BytesIn() int64 { return c.traffic.in.Load() }

// ReconnectStats reports how many times the primary's transport was
// re-established and the total wall time spent in outage-to-replay recovery
// — the load generator's churn_resume_ms numerator.
func (c *GatewayConn) ReconnectStats() (count int64, total time.Duration) {
	return c.primary.reconnects.Load(), time.Duration(c.primary.reconnectNs.Load())
}

// ReplicaStats reports the read-replica traffic split: reads answered by
// the replica, typed staleness refusals received from it, and reads that
// fell back to the primary (staleness included).
func (c *GatewayConn) ReplicaStats() (served, stale, fallbacks int64) {
	return c.replicaServed.Load(), c.replicaBehind.Load(), c.replicaFallbacks.Load()
}

// replicaLink returns the live link to the read replica, opening one — the
// read-only hello, no reconnect, every wait bounded by helloTimeout — when
// there is none or the last one died. Readers that arrive during a dial wait
// for it under rmu and share its outcome: the link it produced, or its
// failure — so K readers behind a replica that never acks the hello wait one
// helloTimeout, not K, and fall back to the primary; the next read redials.
func (c *GatewayConn) replicaLink() (*link, error) {
	dials := c.rdials.Load()
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if l := c.replica.Load(); l != nil && !l.dead() {
		return l, nil
	}
	if c.closed.Load() {
		return nil, errClosed
	}
	if c.rdials.Load() != dials && c.rerr != nil {
		return nil, c.rerr // a dial ended while this read waited, and failed
	}
	l, err := c.openLink(&link{
		dial:    func() (net.Conn, error) { return c.dialOne(c.readAddr, wire.WriteReadHello) },
		timeout: helloTimeout,
	})
	c.rerr = err
	c.rdials.Add(1)
	if err != nil {
		return nil, err
	}
	c.replica.Store(l)
	if c.closed.Load() {
		// Close ran during the dial and may have looked before the store.
		_ = l.close()
		return nil, errClosed
	}
	return l, nil
}

// replicaRoundTrip runs one read request on the replica link. A refusal is
// the replica's answer and leaves the link up; a link that dies under the
// request (transport error, undecodable frame, helloTimeout without a reply)
// fails it, along with every other read in flight there, and is replaced by
// the next read. Either way the caller falls back to the primary.
func (c *GatewayConn) replicaRoundTrip(owner string, req wire.Request) (wire.Response, error) {
	l, err := c.replicaLink()
	if err != nil {
		return wire.Response{}, err
	}
	return l.roundTrip(owner, req)
}

// readLoop demultiplexes responses to their waiting senders by request ID.
// It is the only place the client reads frames: one readLoop runs per
// transport epoch of either link, and a stale epoch's failure is ignored.
func (l *link) readLoop(t *transport) {
	var payload []byte // reused across frames: response decode copies what it keeps
	for {
		var err error
		payload, err = t.fc.ReadFrame(payload)
		if err != nil {
			l.connLost(t.epoch, fmt.Errorf("client: gateway read: %w", err))
			return
		}
		l.traffic.in.Add(int64(len(payload)) + 4)
		gr, err := codec.DecodeGatewayResponse(payload)
		if err != nil {
			// A framing-level lie from the server: the stream can no longer
			// be trusted to demultiplex correctly.
			t.fc.Close()
			l.connLost(t.epoch, err)
			return
		}
		l.mu.Lock()
		var ch chan wire.Response
		if p := l.pending[gr.ID]; p != nil {
			ch = p.ch
			delete(l.pending, gr.ID)
		}
		l.watch(t)
		l.mu.Unlock()
		// Responses with no pending entry are dropped — that is what makes
		// a duplicated frame (network retransmit, replay overlap) harmless
		// on the client side.
		if ch != nil {
			ch <- gr.Resp
		}
	}
}

// watch moves t's read deadline to where the oldest request in flight will
// have waited l.timeout, and clears it when nothing is in flight: the reader
// is the one goroutine that waits on the socket, so its deadline is the whole
// enforcement — no timer per request, and an idle link never expires. IDs are
// issued in registration order, so the oldest request is the lowest pending
// ID, found by stepping past the answered ones. A link without a timeout
// has nothing to watch. Caller holds mu.
func (l *link) watch(t *transport) {
	if l.timeout <= 0 {
		return
	}
	for l.oldest < l.nextID.Load() && l.pending[l.oldest] == nil {
		l.oldest++
	}
	var deadline time.Time
	if p := l.pending[l.oldest]; p != nil {
		deadline = p.sent.Add(l.timeout)
	}
	_ = t.sock.SetReadDeadline(deadline)
}

// flushLoop is a transport's flusher, the only one the client has: each kick
// means frames are waiting in the transport's buffer. It yields once before
// writing so that every sender already runnable appends first (see link),
// then flushes under wmu. A flush error ends the epoch the same way a read
// error does.
func (l *link) flushLoop(t *transport) {
	for {
		select {
		case <-t.kick:
		case <-t.stop:
			return
		}
		runtime.Gosched()
		l.wmu.Lock()
		err := t.fc.Flush()
		l.wmu.Unlock()
		if err != nil {
			l.connLost(t.epoch, err)
			return
		}
	}
}

// connLost handles a transport failure for the given epoch: permanent
// failure without reconnect, redial with it. Stale epochs (a reconnect
// already superseded the transport) are ignored.
func (l *link) connLost(epoch uint64, err error) {
	l.mu.Lock()
	if l.closed || l.err != nil || l.tr.epoch != epoch || l.reconnecting {
		l.mu.Unlock()
		return
	}
	l.reconnecting = l.reconnect
	if l.reconnect {
		l.gate = make(chan struct{}) // block new sends until replay completes
	}
	tr := l.tr
	l.mu.Unlock()
	// Whatever ended the epoch — an expired deadline leaves the socket open —
	// nothing reads this transport again.
	tr.fc.Close()
	if !l.reconnect {
		l.fail(err)
		return
	}
	tr.retire()
	go l.redial(err)
}

// redial re-establishes the transport with capped exponential backoff +
// jitter, then replays every pending request in ID order — appended to the
// new transport's buffer and flushed synchronously — before reopening the
// send gate. The new epoch's reader and flusher start only after replay — so
// no failure for the new transport can race the replay itself; a write error
// mid-replay just burns the attempt and loops.
func (l *link) redial(cause error) {
	start := time.Now()
	lastErr := cause
	delay := reconnectBaseDelay
	for attempt := 1; ; attempt++ {
		if attempt > l.maxAttempts {
			l.fail(fmt.Errorf("client: reconnect failed after %d attempts: %w", l.maxAttempts, lastErr))
			return
		}
		time.Sleep(delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1)))
		if delay *= 2; delay > reconnectMaxDelay {
			delay = reconnectMaxDelay
		}
		l.mu.Lock()
		dead := l.closed || l.err != nil
		l.mu.Unlock()
		if dead {
			return
		}
		conn, err := l.dial()
		if err != nil {
			lastErr = err
			continue
		}
		// Install the new transport and snapshot the replay set atomically:
		// every request registered before this point is in the snapshot;
		// everything after waits at the gate and goes out post-replay.
		l.mu.Lock()
		if l.closed || l.err != nil {
			l.mu.Unlock()
			conn.Close()
			return
		}
		tr := l.newTransport(conn, l.tr.epoch+1)
		l.tr = tr
		ids := make([]uint64, 0, len(l.pending))
		for id := range l.pending {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		replay := make([]wire.GatewayRequest, len(ids))
		for i, id := range ids {
			p := l.pending[id]
			replay[i] = wire.GatewayRequest{ID: id, Owner: p.owner, Req: p.req}
		}
		l.mu.Unlock()

		if err := l.writeAll(tr, replay); err != nil {
			lastErr = err
			conn.Close()
			continue
		}
		l.mu.Lock()
		if l.closed || l.err != nil {
			// Close won the race while the replay was being written: it has
			// already failed the waiters and opened the gate.
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.reconnecting = false
		close(l.gate)
		l.mu.Unlock()
		l.start(tr)
		l.reconnects.Add(1)
		l.reconnectNs.Add(time.Since(start).Nanoseconds())
		return
	}
}

// writeAll replays the given requests in order under the write lock and
// returns once they are on the socket.
func (l *link) writeAll(t *transport, reqs []wire.GatewayRequest) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	for _, greq := range reqs {
		if encErr, err := l.appendLocked(t, greq); encErr != nil {
			return encErr
		} else if err != nil {
			return err
		}
	}
	return t.fc.Flush()
}

// appendLocked appends one request frame to t's buffer and counts its bytes.
// encErr says the request itself cannot be framed (nothing was appended);
// err is the socket's, from the flush a full buffer forces. Caller holds wmu.
func (l *link) appendLocked(t *transport, greq wire.GatewayRequest) (encErr, err error) {
	b, encErr := wire.AppendGatewayRequest(t.fc.BeginFrame(), greq)
	if encErr != nil {
		return encErr, nil
	}
	n, err := t.fc.EndFrame(b)
	if errors.Is(err, wire.ErrFrameTooLarge) {
		return err, nil
	}
	l.traffic.out.Add(int64(n))
	return nil, err
}

// fail latches the first permanent failure, releases every waiter, and
// opens the send gate so blocked senders observe the error.
func (l *link) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	for id, p := range l.pending {
		close(p.ch)
		delete(l.pending, id)
	}
	l.tr.retire()
	select {
	case <-l.gate:
	default:
		close(l.gate)
	}
	l.mu.Unlock()
}

// send transmits one request without waiting for its response: it acquires
// a window slot, registers the request ID, appends the frame to the
// transport's buffer, and kicks the flusher. The returned channel yields the
// response (or closes on permanent link failure); release must be
// called after the response is consumed to free the window slot. A dying
// transport is not send's error: the request stays pending, and the reconnect
// replay delivers it or the permanent failure closes its channel.
// roundTrip composes send+receive; tests use send directly to pin
// pipelining semantics.
func (l *link) send(owner string, req wire.Request) (ch <-chan wire.Response, release func(), err error) {
	l.window <- struct{}{}
	release = func() { <-l.window }
	for {
		l.mu.Lock()
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			release()
			return nil, nil, err
		}
		gate := l.gate
		select {
		case <-gate:
			// Gate open: register while still holding mu, so a concurrent
			// reconnect either sees this request in its replay snapshot or
			// has already completed.
		default:
			l.mu.Unlock()
			<-gate // reconnect in progress; wait for replay to finish
			continue
		}
		id := l.nextID.Add(1)
		p := &pendingReq{owner: owner, req: req, ch: make(chan wire.Response, 1)}
		l.pending[id] = p
		tr := l.tr
		if l.timeout > 0 {
			p.sent = time.Now()
			if len(l.pending) == 1 {
				l.watch(tr) // the first in flight arms the deadline; the reader moves it from here
			}
		}
		l.mu.Unlock()

		l.wmu.Lock()
		encErr, err := l.appendLocked(tr, wire.GatewayRequest{ID: id, Owner: owner, Req: req})
		l.wmu.Unlock()
		if encErr != nil {
			l.mu.Lock()
			delete(l.pending, id)
			l.watch(tr)
			l.mu.Unlock()
			release()
			return nil, nil, encErr
		}
		if err != nil {
			// The transport died under the flush a full buffer forced. The
			// request is registered: the reconnect replay re-sends it, or the
			// permanent failure closes its channel; the caller just waits.
			l.connLost(tr.epoch, err)
			return p.ch, release, nil
		}
		select {
		case tr.kick <- struct{}{}:
		default: // a kick is already pending; that flush carries this frame too
		}
		return p.ch, release, nil
	}
}

// roundTrip sends one request and waits for its response.
func (l *link) roundTrip(owner string, req wire.Request) (wire.Response, error) {
	ch, release, err := l.send(owner, req)
	if err != nil {
		return wire.Response{}, err
	}
	defer release()
	resp, ok := <-ch
	if !ok {
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("client: gateway connection lost")
		}
		return wire.Response{}, err
	}
	if err := respErr(resp); err != nil {
		return wire.Response{}, err
	}
	return resp, nil
}

// respErr maps a refused response to the caller's error: the *wire.Refusal
// itself, wrapped, so errors.Is finds the code's sentinel (wire.ErrStale,
// wire.ErrBackpressure, edb.ErrNotSetup, ...) and errors.As the cursor.
func respErr(resp wire.Response) error {
	if resp.OK {
		return nil
	}
	return fmt.Errorf("client: gateway refused request: %w", resp.Refusal)
}

// Owner returns this owner namespace's database handle on the shared
// connection. Handles are independent: each keeps its own owner-side
// real/dummy accounting, and any number may be in flight concurrently.
func (c *GatewayConn) Owner(name string) *OwnerSession {
	return &OwnerSession{conn: c, owner: name}
}

// OwnerSession is one owner's view of a multi-tenant gateway. It implements
// edb.Database, so core.Owner and the whole strategy stack run unchanged
// against a shared remote server. Safe for concurrent use.
//
// Syncs are sequenced: before its first upload the session runs the resume
// handshake to learn the owner's committed logical clock, then numbers each
// sync with the tick it claims. The gateway applies ticks in order and
// idempotently, which is what makes a session attach-or-reattach safely —
// a fresh session against a durable namespace continues at the recovered
// clock instead of colliding with history, and a replayed sync after a
// reconnect can never double-charge the ε ledger.
type OwnerSession struct {
	conn  *GatewayConn
	owner string

	// upMu serializes uploads: seq assignment order must equal wire order.
	upMu     sync.Mutex
	seq      uint64 // last sync seq this session successfully acked
	seqInit  bool   // seq aligned with the gateway's committed clock
	seqDirty bool   // a failed upload left local seq unproven; realign first
	// acked is the failover resync window: the most recent acked sync
	// payloads, contiguous in seq and ending at seq. When a resume
	// handshake reveals a server clock BELOW seq — a promoted replica that
	// never received the tail of our acked history — the missing syncs are
	// re-uploaded from here verbatim, so the owner's durable history (and
	// with it the transcript and ε ledger) is reconstructed bit-identical.
	// Once a bounded window is full it is a ring: the oldest entry sits at
	// ackedStart and each new ack overwrites it.
	acked      []ackedSync
	ackedStart int

	mu    sync.Mutex
	stats edb.StorageStats
}

// OwnerID returns the owner namespace this session addresses.
func (s *OwnerSession) OwnerID() string { return s.owner }

// Resume realigns the session's sync sequence with the gateway's committed
// clock via the resume handshake. Uploads do this lazily (first use, and
// after any failed upload); harnesses that hand an existing owner to a new
// session call it to assert the attachment eagerly.
func (s *OwnerSession) Resume() error {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	return s.resumeLocked()
}

func (s *OwnerSession) resumeLocked() error {
	resp, err := s.conn.primary.roundTrip(s.owner, wire.Request{Type: wire.MsgResume})
	if err != nil {
		return err
	}
	if resp.Resume == nil {
		return fmt.Errorf("client: malformed resume response")
	}
	clock := resp.Resume.Clock
	if s.seqInit && clock < s.seq {
		// The serving gateway's committed clock is behind what this session
		// has had acknowledged: a failover promoted a replica missing the
		// tail of our history. Re-upload exactly that suffix from the resync
		// window — same payloads, same seqs — so the promoted node's durable
		// history converges on the acknowledged one.
		if err := s.resyncLocked(clock); err != nil {
			return err
		}
		s.seqDirty = false
		return nil
	}
	s.seq = clock
	s.seqInit, s.seqDirty = true, false
	return nil
}

// ackedSync is one retained acked upload, replayable verbatim.
type ackedSync struct {
	seq    uint64
	typ    wire.MsgType
	sealed [][]byte
}

// recordAcked adds one acked upload to the resync window; at the window's
// bound it replaces the oldest, whose payload becomes collectable. Caller
// holds upMu.
func (s *OwnerSession) recordAcked(seq uint64, typ wire.MsgType, sealed [][]byte) {
	a := ackedSync{seq: seq, typ: typ, sealed: sealed}
	if w := s.conn.resyncWin; w > 0 && len(s.acked) == w {
		s.acked[s.ackedStart] = a
		s.ackedStart = (s.ackedStart + 1) % w
		return
	}
	s.acked = append(s.acked, a)
}

// ackedAt returns the i-th oldest retained upload. Caller holds upMu.
func (s *OwnerSession) ackedAt(i int) ackedSync {
	return s.acked[(s.ackedStart+i)%len(s.acked)]
}

// resyncLocked re-uploads the acked syncs in (clock, s.seq] after a
// failover exposed a server behind this session. The window is contiguous
// and ends at s.seq; if it no longer reaches back to clock+1, the lost
// history is unrecoverable from this client and the session fails loudly —
// silently restarting from the server's clock would fork the owner's
// update-pattern transcript. Caller holds upMu.
func (s *OwnerSession) resyncLocked(clock uint64) error {
	need := s.seq - clock
	if uint64(len(s.acked)) < need {
		return fmt.Errorf("client: owner %q: promoted gateway lost %d acked syncs but resync window holds %d",
			s.owner, need, len(s.acked))
	}
	for i := len(s.acked) - int(need); i < len(s.acked); i++ {
		a := s.ackedAt(i)
		if _, err := s.conn.primary.roundTrip(s.owner, wire.Request{Type: a.typ, Sealed: a.sealed, Seq: a.seq}); err != nil {
			return fmt.Errorf("client: owner %q: resync of seq %d: %w", s.owner, a.seq, err)
		}
	}
	return nil
}

// info returns the backend's identity (scheme name, §6 leakage class,
// outsourced record width), fetched from the gateway via a stats round trip
// the first time any owner on the connection asks and cached on the
// connection on first success: every tenant of a node has the same backend,
// so an owner's attach costs no probe of its own once one has answered. A
// failed fetch is NOT cached — the next call retries — and, failing closed,
// reports leakage class L2 (incompatible): an unidentified backend must never
// pass the §6 gate as leak-free by default. Concurrent first calls may race to
// duplicate the round trip; the first answer wins.
func (s *OwnerSession) info() (scheme string, leak edb.LeakageClass, width int64) {
	bi := s.conn.backend.Load()
	if bi == nil {
		resp, err := s.conn.primary.roundTrip(s.owner, wire.Request{Type: wire.MsgStats})
		if err != nil || resp.Stats == nil {
			return "remote", edb.L2, obliBlockBytes
		}
		fetched := &backendInfo{scheme: "remote", leak: edb.LeakageClass(resp.Stats.Leakage), width: obliBlockBytes}
		if resp.Stats.Scheme != "" {
			fetched.scheme = resp.Stats.Scheme
		}
		if w := outsourcedWidth(resp.Stats.Scheme); w > 0 {
			fetched.width = w
		}
		s.conn.backend.CompareAndSwap(nil, fetched)
		bi = s.conn.backend.Load()
	}
	return bi.scheme, bi.leak, bi.width
}

// obliBlockBytes mirrors oblidb.BlockBytes; the client mirrors the widths
// rather than importing server-side packages.
const obliBlockBytes = 1024

// outsourcedWidth maps a backend scheme to its per-record outsourced width
// for owner-side storage accounting (see edb.StorageStats).
func outsourcedWidth(scheme string) int64 {
	switch scheme {
	case "ObliDB":
		return obliBlockBytes
	case "Crypteps":
		return 6400 // crypte.EncodingBytes
	default:
		return 0
	}
}

// Name implements edb.Database.
func (s *OwnerSession) Name() string {
	scheme, _, _ := s.info()
	return scheme + "-gateway"
}

// Leakage implements edb.Database: the backend's §6 class, reported by the
// gateway (L2 — fail-closed — while the gateway is unreachable).
func (s *OwnerSession) Leakage() edb.LeakageClass {
	_, leak, _ := s.info()
	return leak
}

// Supports implements edb.Database. Structural validity is checked locally;
// backend-specific operator gaps (Cryptε has no join) surface as server
// errors at Query time, exactly as they would for a misrouted analyst.
func (s *OwnerSession) Supports(q query.Query) bool { return q.Validate() == nil }

func (s *OwnerSession) upload(t wire.MsgType, rs []record.Record) error {
	sealedBatch, err := s.conn.sealer.SealAll(rs)
	if err != nil {
		return err
	}
	raw := make([][]byte, len(sealedBatch))
	for i, ct := range sealedBatch {
		raw[i] = ct
	}
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if !s.seqInit || s.seqDirty {
		if err := s.resumeLocked(); err != nil {
			return err
		}
	}
	seq := s.seq + 1
	if _, err := s.conn.primary.roundTrip(s.owner, wire.Request{Type: t, Sealed: raw, Seq: seq}); err != nil {
		// The sync's fate is unproven (a refusal did not advance the clock;
		// a lost ack may have — and across a failover, the serving node may
		// have changed under us entirely). Realign once and retry: the
		// resume handshake heals whatever the new server is missing (resync
		// window) or reveals that this very sync already committed (ack
		// lost). If realignment itself fails, surface the original error
		// and leave the session dirty for the next upload.
		s.seqDirty = true
		if rerr := s.resumeLocked(); rerr != nil {
			return err
		}
		switch {
		case s.seq >= seq:
			// Committed after all; the ack died in the outage. Fall through
			// to the bookkeeping — the payload still enters the resync
			// window, since a later failover may need to re-upload it.
		case s.seq == seq-1:
			if _, err2 := s.conn.primary.roundTrip(s.owner, wire.Request{Type: t, Sealed: raw, Seq: seq}); err2 != nil {
				s.seqDirty = true
				return err2
			}
		default:
			// The realigned clock fell below even the previous acked seq and
			// resync could not heal it (resumeLocked would have errored) —
			// unreachable, but refuse to guess.
			return err
		}
	}
	if s.seq < seq {
		s.seq = seq
	}
	if len(s.acked) == 0 || s.ackedAt(len(s.acked)-1).seq+1 == seq {
		s.recordAcked(seq, t, raw)
	}
	// Identity is fetched after the first successful upload (the namespace
	// certainly exists by then), so storage accounting uses the backend's
	// real outsourced width.
	_, _, width := s.info()
	dummies := len(rs) - record.CountReal(rs)
	s.mu.Lock()
	s.stats.Add(len(rs), dummies, width)
	s.mu.Unlock()
	return nil
}

// Setup implements edb.Database: seals rs locally and runs the remote setup
// protocol in this owner's namespace.
func (s *OwnerSession) Setup(rs []record.Record) error { return s.upload(wire.MsgSetup, rs) }

// Update implements edb.Database.
func (s *OwnerSession) Update(rs []record.Record) error { return s.upload(wire.MsgUpdate, rs) }

// Query implements edb.Database. With WithReadReplica configured the query
// is served by the replica's read plane at any committed freshness
// (MinOffset 0); without, it goes to the primary.
func (s *OwnerSession) Query(q query.Query) (query.Answer, edb.Cost, error) {
	return s.QueryAt(q, 0)
}

// QueryAt runs q with an explicit freshness bound: the answer must reflect
// a committed replication offset of at least minOffset on the serving
// node. A read replica whose applied cursor is below the bound refuses
// (wire.ErrStale, carrying its cursor) and the query falls
// back to the primary, which is trivially fresh — so the bound can tighten
// a replica read without ever failing the caller. minOffset 0 accepts any
// committed prefix.
func (s *OwnerSession) QueryAt(q query.Query, minOffset uint64) (query.Answer, edb.Cost, error) {
	spec := wire.FromQuery(q)
	resp, err := s.readRoundTrip(wire.Request{Type: wire.MsgQuery, Query: &spec, MinOffset: minOffset})
	if err != nil {
		return query.Answer{}, edb.Cost{}, err
	}
	if resp.Answer == nil || resp.Cost == nil {
		return query.Answer{}, edb.Cost{}, fmt.Errorf("client: malformed query response")
	}
	return resp.Answer.ToAnswer(), resp.Cost.ToCost(), nil
}

// readRoundTrip routes one side-effect-free read: replica first when one
// is configured, primary on any replica failure (staleness, transport,
// refusal). Replica trouble is never the caller's problem — the fallback
// is the contract.
func (s *OwnerSession) readRoundTrip(req wire.Request) (wire.Response, error) {
	if s.conn.readAddr == "" {
		return s.conn.primary.roundTrip(s.owner, req)
	}
	resp, err := s.conn.replicaRoundTrip(s.owner, req)
	if err == nil {
		s.conn.replicaServed.Add(1)
		return resp, nil
	}
	if errors.Is(err, wire.ErrStale) {
		s.conn.replicaBehind.Add(1)
	}
	s.conn.replicaFallbacks.Add(1)
	return s.conn.primary.roundTrip(s.owner, req)
}

// Stats implements edb.Database: the owner-side accounting, which knows the
// real/dummy split the gateway cannot see.
func (s *OwnerSession) Stats() edb.StorageStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RemoteStats asks the gateway for its split-blind view of this owner's
// namespace (served by the read replica when one is configured).
func (s *OwnerSession) RemoteStats() (wire.StatsSpec, error) {
	resp, err := s.readRoundTrip(wire.Request{Type: wire.MsgStats})
	if err != nil {
		return wire.StatsSpec{}, err
	}
	if resp.Stats == nil {
		return wire.StatsSpec{}, fmt.Errorf("client: malformed stats response")
	}
	return *resp.Stats, nil
}

var _ edb.Database = (*OwnerSession)(nil)
