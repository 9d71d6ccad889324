// Package client provides the owner- and analyst-side network client. An
// OwnerSession implements edb.Database over the wire protocol, so the whole
// DP-Sync stack (core.Owner, strategies, cache) runs unchanged against a
// remote gateway: records are sealed locally before transmission, and the
// session keeps the true real/dummy storage accounting that the server, by
// design, cannot.
package client

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/wire"
)

// DefaultWindow is the in-flight request window of each gateway link: how
// many requests may be awaiting responses before senders block. It is the
// client-side backpressure valve — a saturated gateway slows its clients
// instead of accumulating unbounded in-flight state.
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
// plane. Both are pipelined and multiplexed, and both redial on demand (see
// link); what differs between them is set where each is opened and nowhere
// else.
//
// Obtain per-owner edb.Database handles with Owner.
type GatewayConn struct {
	sealer    *seal.Sealer
	addrs     []string // rotation order; addrs[addrIdx] is the last good one
	addrIdx   int      // touched only under the primary link's dial lock
	dialer    func(addr string) (net.Conn, error)
	resyncWin int

	primary *link
	replica *link   // nil without WithReadReplica; its first read dials it
	traffic traffic // frame bytes of both links

	replicaServed    atomic.Int64
	replicaFallbacks atomic.Int64

	// backend is the node's backend as the connection's first hello stated
	// it, and mirror what the client mirrors of its scheme: one backend
	// constructor serves every tenant of a node, so one hello speaks for all
	// of the connection's owners. Both are set by DialGateway's first dial,
	// before the connection escapes, and only read after.
	backend wire.Backend
	mirror  scheme
}

// traffic counts frame bytes (headers included) across a GatewayConn's links:
// out as the sockets accept them, in as frames are read.
type traffic struct{ out, in atomic.Int64 }

// sentConn counts in out the bytes its socket accepts. A transport's frame
// connection writes through one, so a frame is counted when a write puts it
// on the socket — never when it is only queued on a transport that dies
// first. A write is counted whole before it starts, so no response can
// arrive ahead of its request's count, and what the socket did not take is
// taken back when the write returns.
type sentConn struct {
	net.Conn
	out *atomic.Int64
}

func (c sentConn) Write(p []byte) (int, error) {
	c.out.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n - len(p)))
	return n, err
}

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
// A link outlives its transports, and both links live the same way. A
// transport that dies releases every request waiting on it, and the link has
// none until the next request that needs one redials (connect) under the dial
// lock; the requests that arrive during the dial wait for it and share its
// outcome. What is set where a link is opened is how a redial dials and what
// a lost request becomes. The primary redials with WithReconnect's budget and
// fails for good once a redial spends it — at once, without reconnect — and a
// lost request is re-sent by its own waiter (roundTrip). That is safe because
// sequenced syncs are idempotent at the gateway (a retransmitted seq the
// tenant already applied is acked without re-ingesting or re-charging the ε
// ledger, and the ack carries the owner's clock) and reads are side-effect
// free; per-owner order needs nothing more, since a session has one sync in
// flight at a time. The replica dials once per redial, never fails for good,
// and hands a lost read back to its caller, which asks the primary instead.
//
// With timeout, no request waits on the node longer than that: the reader's
// socket deadline follows the oldest request in flight (watch), so one timer
// covers every waiter and a node that accepts and then says nothing kills
// the transport — and releases all of them — after one bounded wait.
type link struct {
	dial     func() (net.Conn, error) // reaches a serving node, hello included
	attempts int                      // dials one redial may make; 0 = a lost transport is permanent
	resend   bool                     // the primary: lost requests are re-sent, a spent redial is permanent
	timeout  time.Duration
	traffic  *traffic

	wmu    sync.Mutex    // serializes frame appends and flushes; append order = node arrival order
	window chan struct{} // in-flight cap (backpressure)
	nextID atomic.Uint64
	dmu    sync.Mutex // the dial lock: held across a redial, never across a round trip

	mu      sync.Mutex
	tr      *transport // the live transport; nil from a loss until a redial installs the next
	dials   uint64     // dials ended, first included (see connect)
	down    error      // why tr is nil: the loss, or the last redial's failure
	pending map[uint64]*pendingReq
	oldest  uint64 // no pending ID is below it; kept by watch
	err     error  // permanent failure: Close, a spent redial; latched

	reconnects  atomic.Int64
	reconnectNs atomic.Int64
}

// transport is one connection of a link: the buffered frame connection
// senders append to under wmu, the owner handles its frames have bound, and
// the flusher that puts their frames on the socket. A redialed transport
// starts with no bindings, so each owner's first frame on it names the owner
// inline, as on any fresh connection.
type transport struct {
	fc    *wire.Conn
	sock  net.Conn      // fc's socket, for the read deadline watch moves
	bound wire.Bindings // the connection's owner handles; under wmu
	kick  chan struct{} // capacity 1: frames are waiting in fc's buffer
	stop  chan struct{} // closed when the transport is lost; its flusher exits
}

// start wraps a connection whose hello is done and launches its reader and
// flusher, which end with the transport (see lose). A link with a timeout
// bounds each socket write by it too: a node that stops reading must not
// wedge the flusher, and with it every sender, behind a full socket buffer.
func (l *link) start(conn net.Conn) *transport {
	t := &transport{fc: wire.NewConn(sentConn{conn, &l.traffic.out}), sock: conn, kick: make(chan struct{}, 1), stop: make(chan struct{})}
	t.fc.WriteTimeout = l.timeout
	go l.readLoop(t)
	go l.flushLoop(t)
	return t
}

// pendingReq is one request in flight: where its response goes, and when it
// was registered (UnixNano; stamped only on a link with a timeout).
type pendingReq struct {
	ch   chan wire.Response
	sent int64
}

// GatewayOption tunes a GatewayConn.
type GatewayOption func(*gatewayOpts)

type gatewayOpts struct {
	attempts  int
	dialer    func(addr string) (net.Conn, error)
	addrs     []string
	resyncWin int
	readAddr  string
}

// WithReconnect lets the primary link outlive a transport loss: the next
// request redials, making up to attempts dials (0 = DefaultReconnectAttempts),
// and each request the loss cut off is re-sent by its waiter.
func WithReconnect(attempts int) GatewayOption {
	return func(o *gatewayOpts) {
		if attempts <= 0 {
			attempts = DefaultReconnectAttempts
		}
		o.attempts = attempts
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

// WithReadReplica routes queries and stats requests to a follower's read
// plane at addr ("DPSQ" hello), keeping syncs on the primary. The replica
// gets the same pipelined link the primary does, so concurrent readers are
// in flight on it together, up to the window. A replica answer is served
// from the prefix the follower has applied; any replica failure — a refusal,
// or a reply that does not come within helloTimeout — falls back to the
// primary transparently. ReplicaStats reports the split.
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
// demultiplexing reader. The primary's first dial is one attempt, so a
// gateway that cannot be reached fails the call at once; WithReconnect's
// budget is for the outages after it. The replica is dialed by its first read.
func DialGateway(addr string, key []byte, opts ...GatewayOption) (*GatewayConn, error) {
	o := gatewayOpts{resyncWin: DefaultResyncWindow}
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
	}
	c.primary = c.openLink(&link{dial: c.dialTransport, attempts: o.attempts, resend: true})
	if err := c.primary.connect(0, 1); err != nil {
		return nil, err
	}
	if o.readAddr != "" {
		c.replica = c.openLink(&link{
			dial:     func() (net.Conn, error) { return c.dialOne(o.readAddr, wire.WriteReadHello) },
			attempts: 1,
			timeout:  helloTimeout,
		})
	}
	return c, nil
}

// openLink gives l, which arrives holding what distinguishes it (dial,
// attempts, resend, timeout), what every link of c shares. It has no
// transport yet: its first request's connect dials one.
func (c *GatewayConn) openLink(l *link) *link {
	l.traffic, l.window, l.pending = &c.traffic, make(chan struct{}, DefaultWindow), map[uint64]*pendingReq{}
	return l
}

// dialTransport finds a serving gateway: it tries the address list starting
// from the last good entry, skipping nodes that are unreachable or refuse
// the hello (wire.ErrNotPrimary — a cluster follower). It is the primary
// link's dial, first and on every redial, so the handshake cannot diverge
// between them; connect calls it under the link's dial lock, which is what
// lets addrIdx go unlocked.
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

// errOtherBackend fails a dial whose hello states another backend than the
// connection's first: its node is not one this connection's owners were
// admitted to (core.New's §6 gate read the first).
var errOtherBackend = errors.New("client: node serves another backend")

// dialOne dials a single address and runs the hello exchange — hello is
// wire.WriteHello, or wire.WriteReadHello for the read-only plane — under a
// deadline, so one wedged node cannot stall the rotation. The first hello
// the connection completes sets its backend; a later one, on a redial or on
// the replica link, that states another fails its dial.
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
	be, err := wire.ReadHelloAck(conn)
	if err == nil && c.backend != (wire.Backend{}) && be != c.backend {
		err = fmt.Errorf("%w: %v, the connection's is %v", errOtherBackend, be, c.backend)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: gateway hello %s: %w", addr, err)
	}
	if c.backend == (wire.Backend{}) {
		c.backend, c.mirror = be, mirrorOf(be.Scheme)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

var errClosed = errors.New("client: gateway connection closed")

// Close terminates the connection; in-flight requests fail and no redial
// is attempted — an explicit Close is the user's decision, not an outage.
// It never waits, not even for a dial in progress (that dial's connection is
// closed as it lands), and reads blocked on either link are severed.
func (c *GatewayConn) Close() error {
	if c.replica != nil {
		c.replica.close()
	}
	c.primary.close()
	return nil
}

// close fails the link for good: the socket is closed and every waiter
// released. It takes no dial lock, so it never waits for a dial.
func (l *link) close() {
	l.mu.Lock()
	l.err = cmp.Or(l.err, errClosed)
	tr := l.tr
	l.mu.Unlock()
	l.lose(tr, errClosed)
}

// dead reports whether the link has failed permanently.
func (l *link) dead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err != nil
}

// Drop severs the primary's transport without closing the logical
// connection — exactly what a mid-pipeline network failure looks like. The
// requests in flight on it are released; with reconnect enabled each is
// re-sent by its waiter once a request has redialed, and without, the link
// fails like any other transport loss. Nothing redials until a request needs
// the link. The churn harness's hook.
func (c *GatewayConn) Drop() {
	l := c.primary
	l.mu.Lock()
	tr := l.tr
	l.mu.Unlock()
	if tr != nil {
		tr.fc.Close()
	}
}

// BytesOut and BytesIn report total frame bytes (including the length
// headers, excluding the hello) on the primary link and the replica
// link together — the load generator's bytes/sync numerator. BytesOut counts
// the bytes the sockets accepted (see sentConn): a frame queued on a
// transport that dies before writing it is not counted, a re-sent request
// counts each copy the socket took, and a frame a response has answered is
// always counted.
func (c *GatewayConn) BytesOut() int64 { return c.traffic.out.Load() }

// BytesIn reports total frame bytes received, counted as frames are read.
func (c *GatewayConn) BytesIn() int64 { return c.traffic.in.Load() }

// ReconnectStats reports how many times the primary's transport was redialed
// after a loss — by the next request that needed it — and the total wall time
// those redials took, backoff included, from the first dial to the new
// transport's hello: the load generator's churn_resume_ms numerator.
func (c *GatewayConn) ReconnectStats() (count int64, total time.Duration) {
	return c.primary.reconnects.Load(), time.Duration(c.primary.reconnectNs.Load())
}

// ReplicaStats reports the read-replica traffic split: reads answered by
// the replica and reads that fell back to the primary. stale is always 0: no
// replica refuses a read as stale since codec 9, and the result stays for
// the callers that report it.
func (c *GatewayConn) ReplicaStats() (served, stale, fallbacks int64) {
	return c.replicaServed.Load(), 0, c.replicaFallbacks.Load()
}

// readLoop demultiplexes responses to their waiting senders by request ID.
// It is the only place the client reads frames: one readLoop runs per
// transport of either link, and a lost transport's failure is ignored.
func (l *link) readLoop(t *transport) {
	var payload []byte // reused across frames: response decode copies what it keeps
	for {
		var err error
		payload, err = t.fc.ReadFrame(payload)
		if err != nil {
			l.lose(t, fmt.Errorf("client: gateway read: %w", err))
			return
		}
		l.traffic.in.Add(int64(wire.FrameLen(len(payload))))
		gr, err := codec.DecodeGatewayResponse(payload)
		if err != nil {
			// A framing-level lie from the server: the stream can no longer
			// be trusted to demultiplex correctly.
			l.lose(t, err)
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
		// a duplicated frame (network retransmit, a lost request's answer)
		// harmless on the client side.
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
		deadline = time.Unix(0, p.sent).Add(l.timeout)
	}
	_ = t.sock.SetReadDeadline(deadline)
}

// flushLoop is a transport's flusher, the only one the client has: each kick
// means frames are waiting in the transport's buffer. It yields once before
// writing so that every sender already runnable appends first (see link),
// then flushes under wmu. A flush error loses the transport the same way a
// read error does.
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
			l.lose(t, err)
			return
		}
	}
}

// lose ends t for cause if it is still the link's transport: its socket is
// closed, its flusher stopped, and every request waiting on the link
// released, each to find its channel closed (see roundTrip). Only the first
// failure of a transport counts: closing the socket here fails its reader or
// flusher too, and that is a consequence, not the cause. A link that may not
// redial fails for good with the loss.
func (l *link) lose(t *transport, cause error) {
	l.mu.Lock()
	if t == nil || l.tr != t {
		l.mu.Unlock()
		return
	}
	l.tr, l.down = nil, cause
	if l.attempts == 0 {
		l.err = cmp.Or(l.err, cause)
	}
	close(t.stop)
	for id, p := range l.pending {
		close(p.ch)
		delete(l.pending, id)
	}
	l.mu.Unlock()
	t.fc.Close() // an expired deadline leaves the socket open: nothing reads it again
}

// connect gives the link a transport when it has none; it is the one place a
// link dials. It runs under the dial lock, so one request dials for all: a
// request that waited for the lock while another's redial ran (the count of
// ended redials moved past gen, the one the request saw when it found no
// transport) takes that redial's outcome — the transport it installed, or on
// the replica its failure — rather than dialing again. A redial makes up to
// attempts dials, each after the first preceded by capped exponential backoff
// with full jitter, so a fleet that lost one gateway does not redial in
// lockstep; a redial that spends them fails the primary for good. The
// primary's first transport comes from here too (gen 0), and is not counted
// as a reconnect.
func (l *link) connect(gen uint64, attempts int) error {
	l.dmu.Lock()
	defer l.dmu.Unlock()
	l.mu.Lock()
	if l.err != nil || l.dials != gen {
		err := l.err
		if err == nil && l.tr == nil && !l.resend {
			err = l.down
		}
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()

	start := time.Now()
	var conn net.Conn
	var err error
	for try, delay := 1, reconnectBaseDelay; ; try++ {
		if conn, err = l.dial(); err == nil || try >= attempts {
			break
		}
		time.Sleep(delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1)))
		delay = min(2*delay, reconnectMaxDelay)
		if l.dead() {
			break // closed during the backoff
		}
	}
	l.mu.Lock()
	l.dials++
	closed := l.err // Close ran while this dialed
	switch {
	case closed != nil:
	case err != nil:
		l.down = err
		if l.resend {
			l.err = fmt.Errorf("client: reconnect failed after %d attempts: %w", attempts, err)
		}
	default:
		l.tr, l.down = l.start(conn), nil
		if gen > 0 {
			l.reconnects.Add(1)
			l.reconnectNs.Add(time.Since(start).Nanoseconds())
		}
	}
	l.mu.Unlock()
	if closed != nil {
		if conn != nil {
			conn.Close()
		}
		return closed
	}
	return err
}

// appendLocked appends one request frame to t's buffer, naming the owner by
// its handle on t when it has one and inline otherwise — a frame that goes
// out inline then binds the owner by the rule the gateway applies to the same
// frame (wire.MaxBindings). encErr says the request itself cannot be framed
// (nothing was appended, nothing bound); err is the socket's, from the flush a
// full buffer forces. Caller holds wmu.
func (l *link) appendLocked(t *transport, greq wire.GatewayRequest) (encErr, err error) {
	if h := t.bound.Handle(greq.Owner); h > 0 {
		greq.Owner, greq.Handle = "", h
	}
	b, encErr := wire.AppendGatewayRequest(t.fc.BeginFrame(), greq)
	if encErr != nil {
		return encErr, nil
	}
	if _, err = t.fc.EndFrame(b); errors.Is(err, wire.ErrFrameTooLarge) {
		return err, nil
	}
	if greq.Handle == 0 {
		t.bound.Sent(greq.Owner)
	}
	return nil, err
}

// post transmits one request without waiting for its response: it acquires
// a window slot, redials if the link has no transport (connect), registers
// the request ID, appends the frame to the transport's buffer, and kicks the
// flusher. The returned request's channel yields the response, or closes when
// the transport is lost under it; release must be called after the response
// is consumed to free the window slot. A dying transport is not post's
// error: the request stays registered until the loss releases it.
// roundTrip composes post+receive.
func (l *link) post(owner string, req wire.Request) (p *pendingReq, release func(), err error) {
	l.window <- struct{}{}
	release = func() { <-l.window }
	l.mu.Lock()
	for l.tr == nil && l.err == nil {
		gen := l.dials
		l.mu.Unlock()
		if err := l.connect(gen, l.attempts); err != nil {
			release()
			return nil, nil, err
		}
		l.mu.Lock()
	}
	if err := l.err; err != nil {
		l.mu.Unlock()
		release()
		return nil, nil, err
	}
	// Registered while tr is the link's transport, so the loss of tr
	// releases this request too.
	id := l.nextID.Add(1)
	p = &pendingReq{ch: make(chan wire.Response, 1)}
	l.pending[id] = p
	tr := l.tr
	if l.timeout > 0 {
		p.sent = time.Now().UnixNano()
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
		// The transport died under the flush a full buffer forced; losing it
		// releases this request with the rest.
		l.lose(tr, err)
		return p, release, nil
	}
	select {
	case tr.kick <- struct{}{}:
	default: // a kick is already pending; that flush carries this frame too
	}
	return p, release, nil
}

// roundTrip sends one request and waits for its response. On the primary, a
// request whose transport is lost under it is re-sent here, by its own
// waiter, over whichever transport the next redial brings; resent reports
// that it was, so the node may have received it twice: the answer can be the
// duplicate's ack for a request whose first copy it applied. On the replica
// the lost request is the caller's error, and the read goes to the primary.
func (l *link) roundTrip(owner string, req wire.Request) (resp wire.Response, resent bool, err error) {
	for sends := 1; ; sends++ {
		p, release, err := l.post(owner, req)
		if err != nil {
			return wire.Response{}, sends > 1, err
		}
		resp, ok := <-p.ch
		release()
		if ok {
			if err := respErr(resp); err != nil {
				return wire.Response{}, sends > 1, err
			}
			return resp, sends > 1, nil
		}
		if !l.resend {
			l.mu.Lock()
			err = cmp.Or(l.err, l.down)
			l.mu.Unlock()
			return wire.Response{}, false, fmt.Errorf("client: gateway connection lost: %w", err)
		}
	}
}

// respErr maps a refused response to the caller's error: the *wire.Refusal
// itself, wrapped, so errors.Is finds the code's sentinel
// (wire.ErrBackpressure, edb.ErrNotSetup, ...) and errors.As the cursor.
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
// Syncs are sequenced: each claims the owner's logical tick it would be. The
// setup is tick 1, so a fresh session's Setup claims it at once and its ack
// settles the question a resume would have asked: a plain ack means it
// applied, and a duplicate's ack carries the clock of the owner someone set up
// before — Setup then fails with edb.ErrAlreadySetup and the session is
// aligned at that clock. Any other first upload runs the resume handshake to
// learn the committed clock, then numbers its syncs from there. The gateway
// applies ticks in order and idempotently, which is what makes a session
// attach-or-reattach safely — a fresh session against a durable namespace
// continues at the recovered clock instead of colliding with history, and a
// sync re-sent after a reconnect can never double-charge the ε ledger. One
// ambiguity remains: a duplicate's ack for a setup the link re-sent is taken
// as the session's own setup, though another session's may have taken tick 1
// while the transport was down.
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
// clock via the resume handshake. Uploads do this lazily (a first upload
// other than a fresh session's Setup, and any upload after a failed one);
// harnesses that hand an existing owner to a new session call it to assert
// the attachment eagerly.
func (s *OwnerSession) Resume() error {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	return s.resumeLocked()
}

func (s *OwnerSession) resumeLocked() error {
	resp, _, err := s.conn.primary.roundTrip(s.owner, wire.Request{Type: wire.MsgResume})
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
		if _, _, err := s.conn.primary.roundTrip(s.owner, wire.Request{Type: a.typ, Sealed: a.sealed, Seq: a.seq}); err != nil {
			return fmt.Errorf("client: owner %q: resync of seq %d: %w", s.owner, a.seq, err)
		}
	}
	return nil
}

// obliBlockBytes mirrors oblidb.BlockBytes; the client mirrors the widths
// rather than importing server-side packages.
const obliBlockBytes = 1024

// scheme is what the client mirrors of a backend scheme: its per-record
// outsourced width, for owner-side storage accounting (see
// edb.StorageStats), and the calibrated cost model its queries are charged
// by, from which an answer's modelled seconds are derived (edb.CostModel.Of).
type scheme struct {
	width int64
	model edb.CostModel
}

// knownSchemes mirrors each backend scheme the client knows.
var knownSchemes = map[string]scheme{
	"ObliDB":   {obliBlockBytes, edb.ObliDBCostModel()},
	"Crypteps": {6400, edb.CrypteCostModel()}, // crypte.EncodingBytes
}

// mirrorOf returns what the client mirrors of the named scheme: a scheme not
// known has a width of 1 KiB and no model, so its seconds read 0.
func mirrorOf(name string) scheme {
	if m, ok := knownSchemes[name]; ok {
		return m
	}
	return scheme{width: obliBlockBytes}
}

// Name implements edb.Database: the node's scheme, as its hello stated it.
func (s *OwnerSession) Name() string { return s.conn.backend.Scheme + "-gateway" }

// Leakage implements edb.Database: the backend's §6 class, as the node's
// hello stated it.
func (s *OwnerSession) Leakage() edb.LeakageClass { return s.conn.backend.Leakage }

// Supports implements edb.Database. Structural validity is checked locally;
// backend-specific operator gaps (Cryptε has no join) surface as server
// errors at Query time, exactly as they would for a misrouted analyst.
func (s *OwnerSession) Supports(q query.Query) bool { return q.Validate() == nil }

func (s *OwnerSession) upload(t wire.MsgType, rs []record.Record) error {
	// The batch is one message, 16n + 28 bytes: its length says n and
	// nothing else. An empty batch carries none.
	sealedBatch, err := s.conn.sealer.SealBatch(rs)
	if err != nil {
		return err
	}
	raw := make([][]byte, len(sealedBatch))
	for i, ct := range sealedBatch {
		raw[i] = ct
	}
	s.upMu.Lock()
	defer s.upMu.Unlock()
	// A setup applies at tick 1 or nowhere, so a session not yet aligned
	// sends it without a resume: the ack says which.
	if s.seqDirty || (!s.seqInit && t != wire.MsgSetup) {
		if err := s.resumeLocked(); err != nil {
			return err
		}
	}
	if t == wire.MsgSetup && s.seq >= 1 {
		return fmt.Errorf("client: owner %q: %w", s.owner, edb.ErrAlreadySetup)
	}
	seq := s.seq + 1
	resp, resent, err := s.conn.primary.roundTrip(s.owner, wire.Request{Type: t, Sealed: raw, Seq: seq})
	if err == nil && t == wire.MsgSetup && resp.Resume != nil && !resent {
		// A duplicate's ack on a setup sent once: tick 1 was taken before
		// this request arrived. The ack's clock aligns the session.
		s.seq, s.seqInit = resp.Resume.Clock, true
		return fmt.Errorf("client: owner %q: %w", s.owner, edb.ErrAlreadySetup)
	}
	if err != nil {
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
			if _, _, err2 := s.conn.primary.roundTrip(s.owner, wire.Request{Type: t, Sealed: raw, Seq: seq}); err2 != nil {
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
	s.seq, s.seqInit = max(s.seq, seq), true
	if len(s.acked) == 0 || s.ackedAt(len(s.acked)-1).seq+1 == seq {
		s.recordAcked(seq, t, raw)
	}
	dummies := len(rs) - record.CountReal(rs)
	s.mu.Lock()
	s.stats.Add(len(rs), dummies, s.conn.mirror.width)
	s.mu.Unlock()
	return nil
}

// Setup implements edb.Database: seals rs locally and runs the remote setup
// protocol in this owner's namespace.
func (s *OwnerSession) Setup(rs []record.Record) error { return s.upload(wire.MsgSetup, rs) }

// Update implements edb.Database.
func (s *OwnerSession) Update(rs []record.Record) error { return s.upload(wire.MsgUpdate, rs) }

// Query implements edb.Database. With WithReadReplica configured the query
// is served by the replica's read plane, from the prefix it has applied;
// without, it goes to the primary.
//
// The answer's cost travels as its two record counts; its modelled seconds
// are the backend scheme's model applied to them (edb.CostModel.Of), the
// same arithmetic on the same numbers as the backend's, so they equal its
// own bit for bit.
func (s *OwnerSession) Query(q query.Query) (query.Answer, edb.Cost, error) {
	spec := wire.FromQuery(q)
	resp, err := s.readRoundTrip(wire.Request{Type: wire.MsgQuery, Query: &spec})
	if err != nil {
		return query.Answer{}, edb.Cost{}, err
	}
	return resp.Answer.ToAnswer(), s.conn.mirror.model.Of(q.Kind, resp.Cost.RecordsScanned, resp.Cost.PairsCompared), nil
}

// readRoundTrip routes one side-effect-free read: replica first when one
// is configured, primary on any replica failure (transport, refusal, a
// response of the wrong shape). Replica trouble is never the
// caller's problem — the fallback is the contract.
func (s *OwnerSession) readRoundTrip(req wire.Request) (wire.Response, error) {
	if s.conn.replica != nil {
		resp, _, err := s.conn.replica.roundTrip(s.owner, req)
		if err == nil {
			err = wellFormed(req, resp)
		}
		if err == nil {
			s.conn.replicaServed.Add(1)
			return resp, nil
		}
		s.conn.replicaFallbacks.Add(1)
	}
	resp, _, err := s.conn.primary.roundTrip(s.owner, req)
	if errors.Is(err, edb.ErrNotSetup) && s.restore() {
		resp, _, err = s.conn.primary.roundTrip(s.owner, req)
	}
	if err == nil {
		err = wellFormed(req, resp)
	}
	return resp, err
}

// restore heals a session whose serving node holds nothing of an owner the
// session has syncs acknowledged for — a failover promoted a node its setup
// had not reached — with the resume handshake, which re-uploads the missing
// history from the resync window, as a failed upload's realignment would.
// It reports whether the session had a history to restore and restored it,
// so the read that found the gap is asked once more.
func (s *OwnerSession) restore() bool {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	return s.seqInit && s.seq > 0 && s.resumeLocked() == nil
}

// wellFormed checks that a read's response has the shape its request asks
// for: a stats section for stats; for a query an answer and a cost, the
// answer a vector of record.NumLocations groups for GroupCount and a scalar
// for every other kind. Anything else is a malformed frame.
func wellFormed(req wire.Request, resp wire.Response) error {
	if req.Type == wire.MsgStats {
		if resp.Stats == nil {
			return fmt.Errorf("client: stats response without stats: %w", wire.ErrBadFrame)
		}
		return nil
	}
	k, groups := query.Kind(req.Query.Kind), 0
	if k == query.GroupCount {
		groups = record.NumLocations
	}
	if resp.Answer == nil || resp.Cost == nil {
		return fmt.Errorf("client: %v response without an answer and a cost: %w", k, wire.ErrBadFrame)
	}
	if n := len(resp.Answer.Groups); n != groups {
		return fmt.Errorf("client: %v answered with %d groups, want %d: %w", k, n, groups, wire.ErrBadFrame)
	}
	return nil
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
	return *resp.Stats, nil
}

var _ edb.Database = (*OwnerSession)(nil)
