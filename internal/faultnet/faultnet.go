// Package faultnet wraps net.Conn in seeded, deterministic network-fault
// schedules: connection resets, mid-frame truncation, write stalls, and
// duplicated delivery of the last frame. It exists to prove the fleet
// robustness invariant — per-owner transcripts and ε ledgers bit-identical
// to an uninterrupted run — under hostile transport, so every fault is
// injected at a *frame* boundary of the gateway protocol:
//
//   - The 5-byte connection hello passes through verbatim (a fault there is
//     just a failed dial, which the reconnect layer already covers).
//   - Writes are buffered until a complete frame is assembled — split with
//     wire.FrameHeader, the protocol's own header parser, so the injector
//     keeps no second one — then the schedule decides the frame's fate.
//     Mid-frame truncation deliberately ships a *partial* frame before
//     severing — the torn-write case the peer's framing layer must survive.
//   - Duplication ships the frame twice, the retransmit-overlap case the
//     gateway's idempotent tick-ordered apply must absorb without double-
//     charging the ledger.
//
// Schedules are driven by a per-connection PRNG derived from (Config.Seed,
// connection id), so a harness replaying the same dial sequence replays the
// same faults. Disruptive faults (resets, truncations) draw from a shared
// budget; once it is spent every connection becomes transparent, which is
// what guarantees an injected load run terminates.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpsync/internal/wire"
)

// ErrInjected is the typed error returned by writes on a connection the
// schedule has severed; harnesses match it to tell injected faults from
// real network failures.
var ErrInjected = errors.New("faultnet: injected fault")

// helloLen is the gateway connection preamble (magic + version byte) that
// passes through un-buffered.
const helloLen = 5

// Config tunes an Injector. Probabilities are per complete outgoing frame
// and are evaluated in order (reset, truncate, stall, duplicate) against a
// single uniform draw, so their sum must stay ≤ 1.
type Config struct {
	// Seed derives every connection's schedule PRNG.
	Seed int64
	// Budget bounds disruptive faults (resets + truncations) across all
	// connections of this Injector; 0 or negative means no disruptive
	// faults at all. Stalls and duplicates are free — they never block
	// progress, so they need no termination bound.
	Budget int64
	// Reset severs the connection cleanly between frames.
	Reset float64
	// Truncate ships a strict prefix of the frame, then severs — the torn
	// mid-frame write.
	Truncate float64
	// Stall sleeps up to MaxStall before shipping the frame.
	Stall float64
	// Duplicate ships the frame twice back to back.
	Duplicate float64
	// MaxStall bounds one injected stall (default 20ms).
	MaxStall time.Duration
}

// DefaultConfig is a moderately hostile schedule: a few percent of frames
// disrupted, small stalls, frequent duplicates (the cheapest fault to
// absorb, and the one that exercises the idempotency invariant).
func DefaultConfig(seed int64, budget int64) Config {
	return Config{
		Seed:      seed,
		Budget:    budget,
		Reset:     0.02,
		Truncate:  0.01,
		Stall:     0.04,
		Duplicate: 0.06,
		MaxStall:  20 * time.Millisecond,
	}
}

// Counts reports how many of each fault an Injector has delivered.
type Counts struct {
	Resets      int64
	Truncations int64
	Stalls      int64
	Duplicates  int64
}

// Total returns the number of injected faults of every kind.
func (c Counts) Total() int64 { return c.Resets + c.Truncations + c.Stalls + c.Duplicates }

// Injector mints fault-wrapped connections sharing one seed, one budget,
// and one set of counters. Safe for concurrent use.
type Injector struct {
	cfg    Config
	budget atomic.Int64
	nextID atomic.Int64

	resets atomic.Int64
	truncs atomic.Int64
	stalls atomic.Int64
	dups   atomic.Int64
}

// New creates an Injector for the given schedule.
func New(cfg Config) *Injector {
	if cfg.MaxStall <= 0 {
		cfg.MaxStall = 20 * time.Millisecond
	}
	in := &Injector{cfg: cfg}
	in.budget.Store(cfg.Budget)
	return in
}

// Counts returns the faults delivered so far.
func (in *Injector) Counts() Counts {
	return Counts{
		Resets:      in.resets.Load(),
		Truncations: in.truncs.Load(),
		Stalls:      in.stalls.Load(),
		Duplicates:  in.dups.Load(),
	}
}

// take spends one unit of the disruptive-fault budget; false once spent.
func (in *Injector) take() bool {
	for {
		b := in.budget.Load()
		if b <= 0 {
			return false
		}
		if in.budget.CompareAndSwap(b, b-1) {
			return true
		}
	}
}

// Wrap returns conn under this Injector's schedule, with the connection id
// drawn from the Injector's dial counter — deterministic whenever the
// harness dials in a deterministic order.
func (in *Injector) Wrap(conn net.Conn) net.Conn {
	return in.WrapID(conn, in.nextID.Add(1))
}

// WrapID is Wrap with an explicit connection id, for harnesses that assign
// ids themselves (per-owner, say) to stay deterministic under concurrent
// dials.
func (in *Injector) WrapID(conn net.Conn, id int64) net.Conn {
	return &faultConn{
		Conn:  conn,
		in:    in,
		rng:   rand.New(rand.NewSource(in.cfg.Seed ^ int64(uint64(id)*0x9E3779B97F4A7C15))),
		hello: helloLen,
	}
}

// Dialer wraps a dial function so every connection it produces runs under
// the schedule. dial nil means plain TCP.
func (in *Injector) Dialer(dial func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return func(addr string) (net.Conn, error) {
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return in.Wrap(conn), nil
	}
}

// faultConn is one scheduled connection. Write-path state is guarded by mu;
// reads pass through untouched (read-side failures manifest through the
// severed transport, exactly like a real reset).
type faultConn struct {
	net.Conn
	in     *Injector
	rng    *rand.Rand
	closed atomic.Bool // Close ran: later writes draw nothing from the schedule

	mu          sync.Mutex
	hello       int    // preamble bytes still owed verbatim
	buf         []byte // bytes of the frame being assembled
	transparent bool   // a header wire refuses seen; no further tracking
	dead        error  // latched injected severance
}

// Close marks the connection closed before closing it, so a frame written
// after — by a writer that lost the race with its connection's end — fails
// without a draw: the faults a connection is dealt follow the frames it
// carried, never the timing of its close. It takes no lock, so it can always
// unblock a write stuck in the socket.
func (c *faultConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return 0, c.dead
	}
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	total := len(p)
	if c.hello > 0 {
		n := min(c.hello, len(p))
		if _, err := c.Conn.Write(p[:n]); err != nil {
			return 0, err
		}
		c.hello -= n
		p = p[n:]
		if len(p) == 0 {
			return total, nil
		}
	}
	if c.transparent {
		if _, err := c.Conn.Write(p); err != nil {
			return 0, err
		}
		return total, nil
	}
	c.buf = append(c.buf, p...)
	for {
		hdr, n, err := wire.FrameHeader(c.buf)
		if err != nil {
			// Not a protocol frame we understand; stop interfering.
			c.transparent = true
			if _, err := c.Conn.Write(c.buf); err != nil {
				return 0, err
			}
			c.buf = nil
			return total, nil
		}
		if hdr == 0 || len(c.buf) < hdr+n {
			return total, nil // frame incomplete; wait for more bytes
		}
		if err := c.deliver(c.buf[:hdr+n]); err != nil {
			return 0, err
		}
		c.buf = c.buf[hdr+n:]
	}
}

// deliver ships one complete frame under the schedule. Called with mu held.
func (c *faultConn) deliver(frame []byte) error {
	cfg := &c.in.cfg
	r := c.rng.Float64()
	switch {
	case r < cfg.Reset:
		if c.in.take() {
			c.in.resets.Add(1)
			c.sever()
			return c.dead
		}
	case r < cfg.Reset+cfg.Truncate:
		if c.in.take() {
			c.in.truncs.Add(1)
			// A strict prefix — at least the header's first byte, at most
			// one byte short of completion — then sever: the torn write a
			// crashing network stack leaves behind. A one-byte frame (an
			// empty payload) has no such prefix; it is severed whole.
			if len(frame) > 1 {
				cut := 1 + c.rng.Intn(len(frame)-1)
				_, _ = c.Conn.Write(frame[:cut])
			}
			c.sever()
			return c.dead
		}
	case r < cfg.Reset+cfg.Truncate+cfg.Stall:
		c.in.stalls.Add(1)
		time.Sleep(time.Duration(1 + c.rng.Int63n(int64(cfg.MaxStall))))
	case r < cfg.Reset+cfg.Truncate+cfg.Stall+cfg.Duplicate:
		c.in.dups.Add(1)
		if _, err := c.Conn.Write(frame); err != nil {
			return err
		}
	}
	_, err := c.Conn.Write(frame)
	return err
}

// sever latches the injected failure and closes the transport, so the
// peer's reader and this side's reader both observe a dead connection.
func (c *faultConn) sever() {
	c.dead = ErrInjected
	_ = c.Conn.Close()
}
