package client

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/record"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// frameTally counts the request frames a client writes, by message type,
// across every transport it dials.
type frameTally struct {
	mu sync.Mutex
	n  map[wire.MsgType]int
}

func (ft *frameTally) dial(addr string) (net.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tallyConn{Conn: nc, ft: ft}, nil
}

func (ft *frameTally) counts() map[wire.MsgType]int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return maps.Clone(ft.n)
}

// tallyConn parses what is written to it into frames; the hello is a
// transport's first write and not a frame. Writes on one transport are
// serialized by the link.
type tallyConn struct {
	net.Conn
	ft    *frameTally
	hello bool
	buf   []byte
}

func (c *tallyConn) Write(p []byte) (int, error) {
	if !c.hello {
		c.hello = true
		return c.Conn.Write(p)
	}
	c.buf = append(c.buf, p...)
	for {
		h, m, err := wire.FrameHeader(c.buf)
		if err != nil {
			panic(fmt.Sprintf("tallyConn: the client wrote a bad frame header: %v", err))
		}
		n := h + m
		if h == 0 || len(c.buf) < n {
			break
		}
		f, err := wire.ParseGatewayRequest(c.buf[h:n])
		if err != nil {
			panic(fmt.Sprintf("tallyConn: the client wrote an unparsable frame: %v", err))
		}
		c.ft.mu.Lock()
		if c.ft.n == nil {
			c.ft.n = map[wire.MsgType]int{}
		}
		c.ft.n[f.Req.Type]++
		c.ft.mu.Unlock()
		c.buf = c.buf[n:]
	}
	return c.Conn.Write(p)
}

// counter reads one counter off a registry.
func counter(reg *telemetry.Registry, name string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return -1
}

// TestFreshSetupIsOneFrame pins a fresh owner's attach at one request frame —
// its Setup, claiming tick 1, with no resume before it, and nothing else: the
// backend came with the connection's hello. gateway_resumes_total counts
// every resume it answered: none for that fleet, and one per owner for a
// fleet that resumes explicitly, unknown owners included.
func TestFreshSetupIsOneFrame(t *testing.T) {
	reg := telemetry.New()
	gw, key := startGateway(t, gateway.Config{Telemetry: reg})
	const owners = 100
	var tally frameTally
	conn, err := DialGateway(gw.Addr(), key, WithDialer(tally.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < owners; i++ {
		if err := conn.Owner(fmt.Sprintf("owner-%03d", i)).Setup([]record.Record{yellowAt(0, uint16(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[wire.MsgType]int{wire.MsgSetup: owners}
	if got := tally.counts(); !maps.Equal(got, want) {
		t.Fatalf("%d fresh setups sent %v, want %v", owners, got, want)
	}
	if n := counter(reg, "gateway_resumes_total"); n != 0 {
		t.Fatalf("gateway_resumes_total = %v after fresh setups, want 0", n)
	}
	if n := counter(reg, "gateway_syncs_total"); n != owners {
		t.Fatalf("gateway_syncs_total = %v, want %d", n, owners)
	}

	// A fleet that resumes first, as a harness handing owners to sessions
	// does: each resume is answered and counted — the unknown owner's too —
	// and the setup that follows it still lands at tick 1.
	for i := 0; i < owners; i++ {
		own := conn.Owner(fmt.Sprintf("owner-late-%03d", i))
		if err := own.Resume(); err != nil {
			t.Fatal(err)
		}
		if err := own.Setup([]record.Record{yellowAt(0, uint16(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	if n := counter(reg, "gateway_resumes_total"); n != owners {
		t.Fatalf("gateway_resumes_total = %v after %d explicit resumes, want %d", n, owners, owners)
	}
	if n := counter(reg, "gateway_syncs_total"); n != 2*owners {
		t.Fatalf("gateway_syncs_total = %v, want %d", n, 2*owners)
	}
}

// TestSecondSessionSetupIsTyped attaches a second connection's session to an
// owner that is already set up and calls Setup: it fails with
// edb.ErrAlreadySetup after exactly one request frame (the duplicate's ack
// carries the clock), the owner's transcript, ledger, clock and stored totals
// are untouched, a second Setup is refused without sending anything, and the
// session's next Update applies at clock+1 without a resume. A session that
// resumed before the owner was set up is told the same way. In memory and on
// a store, where the ack waits for the group commit.
func TestSecondSessionSetupIsTyped(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "store"}[durable], func(t *testing.T) {
			cfg := gateway.Config{SyncEpsilon: 0.5}
			if durable {
				cfg.StoreDir = t.TempDir()
			}
			gw, key := startGateway(t, cfg)
			first, err := DialGateway(gw.Addr(), key)
			if err != nil {
				t.Fatal(err)
			}
			defer first.Close()
			const owner = "owner-x"
			own := first.Owner(owner)
			if err := own.Setup([]record.Record{yellowAt(0, 10)}); err != nil {
				t.Fatal(err)
			}
			if err := own.Update([]record.Record{yellowAt(1, 20)}); err != nil {
				t.Fatal(err)
			}
			state := func() (string, *dp.Budget) {
				st, err := own.RemoteStats()
				return fmt.Sprintf("pattern=%v stats=%+v %v", gw.ObservedPattern(owner), st, err), gw.ObservedLedger(owner)
			}
			before, ledger := state()

			var tally frameTally
			second, err := DialGateway(gw.Addr(), key, WithDialer(tally.dial))
			if err != nil {
				t.Fatal(err)
			}
			defer second.Close()
			late := second.Owner(owner)
			for i, sent := range []map[wire.MsgType]int{{wire.MsgSetup: 1}, {wire.MsgSetup: 1}} {
				if err := late.Setup([]record.Record{yellowAt(0, 11)}); !errors.Is(err, edb.ErrAlreadySetup) {
					t.Fatalf("setup %d of an existing owner: %v, want edb.ErrAlreadySetup", i+1, err)
				}
				if got := tally.counts(); !maps.Equal(got, sent) {
					t.Fatalf("setup %d of an existing owner sent %v in all, want %v", i+1, got, sent)
				}
			}
			if after, afterLedger := state(); after != before || !afterLedger.Equal(ledger) {
				t.Fatalf("the refused setup moved the owner:\n before: %s ledger %q\n after:  %s ledger %q",
					before, ledger.Describe(), after, afterLedger.Describe())
			}

			if err := late.Update([]record.Record{yellowAt(2, 30)}); err != nil {
				t.Fatal(err)
			}
			ev := gw.ObservedPattern(owner).Events
			if len(ev) != 3 || ev[2].Tick != 3 {
				t.Fatalf("transcript after the late session's update: %+v, want its third event at tick 3", ev)
			}
			// The backend came with the hello: no frame asks for it.
			if got, want := tally.counts(), map[wire.MsgType]int{wire.MsgSetup: 1, wire.MsgUpdate: 1}; !maps.Equal(got, want) {
				t.Fatalf("the late session sent %v in all, want %v", got, want)
			}

			// A session that resumed before another set the owner up learns
			// it the same way: its setup, sent once, is acked as a duplicate.
			early := second.Owner("owner-y")
			if err := early.Resume(); err != nil {
				t.Fatal(err)
			}
			if err := first.Owner("owner-y").Setup([]record.Record{yellowAt(0, 12)}); err != nil {
				t.Fatal(err)
			}
			if err := early.Setup([]record.Record{yellowAt(0, 13)}); !errors.Is(err, edb.ErrAlreadySetup) {
				t.Fatalf("setup after another session's: %v, want edb.ErrAlreadySetup", err)
			}
			if ev := gw.ObservedPattern("owner-y").Events; len(ev) != 1 {
				t.Fatalf("owner-y's transcript: %+v, want the one setup", ev)
			}
		})
	}
}

// dropOnRead severs its connection instead of delivering the first bytes it
// reads once armed.
type dropOnRead struct {
	net.Conn
	armed *atomic.Bool
}

func (d dropOnRead) Read(p []byte) (int, error) {
	n, err := d.Conn.Read(p)
	if n > 0 && d.armed.CompareAndSwap(true, false) {
		d.Conn.Close()
		return 0, errors.New("dropOnRead: transport lost before the response was read")
	}
	return n, err
}

// TestReplayedSetupIsTheSessionsOwn drops the transport after the node has
// applied a fresh session's setup and sent its ack, before the client reads
// it. The link replays the setup, the node acks it as a duplicate, and the
// session takes that ack as its own setup's: one setup event in the
// transcript, ε charged once, and the next Update at tick 2.
func TestReplayedSetupIsTheSessionsOwn(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "store"}[durable], func(t *testing.T) {
			cfg := gateway.Config{SyncEpsilon: 0.5}
			if durable {
				cfg.StoreDir = t.TempDir()
			}
			gw, key := startGateway(t, cfg)
			var tally frameTally
			var dials atomic.Int64
			var armed atomic.Bool
			dial := func(addr string) (net.Conn, error) {
				nc, err := tally.dial(addr)
				if err != nil || dials.Add(1) > 1 {
					return nc, err
				}
				return dropOnRead{nc, &armed}, nil
			}
			conn, err := DialGateway(gw.Addr(), key, WithReconnect(0), WithDialer(dial))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			const owner = "owner-replayed"
			own := conn.Owner(owner)
			armed.Store(true) // the hello is done: the next bytes in are the setup's ack
			if err := own.Setup([]record.Record{yellowAt(0, 10)}); err != nil {
				t.Fatalf("setup whose ack was lost: %v", err)
			}
			if n, _ := conn.ReconnectStats(); n != 1 {
				t.Fatalf("%d reconnects, want the one that replayed the setup", n)
			}
			if got := tally.counts()[wire.MsgSetup]; got != 2 {
				t.Fatalf("the setup went out %d times, want twice (sent, replayed)", got)
			}
			ev := gw.ObservedPattern(owner).Events
			if len(ev) != 1 || ev[0].Tick != 1 {
				t.Fatalf("transcript after a replayed setup: %+v, want one event at tick 1", ev)
			}
			ledger := gw.ObservedLedger(owner)
			if ledger.Uses("m_setup") != 1 || ledger.Spent() != 0.5 {
				t.Fatalf("ledger after a replayed setup: %s, want m_setup charged once (ε 0.5)", ledger.Describe())
			}
			if err := own.Update([]record.Record{yellowAt(1, 20)}); err != nil {
				t.Fatal(err)
			}
			ev = gw.ObservedPattern(owner).Events
			if len(ev) != 2 || ev[1].Tick != 2 {
				t.Fatalf("transcript after the next update: %+v, want its second event at tick 2", ev)
			}
			if got := tally.counts()[wire.MsgResume]; got != 0 {
				t.Fatalf("%d resumes sent, want none", got)
			}
		})
	}
}
