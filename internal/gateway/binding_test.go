package gateway_test

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/dp"
	"dpsync/internal/faultnet"
	"dpsync/internal/gateway"
	"dpsync/internal/record"
	"dpsync/internal/refdb"
	"dpsync/internal/seal"
	"dpsync/internal/wire"
)

// The owner-handle lifecycle (wire.MaxBindings) through a real gateway and
// client: a redial rebinds, a table past the bound names inline, and a
// duplicated binding frame binds once.

// recordingProxy stands between a client and a gateway. It forwards both
// directions, decodes every request frame the client sends, per connection,
// and can withhold the gateway's answers and kill the live connections — a
// transport that dies with syncs in flight.
type recordingProxy struct {
	lis    net.Listener
	target string
	hold   atomic.Bool // answers are withheld while set
	mu     sync.Mutex
	frames [][]wire.GatewayRequest // per accepted connection, in arrival order
	live   []net.Conn
}

func startRecordingProxy(t *testing.T, target string) *recordingProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &recordingProxy{lis: lis, target: target}
	go p.accept()
	t.Cleanup(func() {
		lis.Close()
		p.kill()
	})
	return p
}

func (p *recordingProxy) accept() {
	for {
		c, err := p.lis.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		conn := len(p.frames)
		p.frames = append(p.frames, nil)
		p.live = append(p.live, c, s)
		p.mu.Unlock()
		go p.requests(c, s, conn)
		go p.answers(s, c)
	}
}

// requests forwards the client's hello, then its frames one by one, each
// recorded before it reaches the gateway.
func (p *recordingProxy) requests(c, s net.Conn, conn int) {
	defer s.Close()
	var hello [5]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		return
	}
	if _, err := s.Write(hello[:]); err != nil {
		return
	}
	for {
		payload, err := wire.ReadFrame(c)
		if err != nil {
			return
		}
		g, err := wire.CodecBinary.DecodeGatewayRequest(payload)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.frames[conn] = append(p.frames[conn], g)
		p.mu.Unlock()
		if wire.WriteFrame(s, payload) != nil {
			return
		}
	}
}

// answers forwards the gateway's bytes, the hello's ack included, holding
// each read while hold is set.
func (p *recordingProxy) answers(s, c net.Conn) {
	defer c.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := s.Read(buf)
		for p.hold.Load() {
			time.Sleep(time.Millisecond)
		}
		if n > 0 {
			if _, werr := c.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// kill closes every live connection, both ends.
func (p *recordingProxy) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.live {
		c.Close()
	}
	p.live = nil
}

// recorded returns a copy of the frames each connection carried so far.
func (p *recordingProxy) recorded() [][]wire.GatewayRequest {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([][]wire.GatewayRequest, len(p.frames))
	for i, fs := range p.frames {
		out[i] = append([]wire.GatewayRequest(nil), fs...)
	}
	return out
}

// waitFrames waits until connection conn has carried n frames.
func (p *recordingProxy) waitFrames(t *testing.T, conn, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if fs := p.recorded(); len(fs) > conn && len(fs[conn]) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("connection %d never carried %d frames", conn, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// resolveAll applies the binding rule to one connection's frames, as the
// gateway's reader does, and returns the owner each frame named; a frame by
// a handle not bound before it fails the test.
func resolveAll(t *testing.T, frames []wire.GatewayRequest) []string {
	t.Helper()
	var bound []string
	handles := map[string]uint64{}
	owners := make([]string, len(frames))
	for i, f := range frames {
		if f.Handle > 0 {
			if f.Handle > uint64(len(bound)) {
				t.Fatalf("frame %d names handle %d with %d bound", i, f.Handle, len(bound))
			}
			owners[i] = bound[f.Handle-1]
			continue
		}
		owners[i] = f.Owner
		if _, ok := handles[f.Owner]; !ok && len(bound) < wire.MaxBindings {
			bound = append(bound, f.Owner)
			handles[f.Owner] = uint64(len(bound))
		}
	}
	return owners
}

// wantLedger is the ledger of n events at eps: one m_setup, then one
// m_update per further event.
func wantLedger(t *testing.T, n int, eps float64) *dp.Budget {
	t.Helper()
	b := dp.NewBudget()
	for i := 0; i < n; i++ {
		name := "m_update"
		if i == 0 {
			name = "m_setup"
		}
		if err := b.Charge(name, eps, dp.Sequential); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestRedialRebindsEveryOwnerInline kills a transport with one sync in
// flight for each of three owners, all three bound to handles on it. The
// redialed connection starts with an empty table: its first frame for each
// owner is inline — the replayed sync — and its later frames name the owner
// by the handle that frame bound. Every owner's transcript equals the refdb
// reference's and its ledger charges each event once.
func TestRedialRebindsEveryOwnerInline(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	gw, _ := startGateway(t, gateway.Config{Key: key, Shards: 2, SyncEpsilon: 0.5})
	p := startRecordingProxy(t, gw.Addr())
	conn, err := client.DialGateway(p.lis.Addr().String(), key, client.WithReconnect(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	owners := []string{"owner-k1", "owner-k2", "owner-k3"}
	sessions := make([]*client.OwnerSession, len(owners))
	for o, name := range owners {
		sessions[o] = conn.Owner(name)
	}
	batch := func(o, tick int) []record.Record {
		rs := make([]record.Record, 1+(o+tick)%3)
		for i := range rs {
			rs[i] = yellow(tick, uint16(1+(7*o+tick+i)%record.NumLocations))
		}
		return rs
	}
	sync := func(o, tick int) error {
		own := sessions[o]
		if tick == 1 {
			return own.Setup(batch(o, tick))
		}
		return own.Update(batch(o, tick))
	}
	for tick := 1; tick <= 3; tick++ {
		for o := range owners {
			if err := sync(o, tick); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := len(p.recorded()[0])
	p.hold.Store(true)
	inFlight := make(chan error, len(owners))
	for o := range owners {
		go func() { inFlight <- sync(o, 4) }()
	}
	p.waitFrames(t, 0, before+len(owners))
	p.kill()
	p.hold.Store(false)
	for range owners {
		if err := <-inFlight; err != nil {
			t.Fatalf("a sync in flight across the redial: %v", err)
		}
	}
	for tick := 5; tick <= 6; tick++ {
		for o := range owners {
			if err := sync(o, tick); err != nil {
				t.Fatal(err)
			}
		}
	}

	frames := p.recorded()
	if n, _ := conn.ReconnectStats(); n != 1 || len(frames) != 2 {
		t.Fatalf("%d reconnects over %d connections, want 1 over 2", n, len(frames))
	}
	for _, f := range frames[0][before:] {
		if f.Handle == 0 || f.Req.Seq != 4 {
			t.Fatalf("a sync in flight on the killed connection: %+v, want tick 4 by handle", f)
		}
	}
	// The replay comes first on the new connection: each owner's tick-4 sync,
	// inline. Each owner's later frames name it by the handle it bound.
	owned := resolveAll(t, frames[1])
	seen := map[string]bool{}
	for i, f := range frames[1] {
		if i < len(owners) && (f.Handle != 0 || f.Req.Seq != 4) {
			t.Fatalf("frame %d on the new connection: %+v, want a replayed tick-4 sync named inline", i, f)
		}
		if inline := f.Handle == 0; inline == seen[owned[i]] {
			t.Fatalf("frame %d on the new connection names %s inline=%v after %v earlier frames for it", i, owned[i], inline, seen[owned[i]])
		}
		seen[owned[i]] = true
	}
	if len(seen) != len(owners) {
		t.Fatalf("the new connection carried frames for %d owners, want %d", len(seen), len(owners))
	}

	for o, owner := range owners {
		ref, err := refdb.New(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Setup(batch(o, 1)); err != nil {
			t.Fatal(err)
		}
		for tick := 2; tick <= 6; tick++ {
			if err := ref.Update(batch(o, tick)); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := gw.ObservedPattern(owner).String(), ref.ObservedPattern().String(); got != want {
			t.Errorf("%s: transcript %s, the refdb reference's %s", owner, got, want)
		}
		if got := gw.ObservedLedger(owner); !got.Equal(wantLedger(t, 6, 0.5)) {
			t.Errorf("%s: ledger %s, want one charge per event", owner, got.Describe())
		}
	}
}

// TestOwnerPastMaxBindingsGoesInline binds every handle a connection has and
// then serves one owner more: the table is full, so each of its frames names
// it inline — the bytes of an inline frame, every time — and it is served
// like any other.
func TestOwnerPastMaxBindingsGoesInline(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{Shards: 2})
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const workers = 8
	errs := make(chan error, workers)
	sessions := make([]*client.OwnerSession, wire.MaxBindings)
	for w := range workers {
		go func() {
			for i := w; i < wire.MaxBindings; i += workers {
				sessions[i] = conn.Owner(fmt.Sprintf("owner-%04d", i))
				if err := sessions[i].Setup([]record.Record{yellow(0, 1)}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	const past = "owner-past"
	inline := func(seq uint64) int64 {
		// Request IDs are past 127 and below 16384 here: two varint bytes.
		b, err := wire.AppendGatewayRequest(nil, wire.GatewayRequest{ID: 1 << 7, Owner: past,
			Req: wire.Request{Type: wire.MsgUpdate, Seq: seq, Sealed: [][]byte{make([]byte, seal.Size(1))}}})
		if err != nil {
			t.Fatal(err)
		}
		return framedLen(len(b))
	}
	own := conn.Owner(past)
	if err := own.Setup([]record.Record{yellow(0, 2)}); err != nil {
		t.Fatal(err)
	}
	for tick := 2; tick <= 4; tick++ {
		out0 := conn.BytesOut()
		if err := own.Update([]record.Record{yellow(tick, 3)}); err != nil {
			t.Fatal(err)
		}
		if got, want := conn.BytesOut()-out0, inline(uint64(tick)); got != want {
			t.Errorf("tick %d: the owner past the table took %d B, want the inline frame's %d", tick, got, want)
		}
	}
	out0 := conn.BytesOut()
	if err := sessions[0].Update([]record.Record{yellow(1, 3)}); err != nil {
		t.Fatal(err)
	}
	if bound, in := conn.BytesOut()-out0, inline(2); bound >= in {
		t.Errorf("a bound owner's sync took %d B, want fewer than an inline frame's %d", bound, in)
	}
	if got := gw.ObservedPattern(past).Updates(); got != 4 {
		t.Errorf("the owner past the table has %d events, want 4", got)
	}
	if st, err := own.RemoteStats(); err != nil || st.Records != 4 {
		t.Errorf("the owner past the table: stats %+v, %v — want 4 records", st, err)
	}
	if gw.Owners() != wire.MaxBindings+1 {
		t.Errorf("%d owners on the gateway, want %d", gw.Owners(), wire.MaxBindings+1)
	}
}

// TestDuplicatedBindingFrameAbsorbed runs two owners over a transport that
// delivers every frame twice. A binding frame's second copy names an owner
// the connection already bound, so it binds nothing: had it taken a handle,
// the second owner's frames would land on the first owner's namespace. Each
// duplicate is answered as today — a sync's as a duplicate, acked — and the
// client drops the second answer; nothing is refused, and each owner's
// transcript and ledger are its own.
func TestDuplicatedBindingFrameAbsorbed(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{Shards: 1, SyncEpsilon: 0.5})
	inj := faultnet.New(faultnet.Config{Seed: 38, Duplicate: 1})
	conn, err := client.DialGateway(gw.Addr(), key, client.WithDialer(inj.Dialer(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	a, b := conn.Owner("owner-dup-a"), conn.Owner("owner-dup-b")
	if err := a.Setup([]record.Record{yellow(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Setup([]record.Record{yellow(0, 2), yellow(0, 3)}); err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= 4; tick++ {
		if err := a.Update([]record.Record{yellow(tick, 4)}); err != nil {
			t.Fatal(err)
		}
		if err := b.Update([]record.Record{yellow(tick, 5), yellow(tick, 6)}); err != nil {
			t.Fatal(err)
		}
	}
	if d := inj.Counts().Duplicates; d < 10 {
		t.Fatalf("%d frames duplicated, want every one of the 10 syncs'", d)
	}
	for _, tc := range []struct {
		own    *client.OwnerSession
		name   string
		volume int
	}{{a, "owner-dup-a", 1}, {b, "owner-dup-b", 2}} {
		pat := gw.ObservedPattern(tc.name)
		if pat.Updates() != 5 {
			t.Errorf("%s: %d events, want 5", tc.name, pat.Updates())
		}
		for i, e := range pat.Events {
			if want := record.Tick(i + 1); e.Tick != want || e.Volume != tc.volume {
				t.Errorf("%s event %d: (%d, %d), want (%d, %d)", tc.name, i, e.Tick, e.Volume, want, tc.volume)
			}
		}
		if got := gw.ObservedLedger(tc.name); !got.Equal(wantLedger(t, 5, 0.5)) {
			t.Errorf("%s: ledger %s, want one charge per event", tc.name, got.Describe())
		}
	}
	for code := wire.RefusalCode(1); code <= wire.MaxRefusalCode; code++ {
		if n := gw.Refused(code); n != 0 {
			t.Errorf("%d %v refusals: a duplicate was refused", n, code)
		}
	}
}
