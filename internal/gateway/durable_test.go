package gateway_test

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"testing"

	"dpsync/internal/client"
	"dpsync/internal/core"
	"dpsync/internal/crypte"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/refdb"
	"dpsync/internal/seal"
	"dpsync/internal/strategy"
	"dpsync/internal/wire"
)

// swapDB is an edb.Database indirection that lets a surviving client-side
// core.Owner reconnect to a recovered gateway: the crash harness swaps the
// dead connection's OwnerSession (the embedded edb.Database) for a fresh
// one underneath the owner's strategy stack, which keeps its local state
// (cache, noise stream, clock) across the server crash — exactly the
// deployment's failure shape.
type swapDB struct{ edb.Database }

func (s *swapDB) swap(db edb.Database) { s.Database = db }

// durableOwnerSpecs builds the three-strategy owner mix used by the
// differential tests, with fixed seeds so both runs see identical traces.
func durableOwnerSpecs(t *testing.T) []struct {
	name string
	mk   func() strategy.Strategy
} {
	t.Helper()
	return []struct {
		name string
		mk   func() strategy.Strategy
	}{
		{"owner-sur", func() strategy.Strategy { return strategy.NewSUR() }},
		{"owner-timer", func() strategy.Strategy {
			s, err := strategy.NewTimer(strategy.TimerConfig{
				Epsilon: 0.5, Period: 30, FlushInterval: 150, FlushSize: 5,
				Source: dp.NewSeededSource(41),
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"owner-ant", func() strategy.Strategy {
			s, err := strategy.NewANT(strategy.ANTConfig{
				Epsilon: 0.5, Threshold: 10, FlushInterval: 150, FlushSize: 5,
				Source: dp.NewSeededSource(42),
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
}

// TestDurableCrashDifferential is the acceptance-criteria test for the
// durability subsystem: the gateway is killed mid-run (no flush, no drain —
// a crash), restarted from disk, and driven to completion; every tenant's
// post-recovery transcript must be bit-identical to an uninterrupted
// single-owner reference (internal/refdb) run of the same trace, and the
// recovered ε ledger must equal the uninterrupted ledger — no event lost,
// none re-emitted, no charge double-spent.
func TestDurableCrashDifferential(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	specs := durableOwnerSpecs(t)
	const (
		ticks     = 300
		crashTick = 137
		syncEps   = 0.25
	)

	drive := func(t *testing.T, owner *core.Owner, from, to, seed int) {
		t.Helper()
		for i := from; i <= to; i++ {
			var terr error
			if (i+seed)%3 == 0 {
				terr = owner.Tick(yellow(i, uint16(i%record.NumLocations+1)))
			} else {
				terr = owner.Tick()
			}
			if terr != nil {
				t.Fatal(terr)
			}
		}
	}

	// Uninterrupted reference: each owner alone against the single-owner
	// reference; the expected ledger is one m_setup plus one m_update per
	// observed update event.
	wantPatterns := map[string]string{}
	wantLedgers := map[string]*dp.Budget{}
	for i, spec := range specs {
		ref, err := refdb.New(key)
		if err != nil {
			t.Fatal(err)
		}
		owner, err := core.New(core.Config{Strategy: spec.mk(), Database: ref})
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Setup([]record.Record{yellow(0, 10), yellow(0, 20)}); err != nil {
			t.Fatal(err)
		}
		drive(t, owner, 1, ticks, i)
		pat := ref.ObservedPattern()
		wantPatterns[spec.name] = pat.String()
		ledger := dp.NewBudget()
		if err := ledger.Charge("m_setup", syncEps, dp.Sequential); err != nil {
			t.Fatal(err)
		}
		for u := 1; u < pat.Updates(); u++ {
			if err := ledger.Charge("m_update", syncEps, dp.Sequential); err != nil {
				t.Fatal(err)
			}
		}
		wantLedgers[spec.name] = ledger
	}

	// Crash run: same traces through one durable gateway, interleaved
	// tick-by-tick, killed at crashTick. SnapshotEvery is small so the run
	// crosses several rotations — recovery composes snapshots + WAL.
	dir := t.TempDir()
	mkGateway := func() *gateway.Gateway {
		gw, err := gateway.New("127.0.0.1:0", gateway.Config{
			Key: key, Shards: 2,
			StoreDir: dir, SnapshotEvery: 16, SyncEpsilon: syncEps,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = gw.Serve() }()
		return gw
	}
	gw := mkGateway()
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]*core.Owner, len(specs))
	swaps := make([]*swapDB, len(specs))
	for i, spec := range specs {
		swaps[i] = &swapDB{Database: conn.Owner(spec.name)}
		owner, err := core.New(core.Config{Strategy: spec.mk(), Database: swaps[i]})
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Setup([]record.Record{yellow(0, 10), yellow(0, 20)}); err != nil {
			t.Fatal(err)
		}
		owners[i] = owner
	}
	interleave := func(from, to int) {
		for i := from; i <= to; i++ {
			for j, owner := range owners {
				var terr error
				if (i+j)%3 == 0 {
					terr = owner.Tick(yellow(i, uint16(i%record.NumLocations+1)))
				} else {
					terr = owner.Tick()
				}
				if terr != nil {
					t.Fatal(terr)
				}
			}
		}
	}
	interleave(1, crashTick)

	// Crash: sever clients, abandon un-flushed state.
	conn.Close()
	gw.Kill()

	// Restart from disk and finish the trace through fresh sessions.
	gw2 := mkGateway()
	t.Cleanup(func() { _ = gw2.Close() })
	if rec := gw2.Recovery(); rec.Owners != len(specs) {
		t.Fatalf("recovered %d owners, want %d (info %+v)", rec.Owners, len(specs), rec)
	}
	conn2, err := client.DialGateway(gw2.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	for i, spec := range specs {
		// The recovered clock must sit exactly at the pre-crash committed
		// prefix: every acknowledged sync present, nothing double-applied.
		pre := gw2.ObservedPattern(spec.name)
		if want := owners[i].Pattern().Updates(); pre.Updates() != want {
			t.Fatalf("%s: recovered %d events, owner had %d acknowledged", spec.name, pre.Updates(), want)
		}
		swaps[i].swap(conn2.Owner(spec.name))
	}
	interleave(crashTick+1, ticks)

	for i, spec := range specs {
		got := gw2.ObservedPattern(spec.name)
		if got.String() != wantPatterns[spec.name] {
			t.Errorf("%s transcript diverged after crash+recovery:\n gateway: %s\n  single: %s",
				spec.name, got.String(), wantPatterns[spec.name])
		}
		ledger := gw2.ObservedLedger(spec.name)
		if !ledger.Equal(wantLedgers[spec.name]) {
			t.Errorf("%s ledger diverged (double spend or lost charge):\n got: %s\nwant: %s",
				spec.name, ledger.Describe(), wantLedgers[spec.name].Describe())
		}
		// And the owner-side bookkeeping agrees event for event.
		want := owners[i].Pattern()
		if got.Updates() != want.Updates() {
			t.Errorf("%s: gateway saw %d updates, owner posted %d", spec.name, got.Updates(), want.Updates())
			continue
		}
		for j, e := range got.Events {
			if e.Volume != want.Events[j].Volume {
				t.Errorf("%s: event %d volume %d != owner volume %d", spec.name, j, e.Volume, want.Events[j].Volume)
			}
		}
	}
}

// TestDurableCrashMatrixDifferential is the tiered-history acceptance
// matrix: the same three-strategy owner mix is killed at a seeded-random
// tick and recovered under each history-window configuration — spill
// disabled, the pathological window=1 (nearly everything spilled, a spill
// on almost every commit), and a production-shaped window=64 — and every
// cell must recover by *streaming* whatever history was spilled (recovery
// never materializes the cold tier) to a per-owner transcript and ε ledger
// bit-identical to an uninterrupted single-owner reference (internal/refdb)
// run.
func TestDurableCrashMatrixDifferential(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	specs := durableOwnerSpecs(t)
	// Spill triggers when a tenant's committed history reaches 2× the
	// window (hysteresis amortizes the per-spill ref); 400 ticks puts the
	// busiest owner (SUR syncs every arrival, one arrival per 3 ticks,
	// ~134 syncs) past 2×64, so even the largest matrix window genuinely
	// spills by the end of the trace.
	const (
		ticks   = 400
		syncEps = 0.25
	)

	// Uninterrupted single-owner references, computed once and shared by
	// every matrix cell (the reference does not depend on the window).
	wantPatterns := map[string]string{}
	wantLedgers := map[string]*dp.Budget{}
	for i, spec := range specs {
		ref, err := refdb.New(key)
		if err != nil {
			t.Fatal(err)
		}
		owner, err := core.New(core.Config{Strategy: spec.mk(), Database: ref})
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Setup([]record.Record{yellow(0, 10), yellow(0, 20)}); err != nil {
			t.Fatal(err)
		}
		for tick := 1; tick <= ticks; tick++ {
			var terr error
			if (tick+i)%3 == 0 {
				terr = owner.Tick(yellow(tick, uint16(tick%record.NumLocations+1)))
			} else {
				terr = owner.Tick()
			}
			if terr != nil {
				t.Fatal(terr)
			}
		}
		pat := ref.ObservedPattern()
		wantPatterns[spec.name] = pat.String()
		ledger := dp.NewBudget()
		if err := ledger.Charge("m_setup", syncEps, dp.Sequential); err != nil {
			t.Fatal(err)
		}
		for u := 1; u < pat.Updates(); u++ {
			if err := ledger.Charge("m_update", syncEps, dp.Sequential); err != nil {
				t.Fatal(err)
			}
		}
		wantLedgers[spec.name] = ledger
	}

	rng := rand.New(rand.NewSource(0xD5717C))
	for _, window := range []int{0, 1, 64} {
		window := window
		crashTick := 20 + rng.Intn(ticks-40)
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			dir := t.TempDir()
			mkGateway := func() *gateway.Gateway {
				gw, err := gateway.New("127.0.0.1:0", gateway.Config{
					Key: key, Shards: 2,
					StoreDir: dir, SnapshotEvery: 16, SyncEpsilon: syncEps,
					HistoryWindow: window,
				})
				if err != nil {
					t.Fatal(err)
				}
				go func() { _ = gw.Serve() }()
				return gw
			}
			gw := mkGateway()
			conn, err := client.DialGateway(gw.Addr(), key)
			if err != nil {
				t.Fatal(err)
			}
			owners := make([]*core.Owner, len(specs))
			swaps := make([]*swapDB, len(specs))
			for i, spec := range specs {
				swaps[i] = &swapDB{Database: conn.Owner(spec.name)}
				owner, err := core.New(core.Config{Strategy: spec.mk(), Database: swaps[i]})
				if err != nil {
					t.Fatal(err)
				}
				if err := owner.Setup([]record.Record{yellow(0, 10), yellow(0, 20)}); err != nil {
					t.Fatal(err)
				}
				owners[i] = owner
			}
			interleave := func(from, to int) {
				for tick := from; tick <= to; tick++ {
					for j, owner := range owners {
						var terr error
						if (tick+j)%3 == 0 {
							terr = owner.Tick(yellow(tick, uint16(tick%record.NumLocations+1)))
						} else {
							terr = owner.Tick()
						}
						if terr != nil {
							t.Fatal(terr)
						}
					}
				}
			}
			interleave(1, crashTick)
			// Spill happens exactly when some owner's committed history
			// reaches twice the window — assert both directions.
			preMetrics, _ := gw.StoreMetrics()
			expectSpill := false
			for _, owner := range owners {
				if window > 0 && owner.Pattern().Updates() >= 2*window {
					expectSpill = true
				}
			}
			if expectSpill && preMetrics.SpillBatches == 0 {
				t.Fatalf("window=%d crashTick=%d: nothing spilled before the crash", window, crashTick)
			}
			if window == 0 && preMetrics.SpillBatches != 0 {
				t.Fatalf("window=0 spilled %d batches", preMetrics.SpillBatches)
			}

			// Crash: sever clients, abandon un-flushed state.
			conn.Close()
			gw.Kill()

			gw2 := mkGateway()
			t.Cleanup(func() { _ = gw2.Close() })
			rec := gw2.Recovery()
			if rec.Owners != len(specs) {
				t.Fatalf("recovered %d owners, want %d (info %+v)", rec.Owners, len(specs), rec)
			}
			// With window=1 every commit but the latest is spilled, so any
			// pre-crash rotation persisted a manifest with refs — recovery
			// must be streaming the cold tier, not loading it.
			if window == 1 && preMetrics.Snapshots > 0 && rec.SpilledRefs == 0 {
				t.Fatalf("window=1: rotations happened (%d) but recovery saw no spilled refs (%+v)",
					preMetrics.Snapshots, rec)
			}
			conn2, err := client.DialGateway(gw2.Addr(), key)
			if err != nil {
				t.Fatal(err)
			}
			defer conn2.Close()
			for i, spec := range specs {
				pre := gw2.ObservedPattern(spec.name)
				if want := owners[i].Pattern().Updates(); pre.Updates() != want {
					t.Fatalf("%s: recovered %d events, owner had %d acknowledged", spec.name, pre.Updates(), want)
				}
				swaps[i].swap(conn2.Owner(spec.name))
			}
			interleave(crashTick+1, ticks)

			// By the end of the full trace the busiest owner has crossed
			// 2× every finite matrix window: the recovered gateway must
			// have kept spilling.
			if window > 0 {
				finalSpill := false
				for _, owner := range owners {
					if owner.Pattern().Updates() >= 2*window {
						finalSpill = true
					}
				}
				if m, _ := gw2.StoreMetrics(); finalSpill && m.SpillBatches == 0 {
					t.Errorf("window=%d: recovered gateway never spilled across the full trace", window)
				}
			}
			for i, spec := range specs {
				got := gw2.ObservedPattern(spec.name)
				if got.String() != wantPatterns[spec.name] {
					t.Errorf("%s transcript diverged after crash+recovery (crashTick %d):\n gateway: %s\n  single: %s",
						spec.name, crashTick, got.String(), wantPatterns[spec.name])
				}
				ledger := gw2.ObservedLedger(spec.name)
				if !ledger.Equal(wantLedgers[spec.name]) {
					t.Errorf("%s ledger diverged (double spend or lost charge):\n got: %s\nwant: %s",
						spec.name, ledger.Describe(), wantLedgers[spec.name].Describe())
				}
				want := owners[i].Pattern()
				if got.Updates() != want.Updates() {
					t.Errorf("%s: gateway saw %d updates, owner posted %d", spec.name, got.Updates(), want.Updates())
					continue
				}
				for j, e := range got.Events {
					if e.Volume != want.Events[j].Volume {
						t.Errorf("%s: event %d volume %d != owner volume %d", spec.name, j, e.Volume, want.Events[j].Volume)
					}
				}
			}
		})
	}
}

// TestGracefulCloseFlushesWAL is the shutdown regression test: Close must
// drain in-flight shard work and flush the WAL, so a subsequent open
// recovers every acknowledged sync — the in-process contract behind
// cmd/dpsync-server's SIGINT/SIGTERM handling.
func TestGracefulCloseFlushesWAL(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gw, err := gateway.New("127.0.0.1:0", gateway.Config{Key: key, StoreDir: dir, SyncEpsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	own := conn.Owner("owner-1")
	if err := own.Setup([]record.Record{yellow(0, 60)}); err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= 5; u++ {
		if err := own.Update([]record.Record{yellow(u, uint16(u)), record.NewDummy(record.YellowCab)}); err != nil {
			t.Fatal(err)
		}
	}
	wantPattern := gw.ObservedPattern("owner-1").String()
	conn.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// The directory alone must reconstruct the namespace.
	if segs, _ := filepath.Glob(filepath.Join(dir, "shard-*.wal")); len(segs) == 0 {
		t.Fatal("no WAL segments on disk after graceful close")
	}
	gw2, err := gateway.New("127.0.0.1:0", gateway.Config{Key: key, StoreDir: dir, SyncEpsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw2.Serve() }()
	defer gw2.Close()
	if got := gw2.ObservedPattern("owner-1").String(); got != wantPattern {
		t.Fatalf("transcript after graceful close+reopen:\n got: %s\nwant: %s", got, wantPattern)
	}
	if uses := gw2.ObservedLedger("owner-1").Uses("m_update"); uses != 5 {
		t.Fatalf("recovered m_update uses = %d, want 5", uses)
	}
	// The recovered store still answers queries (backend rebuilt from the
	// replayed ciphertext history).
	conn2, err := client.DialGateway(gw2.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	ans, _, err := conn2.Owner("owner-1").Query(query.Q2())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Total() != 6 { // 6 real records across setup+updates
		t.Fatalf("recovered Q2 total = %v, want 6", ans.Total())
	}
}

// TestDurableSnapshotRotation drives enough syncs through a tiny
// SnapshotEvery to force several quiesce+rotate cycles under live traffic,
// then checks recovery composes the final snapshot with the WAL suffix.
func TestDurableSnapshotRotation(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gw, err := gateway.New("127.0.0.1:0", gateway.Config{
		Key: key, Shards: 2, StoreDir: dir, SnapshotEvery: 8, SyncEpsilon: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	const owners, updates = 4, 15
	for oi := 0; oi < owners; oi++ {
		own := conn.Owner(fmt.Sprintf("owner-%d", oi))
		if err := own.Setup(nil); err != nil {
			t.Fatal(err)
		}
		for u := 1; u <= updates; u++ {
			if err := own.Update([]record.Record{yellow(u, uint16(u))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, ok := gw.StoreMetrics()
	if !ok || m.Snapshots == 0 {
		t.Fatalf("no snapshot rotation happened: %+v (ok=%v)", m, ok)
	}
	if m.Appends != int64(owners*(updates+1)) {
		t.Fatalf("appends = %d, want %d", m.Appends, owners*(updates+1))
	}
	conn.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}

	gw2, err := gateway.New("127.0.0.1:0", gateway.Config{
		Key: key, Shards: 2, StoreDir: dir, SnapshotEvery: 8, SyncEpsilon: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw2.Serve() }()
	defer gw2.Close()
	for oi := 0; oi < owners; oi++ {
		name := fmt.Sprintf("owner-%d", oi)
		if got := gw2.ObservedPattern(name).Updates(); got != updates+1 {
			t.Fatalf("%s: recovered %d events, want %d", name, got, updates+1)
		}
	}
}

// TestDurableReadsWaitForCommit pins the read-visibility rule: a pipelined
// read (stats here) sent right behind a durable sync must not be answered
// until that sync's group commit — its response arrives after the sync's
// ack (per-owner FIFO) and reflects only committed state.
func TestDurableReadsWaitForCommit(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New("127.0.0.1:0", gateway.Config{Key: key, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	defer gw.Close()

	conn, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	codec := wire.CodecBinary
	if err := wire.WriteHello(conn, codec); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHelloAck(conn); err != nil {
		t.Fatal(err)
	}
	sealer, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	sealOne := func(r record.Record) [][]byte {
		ct, err := sealer.Seal(r)
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{ct}
	}
	send := func(g wire.GatewayRequest) {
		payload, err := codec.EncodeGatewayRequest(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() wire.GatewayResponse {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		g, err := codec.DecodeGatewayResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	send(wire.GatewayRequest{ID: 1, Owner: "o", Req: wire.Request{Type: wire.MsgSetup, Seq: 1, Sealed: sealOne(yellow(0, 1))}})
	if r := recv(); r.ID != 1 || !r.Resp.OK {
		t.Fatalf("setup response: %+v", r)
	}
	// Pipelined: durable update immediately followed by a stats read, no
	// read in between. The stats response must come second and must count
	// the update's record.
	send(wire.GatewayRequest{ID: 2, Owner: "o", Req: wire.Request{Type: wire.MsgUpdate, Seq: 2, Sealed: sealOne(yellow(1, 2))}})
	send(wire.GatewayRequest{ID: 3, Owner: "o", Req: wire.Request{Type: wire.MsgStats}})
	first, second := recv(), recv()
	if first.ID != 2 || !first.Resp.OK {
		t.Fatalf("read response overtook the sync ack: first=%+v second=%+v", first, second)
	}
	if second.ID != 3 || second.Resp.Stats == nil {
		t.Fatalf("stats response: %+v", second)
	}
	if second.Resp.Stats.Records != 2 || second.Resp.Stats.Updates != 2 {
		t.Fatalf("stats after commit = %+v, want 2 records / 2 updates", second.Resp.Stats)
	}
}

// TestDurableCrypteBackendRecovery covers the ingress-sealer replay path:
// record-level backends (Cryptε) are rebuilt by re-opening the logged
// ciphertexts through the gateway's ingress boundary. HistoryWindow 1
// forces part of that history through the spill tier, so the recovery
// stream exercises sealed-run decoding *and* the ingress sealer together.
func TestDurableCrypteBackendRecovery(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mk := func() *gateway.Gateway {
		gw, err := gateway.New("127.0.0.1:0", gateway.Config{
			Key: key, StoreDir: dir, SyncEpsilon: 0.5, HistoryWindow: 1,
			NewBackend: func(owner string) (edb.Database, error) {
				return crypte.NewWithKey(key, crypte.WithNoiseSource(dp.NewSeededSource(7)))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = gw.Serve() }()
		return gw
	}
	gw := mk()
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	own := conn.Owner("crypte-owner")
	if err := own.Setup([]record.Record{yellow(0, 60), yellow(0, 61)}); err != nil {
		t.Fatal(err)
	}
	if err := own.Update([]record.Record{yellow(1, 62), record.NewDummy(record.YellowCab)}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}

	gw2 := mk()
	defer gw2.Close()
	conn2, err := client.DialGateway(gw2.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	own2 := conn2.Owner("crypte-owner")
	remote, err := own2.RemoteStats()
	if err != nil {
		t.Fatal(err)
	}
	if remote.Scheme != "Crypteps" || remote.Records != 4 || remote.Updates != 2 {
		t.Fatalf("recovered crypte stats = %+v", remote)
	}
	// The join refusal still crosses the wire after recovery.
	if _, _, err := own2.Query(query.Q3()); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("join on recovered Cryptε backend: err = %v", err)
	}
}
