package gateway_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/core"
	"dpsync/internal/crypte"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/oblidb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/refdb"
	"dpsync/internal/seal"
	"dpsync/internal/strategy"
	"dpsync/internal/wire"
)

func startGateway(t testing.TB, cfg gateway.Config) (*gateway.Gateway, []byte) {
	t.Helper()
	key := cfg.Key
	if key == nil {
		var err error
		key, err = seal.NewRandomKey()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Key = key
	}
	gw, err := gateway.New("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	t.Cleanup(func() { _ = gw.Close() })
	return gw, key
}

func yellow(tick int, id uint16) record.Record {
	return record.Record{PickupTime: record.Tick(tick), PickupID: id, Provider: record.YellowCab}
}

func TestGatewayEndToEnd(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-1")
	if err := own.Setup([]record.Record{yellow(0, 60), yellow(0, 70)}); err != nil {
		t.Fatal(err)
	}
	if err := own.Update([]record.Record{yellow(1, 80), record.NewDummy(record.YellowCab)}); err != nil {
		t.Fatal(err)
	}
	ans, cost, err := own.Query(query.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Scalar != 3 {
		t.Errorf("Q1 = %v, want 3", ans.Scalar)
	}
	if cost.RecordsScanned != 4 {
		t.Errorf("scanned = %d, want full store", cost.RecordsScanned)
	}
	// Owner-side stats know the split; the gateway's view cannot.
	if st := own.Stats(); st.RealRecords != 3 || st.DummyRecords != 1 || st.Bytes != 4*1024 || st.Updates != 2 {
		t.Errorf("owner stats = %+v", st)
	}
	remote, err := own.RemoteStats()
	if err != nil {
		t.Fatal(err)
	}
	if remote.Records != 4 {
		t.Errorf("remote stats = %+v", remote)
	}
	if own.Name() != "ObliDB-gateway" || own.Leakage() != edb.L0 {
		t.Errorf("identity = %q/%v", own.Name(), own.Leakage())
	}
	pat := gw.ObservedPattern("owner-1")
	if pat.Updates() != 2 || pat.Events[1].Volume != 2 {
		t.Errorf("observed pattern = %s", pat.String())
	}
}

// TestTranscriptDifferential is the acceptance-criteria differential test:
// for the same owner trace, the transcript each gateway tenant accumulates
// must be bit-identical to the transcript the in-process single-owner
// reference (internal/refdb) observes — multi-tenancy must add nothing to
// and remove nothing from the per-owner leakage.
func TestTranscriptDifferential(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}

	// Three owners with different strategies and seeds, 400 ticks each.
	type ownerSpec struct {
		name string
		mk   func() strategy.Strategy
	}
	specs := []ownerSpec{
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
	const ticks = 400

	drive := func(t *testing.T, db edb.Database, strat strategy.Strategy, seed int) *core.Owner {
		t.Helper()
		owner, err := core.New(core.Config{Strategy: strat, Database: db})
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Setup([]record.Record{yellow(0, 10), yellow(0, 20)}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= ticks; i++ {
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
		return owner
	}

	// Reference: each owner alone against the single-owner reference.
	wantPatterns := map[string]string{}
	for i, spec := range specs {
		ref, err := refdb.New(key)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, ref, spec.mk(), i)
		wantPatterns[spec.name] = ref.ObservedPattern().String()
	}

	// Same traces through one shared gateway over one multiplexed
	// connection, interleaved tick-by-tick so the tenants' request streams
	// genuinely mix on the wire.
	gw, _ := startGateway(t, gateway.Config{Key: key, Shards: 2})
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	owners := make([]*core.Owner, len(specs))
	for i, spec := range specs {
		owner, err := core.New(core.Config{Strategy: spec.mk(), Database: conn.Owner(spec.name)})
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Setup([]record.Record{yellow(0, 10), yellow(0, 20)}); err != nil {
			t.Fatal(err)
		}
		owners[i] = owner
	}
	for i := 1; i <= ticks; i++ {
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

	for i, spec := range specs {
		got := gw.ObservedPattern(spec.name)
		if got.String() != wantPatterns[spec.name] {
			t.Errorf("%s transcript diverged:\n gateway: %s\n  single: %s",
				spec.name, got.String(), wantPatterns[spec.name])
		}
		// And the gateway transcript carries the owner's full upload-volume
		// sequence (the server indexes events by update sequence, not by
		// owner tick — it has no tick source; same as the reference).
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

func TestGatewayCrypteBackend(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	gw, _ := startGateway(t, gateway.Config{
		Key: key,
		NewBackend: func(owner string) (edb.Database, error) {
			// Deterministic noise so the test can reason about answers.
			return crypte.NewWithKey(key, crypte.WithNoiseSource(dp.NewSeededSource(7)))
		},
	})
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("crypte-owner")
	if own.Name() != "Crypteps-gateway" || own.Leakage() != edb.LDP {
		t.Fatalf("identity = %q/%v", own.Name(), own.Leakage())
	}
	if err := edb.CheckCompatibility(own); err != nil {
		t.Fatalf("L-DP backend must pass the §6 gate: %v", err)
	}
	if err := own.Setup([]record.Record{yellow(0, 60), yellow(0, 61)}); err != nil {
		t.Fatal(err)
	}
	if err := own.Update([]record.Record{yellow(1, 62), record.NewDummy(record.YellowCab)}); err != nil {
		t.Fatal(err)
	}
	ans, _, err := own.Query(query.Q1())
	if err != nil {
		t.Fatal(err)
	}
	// Three real records in range plus Lap(1/3) noise: must be near 3.
	if ans.Scalar < 0 || ans.Scalar > 10 {
		t.Errorf("noisy Q1 = %v, implausible", ans.Scalar)
	}
	// Cryptε has no join operator; the refusal must cross the wire.
	if _, _, err := own.Query(query.Q3()); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("join on Cryptε backend: err = %v", err)
	}
	// Storage accounting uses the Cryptε encoding width.
	if st := own.Stats(); st.Bytes != 4*6400 {
		t.Errorf("owner bytes = %d, want 4 encodings", st.Bytes)
	}
	if remote, err := own.RemoteStats(); err != nil || remote.Records != 4 {
		t.Errorf("remote = %+v, %v", remote, err)
	}
}

// TestServedCrypteCountsNoDummies: a served Cryptε tenant is handed its
// owner's batches sealed and opens them itself, so, as at ObliDB's enclave
// boundary, its server-side stats count every sealed record as a record and
// none as a dummy — the real/dummy split stays the owner's.
func TestServedCrypteCountsNoDummies(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var built []*crypte.DB // the tenant's backend and the node's identity
	gw, _ := startGateway(t, gateway.Config{
		Key: key,
		NewBackend: func(string) (edb.Database, error) {
			db, err := crypte.NewWithKey(key)
			mu.Lock()
			built = append(built, db)
			mu.Unlock()
			return db, err
		},
	})
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("crypte-owner")
	if err := own.Setup([]record.Record{yellow(0, 60), yellow(0, 61)}); err != nil {
		t.Fatal(err)
	}
	if err := own.Update([]record.Record{yellow(1, 62), record.NewDummy(record.YellowCab)}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	records := 0
	for _, db := range built {
		st := db.Stats()
		if st.DummyRecords != 0 {
			t.Errorf("served Cryptε stats = %+v: the server counted dummies it cannot tell apart", st)
		}
		records += st.Records
	}
	if records != 4 {
		t.Errorf("served Cryptε backends hold %d records, want the 4 sealed", records)
	}
}

// recordLevel hides its database's sealed ingest: a backend that takes
// records only, which the gateway would have to open a batch to feed.
type recordLevel struct{ edb.Database }

// TestBackendWithoutSealedIngestRefused: a NewBackend whose database cannot
// ingest a sealed batch is refused at the namespace's first sync, as failed,
// before any tenant state exists — no namespace is allocated.
func TestBackendWithoutSealedIngestRefused(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	gw, _ := startGateway(t, gateway.Config{
		Key: key,
		NewBackend: func(string) (edb.Database, error) {
			db, err := crypte.NewWithKey(key)
			return recordLevel{db}, err
		},
	})
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	before := gw.Owners()
	err = conn.Owner("owner-plain").Setup([]record.Record{yellow(0, 60)})
	if !errors.Is(err, wire.ErrFailed) || !strings.Contains(err.Error(), "no sealed ingest") {
		t.Fatalf("setup over a record-level backend: %v, want the failed refusal", err)
	}
	if got := gw.Owners(); got != before {
		t.Fatalf("owners = %d after the refused setup, want %d", got, before)
	}
	if gw.Refused(wire.CodeFailed) == 0 {
		t.Fatal("the refusal was not counted as failed")
	}
}

func TestGatewayOwnerIsolation(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{Shards: 3})
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	a, b := conn.Owner("owner-a"), conn.Owner("owner-b")
	if err := a.Setup([]record.Record{yellow(0, 60)}); err != nil {
		t.Fatal(err)
	}
	// owner-b has its own namespace: no setup yet, so updates are refused
	// even though owner-a is set up.
	if err := b.Update([]record.Record{yellow(1, 61)}); err == nil || !strings.Contains(err.Error(), "not set up") {
		t.Errorf("owner-b update before setup: err = %v", err)
	}
	if err := b.Setup([]record.Record{yellow(0, 70), yellow(0, 71), yellow(0, 72)}); err != nil {
		t.Fatal(err)
	}
	// Queries see only the namespace's own records.
	ansA, _, err := a.Query(query.Q2())
	if err != nil {
		t.Fatal(err)
	}
	ansB, _, err := b.Query(query.Q2())
	if err != nil {
		t.Fatal(err)
	}
	if ansA.Total() != 1 || ansB.Total() != 3 {
		t.Errorf("cross-tenant bleed: a=%v b=%v", ansA.Total(), ansB.Total())
	}
	// Transcripts are per-owner; the refused pre-setup update was never
	// observed (it mirrors the single-owner reference: observe after success).
	pa, pb := gw.ObservedPattern("owner-a"), gw.ObservedPattern("owner-b")
	if pa.Updates() != 1 || pa.Events[0].Volume != 1 {
		t.Errorf("owner-a pattern: %s", pa.String())
	}
	if pb.Updates() != 1 || pb.Events[0].Volume != 3 {
		t.Errorf("owner-b pattern: %s", pb.String())
	}
	if gw.Owners() != 2 {
		t.Errorf("owners = %d", gw.Owners())
	}
	// Unknown owners have empty transcripts (and peeking creates nothing).
	if p := gw.ObservedPattern("owner-never"); p.Updates() != 0 {
		t.Errorf("ghost transcript: %s", p.String())
	}
	if gw.Owners() != 2 {
		t.Errorf("peek created a tenant: owners = %d", gw.Owners())
	}
}

func TestGatewayWrongKeyRejected(t *testing.T) {
	gw, _ := startGateway(t, gateway.Config{})
	otherKey, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.DialGateway(gw.Addr(), otherKey)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Owner("intruder").Setup([]record.Record{yellow(0, 60)}); err == nil {
		t.Error("enclave admitted ciphertexts sealed under the wrong key")
	}
}

func TestGatewayManyOwnersConcurrent(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{Shards: 4})
	const (
		conns         = 4
		ownersPerConn = 16
		updates       = 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, conns*ownersPerConn)
	for ci := 0; ci < conns; ci++ {
		conn, err := client.DialGateway(gw.Addr(), key)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for oi := 0; oi < ownersPerConn; oi++ {
			wg.Add(1)
			go func(conn *client.GatewayConn, ci, oi int) {
				defer wg.Done()
				own := conn.Owner(fmt.Sprintf("owner-%d-%d", ci, oi))
				if err := own.Setup(nil); err != nil {
					errs <- err
					return
				}
				for u := 1; u <= updates; u++ {
					if err := own.Update([]record.Record{yellow(u, uint16(u))}); err != nil {
						errs <- err
						return
					}
				}
				ans, _, err := own.Query(query.Q2())
				if err != nil {
					errs <- err
					return
				}
				if ans.Total() != updates {
					errs <- fmt.Errorf("owner %d-%d: Q2 total = %v, want %d", ci, oi, ans.Total(), updates)
				}
			}(conn, ci, oi)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if gw.Owners() != conns*ownersPerConn {
		t.Errorf("owners = %d, want %d", gw.Owners(), conns*ownersPerConn)
	}
	// Every owner's transcript has exactly setup + updates events.
	for ci := 0; ci < conns; ci++ {
		for oi := 0; oi < ownersPerConn; oi++ {
			if p := gw.ObservedPattern(fmt.Sprintf("owner-%d-%d", ci, oi)); p.Updates() != updates+1 {
				t.Errorf("owner-%d-%d transcript: %d events", ci, oi, p.Updates())
			}
		}
	}
}

// TestReadOnlyRequestsAllocateNoNamespace pins the hostile-allocation
// bound: stats requests, queries and updates against never-setup owners are
// refused not-setup, as an un-setup store would refuse them, and neither
// materialize tenant state nor build a backend — the node built its one
// identity backend at start, and the hello ack already told the client what
// it states.
func TestReadOnlyRequestsAllocateNoNamespace(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	var built atomic.Int64
	gw, _ := startGateway(t, gateway.Config{Key: key, NewBackend: func(string) (edb.Database, error) {
		built.Add(1)
		return oblidb.NewWithKey(key)
	}})
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if n := built.Load(); n != 1 {
		t.Fatalf("%d backends built at start, want the identity's one", n)
	}
	for i := 0; i < 50; i++ {
		own := conn.Owner(fmt.Sprintf("probe-%d", i))
		if st, err := own.RemoteStats(); !errors.Is(err, edb.ErrNotSetup) {
			t.Fatalf("stats on unknown owner: %+v, %v; want not-setup", st, err)
		}
		if _, _, err := own.Query(query.Q1()); !errors.Is(err, edb.ErrNotSetup) {
			t.Fatalf("query on unknown owner: err = %v", err)
		}
		if err := own.Update([]record.Record{yellow(1, 1)}); !errors.Is(err, edb.ErrNotSetup) {
			t.Fatalf("update on unknown owner: err = %v", err)
		}
	}
	if gw.Owners() != 0 || built.Load() != 1 {
		t.Fatalf("read-only requests allocated %d namespaces and built %d backends", gw.Owners(), built.Load()-1)
	}
	// Setup still creates exactly one.
	if err := conn.Owner("probe-0").Setup(nil); err != nil {
		t.Fatal(err)
	}
	if gw.Owners() != 1 {
		t.Fatalf("owners = %d after one setup", gw.Owners())
	}
}

// TestObservedPatternDuringClose pins that a transcript read racing Close
// returns (empty or complete) instead of deadlocking.
func TestObservedPatternDuringClose(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New("127.0.0.1:0", gateway.Config{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = gw.ObservedPattern(fmt.Sprintf("racer-%d", i))
			}
		}(i)
	}
	_ = gw.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ObservedPattern deadlocked against Close")
	}
}

func TestGatewayRejectsBadHello(t *testing.T) {
	gw, _ := startGateway(t, gateway.Config{ReadTimeout: 200 * time.Millisecond})
	conn, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("gateway acked a non-protocol hello")
	}
}

// TestGatewayAcksUnknownCodecWithBinary pins the hello contract: whatever
// codec byte a valid hello proposes — an unassigned one, or a retired
// codec's — the ack names the one codec this build speaks, 10, and the
// node's backend: a peer still on codec 9 learns at the hello that its
// frames would not parse.
func TestGatewayAcksUnknownCodecWithBinary(t *testing.T) {
	gw, _ := startGateway(t, gateway.Config{})
	for _, proposed := range []wire.Codec{99, 9, 8, 7, 6, 5, 4, 2, 1} { // 9 to 1: the retired codecs
		conn, err := net.Dial("tcp", gw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wire.WriteHello(conn, proposed); err != nil {
			t.Fatal(err)
		}
		var ack [1]byte
		if _, err := io.ReadFull(conn, ack[:]); err != nil || ack[0] != 10 {
			t.Errorf("proposed %d: ack's codec = %d (%v), want 10", byte(proposed), ack[0], err)
		}
		got, err := wire.ReadHelloAck(io.MultiReader(bytes.NewReader(ack[:]), conn))
		if want := (wire.Backend{Scheme: "ObliDB", Leakage: edb.L0}); err != nil || got != want {
			t.Errorf("proposed %d: ack = %v (%v), want %v", byte(proposed), got, err, want)
		}
	}
}

func TestGatewayMissingOwnerRejected(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// An empty owner id cannot name a namespace, and no frame can carry one:
	// the encoder refuses it before a byte goes out.
	out0 := conn.BytesOut()
	if err := conn.Owner("").Setup(nil); err == nil {
		t.Error("empty owner: set up")
	}
	if out := conn.BytesOut() - out0; out != 0 || gw.Owners() != 0 {
		t.Errorf("empty owner: %d bytes sent, %d owners on the gateway; want none", out, gw.Owners())
	}
}

// TestOwnerLimitRefusesTheNextNamespace pins Config.MaxOwners, the bound on
// hostile namespace creation: at the limit a new owner's setup is refused
// failed, naming the limit; the established owners keep syncing; and a stats
// request for an owner that does not exist is refused not-setup without
// creating its namespace.
func TestOwnerLimitRefusesTheNextNamespace(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{MaxOwners: 2})
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	a, b := conn.Owner("owner-a"), conn.Owner("owner-b")
	for _, o := range []*client.OwnerSession{a, b} {
		if err := o.Setup([]record.Record{yellow(0, 60)}); err != nil {
			t.Fatal(err)
		}
	}
	err = conn.Owner("owner-c").Setup([]record.Record{yellow(0, 60)})
	if !errors.Is(err, wire.ErrFailed) || !strings.Contains(err.Error(), "owner limit 2") {
		t.Fatalf("third owner's setup: %v, want a failed refusal naming the limit", err)
	}
	if n := gw.Owners(); n != 2 {
		t.Fatalf("%d owners after a refused setup, want 2", n)
	}
	for i, o := range []*client.OwnerSession{a, b} {
		if err := o.Update([]record.Record{yellow(1, 70)}); err != nil {
			t.Fatalf("owner %d at the limit: %v", i, err)
		}
	}
	for _, owner := range []string{"owner-c", "nobody"} {
		if st, err := conn.Owner(owner).RemoteStats(); !errors.Is(err, edb.ErrNotSetup) {
			t.Fatalf("stats for %s: %+v, %v; want not-setup", owner, st, err)
		}
	}
	if n := gw.Owners(); n != 2 {
		t.Fatalf("%d owners after stats requests, want 2", n)
	}
}

func TestGatewayHalfOpenConnectionReleased(t *testing.T) {
	gw, _ := startGateway(t, gateway.Config{ReadTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid hello, then a partial frame header and silence.
	if err := wire.WriteHello(conn, wire.CodecBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHelloAck(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1)
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, _ = conn.Read(buf)
	}()
	select {
	case <-done:
	case <-time.After(6 * time.Second):
		t.Fatal("gateway kept the half-open connection")
	}
}
