package gateway_test

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"

	"dpsync/internal/client"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/refdb"
	"dpsync/internal/seal"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// sinkDB is an edb.Database that accepts sealed batches and retains
// nothing — it isolates the *gateway's* per-tenant memory (history tail,
// spill refs, transcript, ledger) from the backend's own storage, which in
// a real deployment lives on the outsourced server, not in gateway RAM.
type sinkDB struct {
	setup   bool
	records int
	updates int
}

func (s *sinkDB) Name() string                { return "Sink" }
func (s *sinkDB) Leakage() edb.LeakageClass   { return edb.L0 }
func (s *sinkDB) Supports(q query.Query) bool { return false }
func (s *sinkDB) SetupSealed(cts []seal.Sealed) error {
	s.setup = true
	s.records += len(cts)
	s.updates++
	return nil
}
func (s *sinkDB) UpdateSealed(cts []seal.Sealed) error {
	if !s.setup {
		return edb.ErrNotSetup
	}
	s.records += len(cts)
	s.updates++
	return nil
}
func (s *sinkDB) Setup(rs []record.Record) error  { return fmt.Errorf("sink: sealed-only") }
func (s *sinkDB) Update(rs []record.Record) error { return fmt.Errorf("sink: sealed-only") }
func (s *sinkDB) Query(q query.Query) (query.Answer, edb.Cost, error) {
	return query.Answer{}, edb.Cost{}, edb.ErrUnsupportedQuery
}
func (s *sinkDB) Stats() edb.StorageStats {
	return edb.StorageStats{Records: s.records, Updates: s.updates}
}

// driveHeap pushes one owner's setup plus n sealed updates (batch(0) is the
// setup's, batch(u) the u-th update's) through a fresh durable gateway built
// from cfg over a raw wire connection and returns the gateway-side heap growth
// between the post-setup and post-drive quiescent points.
func driveHeap(t *testing.T, cfg gateway.Config, updates int, batch func(u int) [][]byte) uint64 {
	t.Helper()
	cfg.Shards, cfg.StoreDir, cfg.SnapshotEvery, cfg.SyncEpsilon = 1, t.TempDir(), 32, 0.25
	gw, err := gateway.New("127.0.0.1:0", cfg)
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
	send := func(id uint64, typ wire.MsgType, sealed [][]byte) {
		payload, err := codec.EncodeGatewayRequest(wire.GatewayRequest{
			ID: id, Owner: "m", Req: wire.Request{Type: typ, Seq: id, Sealed: sealed},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
		raw, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := codec.DecodeGatewayResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != id || !resp.Resp.OK {
			t.Fatalf("request %d: %+v", id, resp)
		}
	}

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	send(1, wire.MsgSetup, batch(0))
	before := heap()
	for u := 1; u <= updates; u++ {
		send(uint64(u+1), wire.MsgUpdate, batch(u))
	}
	after := heap()
	if after <= before {
		return 0
	}
	return after - before
}

// driveSink is driveHeap over the sink backend: one large opaque blob a sync.
func driveSink(t *testing.T, window, updates, blobBytes int) uint64 {
	t.Helper()
	cfg := gateway.Config{
		NewBackend:    func(string) (edb.Database, error) { return &sinkDB{}, nil },
		HistoryWindow: window,
	}
	return driveHeap(t, cfg, updates, func(u int) [][]byte {
		b := make([]byte, blobBytes)
		for i := range b {
			b[i] = byte(u + i)
		}
		return [][]byte{b}
	})
}

// TestGatewayHeapBoundedByHistoryWindow is the memory-bound regression
// test: with a finite history window, gateway heap must stay within a
// constant factor of the window while total ingested bytes grow an order
// of magnitude past it — the property the tiered history store exists for,
// and the tripwire against any future reintroduction of O(total-history)
// state. A run whose window is wider than the syncs it drives is measured
// alongside as the control: no tail reaches twice that window, so nothing
// spills and it MUST retain O(total), which proves the measurement can see
// the regression it guards against.
func TestGatewayHeapBoundedByHistoryWindow(t *testing.T) {
	const (
		window    = 8
		updates   = 160 // 20× the window
		blobBytes = 16 << 10
	)
	totalBytes := uint64(updates) * blobBytes

	unbounded := driveSink(t, updates, updates, blobBytes)
	bounded := driveSink(t, window, updates, blobBytes)

	// The control must hold roughly the whole history in RAM.
	if unbounded < totalBytes/2 {
		t.Fatalf("control run grew only %d bytes for %d ingested — the measurement is blind", unbounded, totalBytes)
	}
	// The windowed run keeps the tail (window × blob) plus bookkeeping
	// (refs, transcript, WAL buffers); give it a generous constant factor
	// of the window — but far below the total, and far below the control.
	budget := uint64(window*blobBytes)*4 + 512<<10
	if bounded > budget {
		t.Fatalf("windowed heap grew %d bytes, budget %d (window %d × %d-byte blobs, %d ingested)",
			bounded, budget, window, blobBytes, totalBytes)
	}
	if bounded > unbounded/4 {
		t.Fatalf("windowed heap (%d) is not clearly below unbounded (%d) for %d ingested bytes",
			bounded, unbounded, totalBytes)
	}
}

// TestDefaultBackendHeapBoundedByHistoryWindow holds the backend that ships —
// a per-owner ObliDB instance under the gateway's key, fed real sealed records
// — to the same promise: with a finite history window, the gateway's RAM for a
// tenant is its aggregates plus the window, not its ingest history. The sink
// above retains nothing by construction, so it cannot see a backend that keeps
// every ciphertext it is handed (a slice header for each pins the request
// payload it arrived in too: 70–100 bytes a record). What
// may grow is the 8-byte join key and 1-byte weight of every record, dummies
// included, with slice-growth slack, and the transcript event of a sync.
func TestDefaultBackendHeapBoundedByHistoryWindow(t *testing.T) {
	const (
		window  = 8
		syncs   = 2500 // 312× the window
		perSync = 8    // the sync-durable workload's batch: one dummy in eight
		budget  = 32   // bytes of heap growth per ingested record
	)
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	grew := driveHeap(t, gateway.Config{Key: key, HistoryWindow: window}, syncs, func(u int) [][]byte {
		sealed := make([][]byte, perSync)
		for i := range sealed {
			r := yellow(u, uint16(1+(u+i)%record.NumLocations))
			if i%2 == 1 {
				r.Provider = record.GreenTaxi
			}
			if i == perSync-1 {
				r = record.NewDummy(record.YellowCab)
			}
			ct, err := sealer.Seal(r)
			if err != nil {
				t.Fatal(err)
			}
			sealed[i] = ct
		}
		return sealed
	})
	records := uint64(syncs * perSync)
	t.Logf("heap grew %d bytes over %d ingested records: %.1f B a record", grew, records, float64(grew)/float64(records))
	if grew > budget*records {
		t.Fatalf("default backend: heap grew %d bytes over %d ingested records (%.1f B a record), budget %d B a record",
			grew, records, float64(grew)/float64(records), budget)
	}
}

// TestInMemoryGatewayKeepsNoHistory pins the in-memory commit: a gateway
// without a store has nothing to rebuild a tenant from, so after a thousand
// syncs the tenant's history tail holds no batch — while its transcript still
// matches the single-owner reference event for event and its ledger carries
// every charge.
func TestInMemoryGatewayKeepsNoHistory(t *testing.T) {
	const (
		owner = "owner-mem"
		syncs = 1000
		eps   = 0.25
	)
	gw, key := startGateway(t, gateway.Config{Shards: 1, SyncEpsilon: eps})
	ref, err := refdb.New(key)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner(owner)
	for i := 0; i < syncs; i++ {
		rs := make([]record.Record, 1+i%3)
		for j := range rs {
			rs[j] = yellow(i, uint16(1+(i+j)%record.NumLocations))
		}
		upload, refUpload := own.Update, ref.Update
		if i == 0 {
			upload, refUpload = own.Setup, ref.Setup
		}
		if err := upload(rs); err != nil {
			t.Fatal(err)
		}
		if err := refUpload(rs); err != nil {
			t.Fatal(err)
		}
	}
	tail := -1
	gw.OwnerCut(0, func(states []store.OwnerState) {
		for _, st := range states {
			if st.Owner == owner {
				tail = len(st.Tail)
			}
		}
	})
	if tail != 0 {
		t.Fatalf("in-memory tenant holds %d batches after %d syncs, want none", tail, syncs)
	}
	if got, want := gw.ObservedPattern(owner), ref.ObservedPattern(); !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("transcript diverged from the reference: %d events against %d", len(got.Events), len(want.Events))
	}
	ledger := gw.ObservedLedger(owner)
	if ledger.Uses("m_setup") != 1 || ledger.Uses("m_update") != syncs-1 || ledger.Spent() != syncs*eps {
		t.Fatalf("ledger after %d syncs at ε=%v:\n%s", syncs, eps, ledger.Describe())
	}
}

// TestDurableDefaultWindowBoundsTheTail: a durable gateway whose config sets
// no window bounds every tenant's RAM tail all the same — the store's
// default window is the one the live commit enforces — and spills the rest
// to history segments. A restart over the same directory recovers the
// transcript and ledger the single-owner reference gives.
func TestDurableDefaultWindowBoundsTheTail(t *testing.T) {
	const (
		owner = "owner-tail"
		syncs = 120
		eps   = 0.25
	)
	reg := telemetry.New()
	cfg := gateway.Config{Shards: 1, StoreDir: t.TempDir(), SyncEpsilon: eps, Telemetry: reg}
	gw, key := startGateway(t, cfg)
	ref, err := refdb.New(key)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner(owner)
	for i := 0; i < syncs; i++ {
		rs := []record.Record{yellow(i, uint16(1+i%record.NumLocations))}
		upload, refUpload := own.Update, ref.Update
		if i == 0 {
			upload, refUpload = own.Setup, ref.Setup
		}
		if err := upload(rs); err != nil {
			t.Fatal(err)
		}
		if err := refUpload(rs); err != nil {
			t.Fatal(err)
		}
	}
	tail := -1
	gw.OwnerCut(0, func(states []store.OwnerState) {
		for _, st := range states {
			if st.Owner == owner {
				tail = len(st.Tail)
			}
		}
	})
	if tail < 0 || tail >= 2*store.DefaultHistoryWindow {
		t.Fatalf("tenant holds %d batches in RAM after %d syncs, want under twice the default window %d",
			tail, syncs, store.DefaultHistoryWindow)
	}
	spilled := -1.0
	for _, sm := range reg.Snapshot() {
		if sm.Name == "store_spill_batches_total" {
			spilled = sm.Value
		}
	}
	if spilled <= 0 {
		t.Fatalf("store_spill_batches_total = %v after %d syncs, want some", spilled, syncs)
	}
	conn.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Key, cfg.Telemetry = key, nil
	gw2, _ := startGateway(t, cfg)
	if got, want := gw2.ObservedPattern(owner), ref.ObservedPattern(); !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("recovered transcript diverged from the reference: %d events against %d", len(got.Events), len(want.Events))
	}
	ledger := gw2.ObservedLedger(owner)
	if ledger.Uses("m_setup") != 1 || ledger.Uses("m_update") != syncs-1 || ledger.Spent() != syncs*eps {
		t.Fatalf("recovered ledger after %d syncs at ε=%v:\n%s", syncs, eps, ledger.Describe())
	}
}
