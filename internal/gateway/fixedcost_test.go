package gateway_test

import (
	"fmt"
	"runtime"
	"testing"

	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/seal"
	"dpsync/internal/wire"
)

// newTenants is a node's tenant environment over the default backend: one
// ObliDB instance per owner, every enclave opening with the node's sealer.
func newTenants(tb testing.TB, cfg gateway.Config) *gateway.Tenants {
	tb.Helper()
	if cfg.Key == nil {
		key, err := seal.NewRandomKey()
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Key = key
	}
	ts, err := gateway.NewTenants(cfg, gateway.CacheMetrics{})
	if err != nil {
		tb.Fatal(err)
	}
	return ts
}

// fixedCost reports what one call of f allocates on average: heap objects
// (testing.AllocsPerRun) and heap bytes (TotalAlloc over as many runs, at
// GOMAXPROCS 1 like AllocsPerRun so no other goroutine's allocations count).
func fixedCost(f func()) (allocs, bytes float64) {
	const runs = 1000
	allocs = testing.AllocsPerRun(runs, f)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestTenantFixedCost pins what a tenant costs before it holds any data — the
// cost every owner's Setup pays and a node's fleet size is a multiple of: a
// new tenant over the default backend, and the stats probe a client sends
// before its owner exists, each allocate at most 1 KiB in at most 10 heap
// objects. The node's sealer (AES key schedule and GCM tables) and the cost
// model are shared, and the answer cache allocates nothing until its first
// Put; before that a tenant cost 5,808 B in 19 objects.
func TestTenantFixedCost(t *testing.T) {
	const maxAllocs, maxBytes = 10, 1024
	ts := newTenants(t, gateway.Config{})
	var sink any
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Tenants.New", func() {
			tn, err := ts.New("owner-000001")
			if err != nil {
				t.Fatal(err)
			}
			sink = tn
		}},
		{"StatsProbe", func() { sink = ts.StatsProbe("nobody") }},
	} {
		allocs, bytes := fixedCost(c.f)
		t.Logf("%s: %.1f allocations, %.0f B", c.name, allocs, bytes)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("%s allocates %.1f objects, %.0f B; want at most %d and %d B", c.name, allocs, bytes, maxAllocs, maxBytes)
		}
	}
	_ = sink
}

// BenchmarkTenantNew is one tenant's fixed cost: Tenants.New over the
// default backend, reported in ns, B and allocations an owner.
func BenchmarkTenantNew(b *testing.B) {
	ts := newTenants(b, gateway.Config{})
	owners := make([]string, 1024)
	for i := range owners {
		owners[i] = fmt.Sprintf("owner-%06d", i)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := ts.New(owners[i%len(owners)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServedTenantHeapFlatOverQueries pins that answering queries costs a
// tenant no RAM that lasts: 10,000 queries through Tenant.Read with the answer
// cache off, so every one reaches the enclave, leave the heap where the first
// few hundred left it. The enclave keeps nothing per query; an access log of
// scan extents once grew 8 B a query.
func TestServedTenantHeapFlatOverQueries(t *testing.T) {
	const queries = 10_000
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTenants(t, gateway.Config{Key: key, QueryCache: -1})
	tn, err := ts.New("owner-q")
	if err != nil {
		t.Fatal(err)
	}
	var setup [][]byte
	for i := 0; i < 16; i++ {
		ct, err := sealer.Seal(yellow(i, uint16(1+i)))
		if err != nil {
			t.Fatal(err)
		}
		setup = append(setup, ct)
	}
	if err := tn.Ingest(true, setup); err != nil {
		t.Fatal(err)
	}
	specs := []wire.QuerySpec{wire.FromQuery(query.Q1()), wire.FromQuery(query.Q2()), wire.FromQuery(query.Q3()), wire.FromQuery(query.Q4())}
	read := func(n int) {
		for i := 0; i < n; i++ {
			spec := specs[i%len(specs)]
			if resp := tn.Read(wire.Request{Type: wire.MsgQuery, Query: &spec}); !resp.OK {
				t.Fatalf("query %d refused: %+v", i, resp.Refusal)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	read(512)
	before := heap()
	read(queries)
	after := heap()
	grew := int64(after) - int64(before)
	t.Logf("heap grew %d B over %d queries", grew, queries)
	// 8 B a query would be 80 KB; a few KiB is the runtime's own noise.
	if grew > 16<<10 {
		t.Fatalf("heap grew %d B over %d queries: a served tenant's RAM grows with the queries it answers", grew, queries)
	}
	runtime.KeepAlive(tn)
}
