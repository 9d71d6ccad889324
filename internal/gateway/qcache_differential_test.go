package gateway_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"dpsync/internal/client"
	"dpsync/internal/crypte"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
)

// answerFingerprint renders a query result to an exact byte string: IEEE
// bits of every answer component plus the deterministic cost counters.
// Cost.Seconds is deliberately excluded — it is wall-clock, the one field
// two evaluations of the same query legitimately disagree on.
func answerFingerprint(ans query.Answer, cost edb.Cost) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%016x", math.Float64bits(ans.Scalar))
	for _, g := range ans.Groups {
		fmt.Fprintf(&sb, ",%016x", math.Float64bits(g))
	}
	fmt.Fprintf(&sb, "|scan=%d|pairs=%d", cost.RecordsScanned, cost.PairsCompared)
	return sb.String()
}

// TestQueryCacheDifferential is the noise-reuse answer cache's correctness
// pin: for every query kind, an answer served from the cache must be
// byte-identical to the answer an uncached gateway recomputes from the same
// trace, a committed sync must invalidate (the next answer reflects the new
// state, again byte-identical to the uncached recompute), and a pile of
// cache hits must spend exactly zero ε — the released answer is
// post-processing, so re-serving it never touches the ledger.
func TestQueryCacheDifferential(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	// Two gateways, identical but for the cache: QueryCache 0 is the default
	// capacity, -1 disables caching entirely — the reference recomputes every
	// answer from the backend.
	cached, _ := startGateway(t, gateway.Config{Key: key, SyncEpsilon: 0.5, Telemetry: telemetry.New()})
	ref, _ := startGateway(t, gateway.Config{Key: key, SyncEpsilon: 0.5, QueryCache: -1})

	const owner = "owner-qc"
	dial := func(gw *gateway.Gateway) *client.OwnerSession {
		conn, err := client.DialGateway(gw.Addr(), key)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn.Owner(owner)
	}
	cOwn, rOwn := dial(cached), dial(ref)

	trace := [][]record.Record{
		{yellow(0, 60), yellow(0, 70), yellow(0, 80)},
		{yellow(1, 55), record.NewDummy(record.YellowCab)},
		{yellow(2, 90), yellow(2, 95)},
	}
	for _, own := range []*client.OwnerSession{cOwn, rOwn} {
		if err := own.Setup(trace[0]); err != nil {
			t.Fatal(err)
		}
		for _, batch := range trace[1:] {
			if err := own.Update(batch); err != nil {
				t.Fatal(err)
			}
		}
	}

	kinds := []struct {
		name string
		q    query.Query
	}{{"Q1", query.Q1()}, {"Q2", query.Q2()}, {"Q3", query.Q3()}, {"Q4", query.Q4()}}

	ledgerBefore := cached.ObservedLedger(owner)
	statsBefore := cached.QueryCacheStats()
	for _, k := range kinds {
		refAns, refCost, err := rOwn.Query(k.q)
		if err != nil {
			t.Fatalf("%s reference: %v", k.name, err)
		}
		want := answerFingerprint(refAns, refCost)
		// First evaluation populates the cache; the repeats must come back
		// byte-identical — same noise, same bytes, no fresh evaluation.
		for rep := 0; rep < 3; rep++ {
			ans, cost, err := cOwn.Query(k.q)
			if err != nil {
				t.Fatalf("%s cached rep %d: %v", k.name, rep, err)
			}
			if got := answerFingerprint(ans, cost); got != want {
				t.Fatalf("%s rep %d diverged from uncached recompute:\n got: %s\nwant: %s", k.name, rep, got, want)
			}
		}
	}
	stats := cached.QueryCacheStats()
	if misses := stats.Misses - statsBefore.Misses; misses != int64(len(kinds)) {
		t.Errorf("misses = %d, want %d (one per kind)", misses, len(kinds))
	}
	if hits := stats.Hits - statsBefore.Hits; hits != int64(2*len(kinds)) {
		t.Errorf("hits = %d, want %d (two repeats per kind)", hits, 2*len(kinds))
	}
	// Zero-spend proof: the ε ledger after 8 cache hits is bit-identical to
	// the ledger before any query ran — reads, cached or not, charge nothing.
	if ledgerAfter := cached.ObservedLedger(owner); !ledgerAfter.Equal(ledgerBefore) {
		t.Fatalf("ledger moved across cached reads:\n before: %s\n after:  %s", ledgerBefore.Describe(), ledgerAfter.Describe())
	}

	// A committed sync invalidates: both gateways ingest one more batch, and
	// every kind must recompute to the new state — byte-identical to the
	// uncached reference again, never the stale pre-sync answer.
	grow := []record.Record{yellow(3, 65), yellow(3, 75)}
	if err := cOwn.Update(grow); err != nil {
		t.Fatal(err)
	}
	if err := rOwn.Update(grow); err != nil {
		t.Fatal(err)
	}
	if inv := cached.QueryCacheStats().Invalidations; inv == 0 {
		t.Error("committed sync invalidated nothing")
	}
	for _, k := range kinds {
		refAns, refCost, err := rOwn.Query(k.q)
		if err != nil {
			t.Fatal(err)
		}
		ans, cost, err := cOwn.Query(k.q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := answerFingerprint(ans, cost), answerFingerprint(refAns, refCost); got != want {
			t.Fatalf("%s after invalidating sync:\n got: %s\nwant: %s", k.name, got, want)
		}
	}
	if misses := cached.QueryCacheStats().Misses - stats.Misses; misses != int64(len(kinds)) {
		t.Errorf("post-sync misses = %d, want %d (cache must not survive the commit)", misses, len(kinds))
	}
}

// TestQueryCacheDifferentialRealAHE runs the same pin through the
// true-crypto Cryptε mode: answers carry genuine Paillier decryptions plus
// per-evaluation DP noise. The seeded noise sources advance in lockstep
// across the two gateways as long as each backend evaluates the same query
// sequence once — which is exactly what the cache guarantees: repeats are
// served from released bytes, drawing no further noise. A divergence here
// means the cache let a repeat re-evaluate (burning a noise draw) or
// corrupted the stored answer.
func TestQueryCacheDifferentialRealAHE(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	newBackend := func(t *testing.T) (func(string) (edb.Database, error), func()) {
		pipe, err := crypte.NewAHEPipeline(256)
		if err != nil {
			t.Fatal(err)
		}
		return func(string) (edb.Database, error) {
			return crypte.NewWithKey(key,
				crypte.WithRealAHE(pipe),
				crypte.WithNoiseSource(dp.NewSeededSource(23)))
		}, func() { pipe.Close() }
	}
	mkCached, closeCached := newBackend(t)
	defer closeCached()
	mkRef, closeRef := newBackend(t)
	defer closeRef()
	cached, _ := startGateway(t, gateway.Config{Key: key, NewBackend: mkCached, Telemetry: telemetry.New()})
	ref, _ := startGateway(t, gateway.Config{Key: key, NewBackend: mkRef, QueryCache: -1})

	dial := func(gw *gateway.Gateway) *client.OwnerSession {
		conn, err := client.DialGateway(gw.Addr(), key)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn.Owner("owner-ahe")
	}
	cOwn, rOwn := dial(cached), dial(ref)
	for _, own := range []*client.OwnerSession{cOwn, rOwn} {
		if err := own.Setup([]record.Record{yellow(0, 55), yellow(0, 60)}); err != nil {
			t.Fatal(err)
		}
		if err := own.Update([]record.Record{yellow(1, 62), record.NewDummy(record.YellowCab)}); err != nil {
			t.Fatal(err)
		}
	}
	// Cryptε supports the three linear kinds (no oblivious join). Evaluate
	// in identical order on both; each cached kind twice more — the repeats
	// must re-serve the identical noised bytes.
	for _, k := range []struct {
		name string
		q    query.Query
	}{{"Q1", query.Q1()}, {"Q2", query.Q2()}, {"Q4", query.Q4()}} {
		refAns, refCost, err := rOwn.Query(k.q)
		if err != nil {
			t.Fatalf("%s reference: %v", k.name, err)
		}
		want := answerFingerprint(refAns, refCost)
		for rep := 0; rep < 3; rep++ {
			ans, cost, err := cOwn.Query(k.q)
			if err != nil {
				t.Fatalf("%s cached rep %d: %v", k.name, rep, err)
			}
			if got := answerFingerprint(ans, cost); got != want {
				t.Fatalf("%s rep %d: noise not reused (or reused wrongly):\n got: %s\nwant: %s", k.name, rep, got, want)
			}
		}
	}
	if st := cached.QueryCacheStats(); st.Hits != 6 || st.Misses != 3 {
		t.Errorf("cache stats = %+v, want 6 hits / 3 misses", st)
	}
}

// TestQueryCacheConcurrentReadsAndSyncs drives concurrent queries against
// concurrent committed syncs on one tenant — under -race this pins the
// cache's locking, and the final recompute must agree with an uncached
// reference fed the same trace.
func TestQueryCacheConcurrentReadsAndSyncs(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := startGateway(t, gateway.Config{Key: key, Shards: 2})
	ref, _ := startGateway(t, gateway.Config{Key: key, Shards: 2, QueryCache: -1})
	conn, err := client.DialGateway(cached.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-hot")
	if err := own.Setup([]record.Record{yellow(0, 42)}); err != nil {
		t.Fatal(err)
	}

	const updates = 24
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= updates; i++ {
			if err := own.Update([]record.Record{yellow(i, uint16(i%record.NumLocations+1))}); err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qs := []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}
			for i := 0; i < 40; i++ {
				if _, _, err := own.Query(qs[(i+w)%len(qs)]); err != nil {
					errs <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Settled state: replay the same trace uncached and compare the final
	// answers byte-for-byte.
	rconn, err := client.DialGateway(ref.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer rconn.Close()
	rOwn := rconn.Owner("owner-hot")
	if err := rOwn.Setup([]record.Record{yellow(0, 42)}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= updates; i++ {
		if err := rOwn.Update([]record.Record{yellow(i, uint16(i%record.NumLocations+1))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()} {
		ans, cost, err := own.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		refAns, refCost, err := rOwn.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := answerFingerprint(ans, cost), answerFingerprint(refAns, refCost); got != want {
			t.Fatalf("settled %v diverged:\n got: %s\nwant: %s", q.Kind, got, want)
		}
	}
}
