package gateway_test

import (
	"testing"

	"dpsync/internal/client"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
)

// TestQueryCacheDiscardedByCrash pins the cache's recovery contract: the
// answer cache is RAM-only, so a crash — including one landing between a
// sync's backend apply and its WAL commit, which the racing in-flight
// update below aims at — must leave the reopened gateway answering from a
// cold cache, recomputing every answer from exactly the committed prefix.
// No pre-crash cached answer may survive the reopen (a cached answer from
// an uncommitted apply would leak state the durable log never accepted),
// and the recomputed answers must be byte-identical to an uncached
// reference gateway fed the same committed batches. Repeat queries after
// recovery hit the fresh cache and, as always, spend zero ε.
func TestQueryCacheDiscardedByCrash(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gw, err := gateway.New("127.0.0.1:0", gateway.Config{
		Key: key, StoreDir: dir, SyncEpsilon: 0.5, Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const owner = "owner-crash"
	own := conn.Owner(owner)

	batches := [][]record.Record{
		{yellow(0, 60), yellow(0, 70)},
		{yellow(1, 55), yellow(1, 90)},
	}
	if err := own.Setup(batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := own.Update(batches[1]); err != nil {
		t.Fatal(err)
	}
	kinds := []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}
	// Populate and hit the cache pre-crash.
	for _, q := range kinds {
		for rep := 0; rep < 2; rep++ {
			if _, _, err := own.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := gw.QueryCacheStats(); st.Hits == 0 {
		t.Fatalf("pre-crash cache never engaged: %+v", st)
	}

	// Race an update against the kill: the crash may land anywhere in the
	// sync pipeline, including after the backend applied the batch but
	// before the WAL committed it. Whether this batch survives is decided
	// by the durable log alone — the reopened gateway's transcript tells us
	// which prefix committed.
	racing := []record.Record{yellow(2, 65)}
	updDone := make(chan error, 1)
	go func() { updDone <- own.Update(racing) }()
	gw.Kill()
	<-updDone // success or severed-connection error; the WAL is the judge

	reg2 := telemetry.New()
	gw2, err := gateway.New("127.0.0.1:0", gateway.Config{
		Key: key, StoreDir: dir, SyncEpsilon: 0.5, Telemetry: reg2,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw2.Serve() }()
	t.Cleanup(func() { _ = gw2.Close() })
	if st := gw2.QueryCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("reopened gateway's cache is not cold: %+v", st)
	}
	committed := gw2.ObservedPattern(owner).Updates()
	if committed < 2 || committed > 3 {
		t.Fatalf("recovered %d update events, want 2 (pre-crash) or 3 (racing update committed)", committed)
	}

	// Uncached reference fed exactly the committed prefix.
	ref, _ := startGateway(t, gateway.Config{Key: key, QueryCache: -1})
	rconn, err := client.DialGateway(ref.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer rconn.Close()
	rOwn := rconn.Owner(owner)
	if err := rOwn.Setup(batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := rOwn.Update(batches[1]); err != nil {
		t.Fatal(err)
	}
	if committed == 3 {
		if err := rOwn.Update(racing); err != nil {
			t.Fatal(err)
		}
	}

	conn2, err := client.DialGateway(gw2.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	own2 := conn2.Owner(owner)
	for _, q := range kinds {
		ans, cost, err := own2.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		refAns, refCost, err := rOwn.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := answerFingerprint(ans, cost), answerFingerprint(refAns, refCost); got != want {
			t.Fatalf("%v after crash+recovery diverged from committed-prefix recompute:\n got: %s\nwant: %s", q.Kind, got, want)
		}
	}
	st := gw2.QueryCacheStats()
	if st.Hits != 0 || st.Misses != int64(len(kinds)) {
		t.Fatalf("post-recovery stats = %+v, want %d misses and no hits (pre-crash answers must not survive)", st, len(kinds))
	}

	// Zero-spend proof across post-recovery cache hits.
	ledgerBefore := gw2.ObservedLedger(owner)
	for _, q := range kinds {
		if _, _, err := own2.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if st2 := gw2.QueryCacheStats(); st2.Hits != int64(len(kinds)) {
		t.Fatalf("repeat round hit %d times, want %d", st2.Hits, len(kinds))
	}
	if ledgerAfter := gw2.ObservedLedger(owner); !ledgerAfter.Equal(ledgerBefore) {
		t.Fatalf("ledger moved across post-recovery cache hits:\n before: %s\n after:  %s", ledgerBefore.Describe(), ledgerAfter.Describe())
	}
}
