package oblidb

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// TestSharedSealerMatchesPrivateKeys is the enclave-sharing differential: N
// instances whose enclaves open with one shared sealer, against N that each
// expanded the same key themselves (NewWithKey), fed the same sealed batches
// interleaved across owners, give bit-identical answers, costs and Stats
// after every batch. A batch sealed under another key is
// rejected whole by the instance that receives it, and leaves it and its
// neighbours exactly as their private-key twins.
func TestSharedSealerMatchesPrivateKeys(t *testing.T) {
	const owners, batches = 6, 12
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	otherKey, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := seal.NewSealer(otherKey)
	if err != nil {
		t.Fatal(err)
	}
	shared, private := make([]*DB, owners), make([]*DB, owners)
	for i := range shared {
		shared[i] = NewWithSealer(sealer)
		if private[i], err = NewWithKey(key); err != nil {
			t.Fatal(err)
		}
	}
	queries := []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}
	same := func(when string, i int) {
		t.Helper()
		a, b := shared[i], private[i]
		for _, q := range queries {
			ansA, costA, errA := a.Query(q)
			ansB, costB, errB := b.Query(q)
			if !reflect.DeepEqual(ansA, ansB) || costA != costB || (errA == nil) != (errB == nil) {
				t.Fatalf("%s, owner %d, %v: shared (%+v, %+v, %v) != private (%+v, %+v, %v)",
					when, i, q.Kind, ansA, costA, errA, ansB, costB, errB)
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("%s, owner %d: Stats %+v != %+v", when, i, a.Stats(), b.Stats())
		}
	}
	rng := rand.New(rand.NewPCG(7, 0x5eed))
	for step := 0; step < batches; step++ {
		for i := 0; i < owners; i++ {
			cts, err := sealer.SealAll(randomBatch(rng, 1+rng.IntN(12)))
			if err != nil {
				t.Fatal(err)
			}
			apply := (*DB).UpdateSealed
			if step == 0 {
				apply = (*DB).SetupSealed
			}
			if err := apply(shared[i], cts); err != nil {
				t.Fatal(err)
			}
			if err := apply(private[i], cts); err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("batch %d", step), i)
		}
	}

	// A batch whose last ciphertext was sealed under another key: the owner
	// that receives it admits none of it, on either side.
	victim := owners / 2
	cts, err := sealer.SealAll(randomBatch(rng, 5))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := foreign.Seal(randomBatch(rng, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	cts = append(cts, bad)
	before := shared[victim].Stats()
	if err := shared[victim].UpdateSealed(cts); err == nil {
		t.Fatal("shared-sealer enclave admitted a ciphertext sealed under another key")
	}
	if err := private[victim].UpdateSealed(cts); err == nil {
		t.Fatal("private-key enclave admitted a ciphertext sealed under another key")
	}
	if got := shared[victim].Stats(); got != before {
		t.Fatalf("rejected batch changed the victim's stats: %+v -> %+v", before, got)
	}
	for i := 0; i < owners; i++ {
		same("after the foreign batch", i)
	}
	// And the shared sealer still opens the next honest batch for everyone.
	for i := 0; i < owners; i++ {
		cts, err := sealer.SealAll(randomBatch(rng, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := shared[i].UpdateSealed(cts); err != nil {
			t.Fatal(err)
		}
		if err := private[i].UpdateSealed(cts); err != nil {
			t.Fatal(err)
		}
		same("after recovery", i)
	}
}

// TestSharedSealerConcurrentTenants drives what a node's shard workers do at
// once: tenants on one sealer and the one cost model, each ingesting and
// querying on its own goroutine. Run under -race it pins the sharing safe, and
// each tenant still ends equal to a private-key twin fed the same batches
// afterwards on one goroutine.
func TestSharedSealerConcurrentTenants(t *testing.T) {
	const owners, batches = 8, 40
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	sent := make([][][]seal.Sealed, owners)
	for i := range sent {
		rng := rand.New(rand.NewPCG(uint64(i), 0x5eed))
		for b := 0; b < batches; b++ {
			cts, err := sealer.SealAll(randomBatch(rng, 1+rng.IntN(8)))
			if err != nil {
				t.Fatal(err)
			}
			sent[i] = append(sent[i], cts)
		}
	}
	// feed applies batches to db, querying after each, and returns the costs
	// those queries were charged.
	feed := func(db *DB, batches [][]seal.Sealed) ([]edb.Cost, error) {
		var costs []edb.Cost
		for b, cts := range batches {
			apply := db.UpdateSealed
			if b == 0 {
				apply = db.SetupSealed
			}
			if err := apply(cts); err != nil {
				return nil, err
			}
			_, c, err := db.Query(query.Query{Kind: query.Kind(b % 4), Provider: record.YellowCab, JoinWith: record.GreenTaxi, Lo: 1, Hi: 200})
			if err != nil {
				return nil, err
			}
			costs = append(costs, c)
		}
		return costs, nil
	}
	shared := make([]*DB, owners)
	costs := make([][]edb.Cost, owners)
	errs := make([]error, owners)
	var wg sync.WaitGroup
	for i := range shared {
		shared[i] = NewWithSealer(sealer)
		wg.Add(1)
		go func() {
			defer wg.Done()
			costs[i], errs[i] = feed(shared[i], sent[i])
		}()
	}
	wg.Wait()
	for i, db := range shared {
		if errs[i] != nil {
			t.Fatalf("owner %d: %v", i, errs[i])
		}
		twin, err := NewWithKey(key)
		if err != nil {
			t.Fatal(err)
		}
		twinCosts, err := feed(twin, sent[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()} {
			a, ca, _ := db.Query(q)
			b, cb, _ := twin.Query(q)
			if !reflect.DeepEqual(a, b) || ca != cb {
				t.Fatalf("owner %d, %v: concurrent shared-sealer tenant (%+v, %+v) != private twin (%+v, %+v)", i, q.Kind, a, ca, b, cb)
			}
		}
		if db.Stats() != twin.Stats() || !slices.Equal(costs[i], twinCosts) {
			t.Fatalf("owner %d: stats or the costs charged along the way differ from the private twin", i)
		}
	}
}
