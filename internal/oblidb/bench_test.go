package oblidb

import (
	"math/rand/v2"
	"testing"

	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// The backend-ingest rung of the layer ladder:
//
//	go test -run '^$' -bench EnclaveIngest -benchmem ./internal/oblidb

// syncDurableBatches seals n batches at the repository benchmark's
// sync-durable shape — 8 records a sync, dummy share 0.14, both providers,
// pickupIDs over the whole domain — every record of batch j at tick j.
func syncDurableBatches(tb testing.TB, s *seal.Sealer, n int) [][]seal.Sealed {
	tb.Helper()
	rng := rand.New(rand.NewPCG(17, 0xba7c4))
	out := make([][]seal.Sealed, n)
	for j := range out {
		rs := make([]record.Record, 8)
		for k := range rs {
			p := record.YellowCab
			if rng.IntN(2) == 0 {
				p = record.GreenTaxi
			}
			if rng.Float64() < 0.14 {
				rs[k] = record.NewDummy(p)
				continue
			}
			rs[k] = record.Record{
				PickupTime: record.Tick(j),
				PickupID:   uint16(1 + rng.IntN(record.NumLocations)),
				Provider:   p,
				FareCents:  uint32(rng.IntN(record.MaxFareCents + 1)),
			}
		}
		cts, err := s.SealAll(rs)
		if err != nil {
			tb.Fatal(err)
		}
		out[j] = cts
	}
	return out
}

// BenchmarkEnclaveIngest is one sealed sync into the default backend as the
// gateway's shard worker drives it: 500 tenants visited round-robin, so each
// ingest finds its tenant's aggregates cold in cache, as under the
// sync-durable workload. ns/record divides by the batch's 8 records.
func BenchmarkEnclaveIngest(b *testing.B) {
	const tenants = 500
	key, err := seal.NewRandomKey()
	if err != nil {
		b.Fatal(err)
	}
	s, err := seal.NewSealer(key)
	if err != nil {
		b.Fatal(err)
	}
	batches := syncDurableBatches(b, s, 61) // coprime to the tenant count
	dbs := make([]*DB, tenants)
	for i := range dbs {
		if dbs[i], err = NewWithKey(key); err != nil {
			b.Fatal(err)
		}
		if err := dbs[i].SetupSealed(batches[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dbs[i%tenants].UpdateSealed(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/8, "ns/record")
}

// TestEnclaveIngestAllocs pins the enclave boundary's steady state: an
// 8-record sealed sync allocates nothing but the join keys' amortised growth —
// no per-batch record slice, no per-record plaintext, no retained ciphertext
// header — and a batch with a forged ciphertext still admits nothing.
func TestEnclaveIngestAllocs(t *testing.T) {
	db := newDB(t)
	batches := syncDurableBatches(t, db.Sealer(), 16)
	if err := db.SetupSealed(batches[0]); err != nil {
		t.Fatal(err)
	}
	i := 0
	if n := testing.AllocsPerRun(400, func() {
		i++
		if err := db.UpdateSealed(batches[i%len(batches)]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a steady-state 8-record ingest allocates %v times, want 0 (amortised)", n)
	}

	before := db.Stats()
	y, g := db.enclave.tableSizes()
	forged := append([]seal.Sealed(nil), batches[1]...)
	forged[7] = append(seal.Sealed(nil), forged[7]...)
	forged[7][20] ^= 1
	if err := db.UpdateSealed(forged); err == nil {
		t.Fatal("forged ciphertext admitted")
	}
	y2, g2 := db.enclave.tableSizes()
	if db.Stats() != before || y != y2 || g != g2 {
		t.Fatalf("a rejected batch changed the backend: stats %+v -> %+v, tables %d/%d -> %d/%d", before, db.Stats(), y, g, y2, g2)
	}
}
