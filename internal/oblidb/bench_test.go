package oblidb

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// The backend-ingest rung of the layer ladder:
//
//	go test -run '^$' -bench EnclaveIngest -benchmem ./internal/oblidb

// syncDurableBatches seals n batches at the repository benchmark's
// sync-durable shape — 8 records a sync, dummy share 0.14, both providers,
// pickupIDs over the whole domain — every record of batch j at tick j: each
// batch as one message, an owner's shape, or with perRecord one message per
// record, the shape refdb and older directories send.
func syncDurableBatches(tb testing.TB, s *seal.Sealer, n int, perRecord bool) [][]seal.Sealed {
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
		var err error
		if perRecord {
			out[j], err = s.SealAll(rs)
		} else {
			out[j], err = s.SealBatch(rs)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// shapes names the two batch shapes a server accepts.
var shapes = []struct {
	name      string
	perRecord bool
}{{"message", false}, {"per-record", true}}

// BenchmarkEnclaveIngest is one sealed sync into the default backend as the
// gateway's shard worker drives it: 500 tenants visited round-robin, so each
// ingest finds its tenant's aggregates cold in cache, as under the
// sync-durable workload, the batch sealed as one message (the owner's shape)
// or one message per record. ns/record divides by the batch's 8 records.
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
	for _, shape := range shapes {
		b.Run("shape="+shape.name, func(b *testing.B) {
			batches := syncDurableBatches(b, s, 61, shape.perRecord) // coprime to the tenant count
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
		})
	}
}

// BenchmarkEnclaveIngestFleet is a serving node's fleet ingesting: 500
// tenants share one sealer, as a gateway's do, and take turns ingesting
// batches of 5 to 13 records (9 on average) each sealed as one message, so
// every ingest finds its tenant, and whatever the tenant holds, cold in
// cache. ns/record divides by the records ingested.
func BenchmarkEnclaveIngestFleet(b *testing.B) {
	const tenants = 500
	s, err := seal.NewSealer(mustKey(b))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(38, 0xf1ee7))
	batches := make([][]seal.Sealed, 61) // coprime to the tenant count
	sizes := make([]int, len(batches))
	for j := range batches {
		sizes[j] = 5 + rng.IntN(9)
		if batches[j], err = s.SealBatch(randomBatch(rng, sizes[j])); err != nil {
			b.Fatal(err)
		}
	}
	dbs := make([]*DB, tenants)
	for i := range dbs {
		dbs[i] = NewWithSealer(s)
		if err := dbs[i].SetupSealed(batches[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	records := 0
	for i := 0; i < b.N; i++ {
		j := i % len(batches)
		if err := dbs[i%tenants].UpdateSealed(batches[j]); err != nil {
			b.Fatal(err)
		}
		records += sizes[j]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}

func mustKey(tb testing.TB) []byte {
	tb.Helper()
	key, err := seal.NewRandomKey()
	if err != nil {
		tb.Fatal(err)
	}
	return key
}

// TestEnclaveIngestAllocs pins the enclave boundary's steady state: an
// 8-record sealed sync, one message or one per record, allocates nothing but
// the join keys' amortised growth — no per-batch record slice, no plaintext
// buffer, no retained ciphertext header — and a batch with a forged
// ciphertext still admits nothing.
func TestEnclaveIngestAllocs(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			db := newDB(t)
			batches := syncDurableBatches(t, db.Sealer(), 16, shape.perRecord)
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
			last := len(forged) - 1
			forged[last] = append(seal.Sealed(nil), forged[last]...)
			forged[last][20] ^= 1
			if err := db.UpdateSealed(forged); err == nil {
				t.Fatal("forged ciphertext admitted")
			}
			y2, g2 := db.enclave.tableSizes()
			if db.Stats() != before || y != y2 || g != g2 {
				t.Fatalf("a rejected batch changed the backend: stats %+v -> %+v, tables %d/%d -> %d/%d", before, db.Stats(), y, g, y2, g2)
			}
		})
	}
}

// TestSealedBatchShapesAgree ingests the same batches — 1, 8, 64, 65 and 300
// records, past the enclave's 64-record scratch and back — into one DB as one
// message each and into another as one message per record: both count every
// record, and stats, table sizes and Q1–Q4 agree after every batch. A batch
// of two messages with one forged is refused whole.
func TestSealedBatchShapesAgree(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewWithKey(key)
	if err != nil {
		t.Fatal(err)
	}
	each, err := NewWithKey(key)
	if err != nil {
		t.Fatal(err)
	}
	s := one.Sealer()
	rng := rand.New(rand.NewPCG(3, 5))
	total := 0
	for step, n := range []int{1, 65, 8, 300, 64, 65} {
		rs := randomBatch(rng, n)
		msg, err := s.SealBatch(rs)
		if err != nil {
			t.Fatal(err)
		}
		cts, err := s.SealAll(rs)
		if err != nil {
			t.Fatal(err)
		}
		ingestOne, ingestEach := one.UpdateSealed, each.UpdateSealed
		if step == 0 {
			ingestOne, ingestEach = one.SetupSealed, each.SetupSealed
		}
		if err := ingestOne(msg); err != nil {
			t.Fatal(err)
		}
		if err := ingestEach(cts); err != nil {
			t.Fatal(err)
		}
		total += n
		if got := one.Stats(); got != each.Stats() || got.Records != total {
			t.Fatalf("after %d records: one message %+v, per record %+v", total, got, each.Stats())
		}
		y1, g1 := one.enclave.tableSizes()
		y2, g2 := each.enclave.tableSizes()
		if y1 != y2 || g1 != g2 {
			t.Fatalf("after %d records: tables %d/%d against %d/%d", total, y1, g1, y2, g2)
		}
		for _, q := range []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()} {
			a1, c1, err1 := one.Query(q)
			a2, c2, err2 := each.Query(q)
			if err1 != nil || err2 != nil || fmt.Sprint(a1, c1) != fmt.Sprint(a2, c2) {
				t.Fatalf("after %d records, %+v: %v %v (%v) against %v %v (%v)", total, q, a1, c1, err1, a2, c2, err2)
			}
		}
	}

	before := one.Stats()
	good, err := s.SealBatch(randomBatch(rng, 70))
	if err != nil {
		t.Fatal(err)
	}
	bad := append(seal.Sealed(nil), good[0]...)
	bad[len(bad)-1] ^= 1
	if err := one.UpdateSealed(append(good, bad)); err == nil {
		t.Fatal("a batch with a forged message was admitted")
	}
	if one.Stats() != before {
		t.Fatalf("a refused batch changed the stats: %+v -> %+v", before, one.Stats())
	}
}
