package query

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dpsync/internal/record"
)

// The answer rung of the layer ladder — what a cache-missing query costs the
// backend once its records are in the statistic:
//
//	go test -run '^$' -bench AggregatesAnswer -benchmem ./internal/query

// BenchmarkAggregatesAnswer answers Q1–Q4 from statistics holding 1,200 and
// 12,000 records a tenant (the sync-durable workload ends near the first; the
// second is ten times that history), 100 tenants visited round-robin so a
// query finds its tenant's statistic as cold as a serving gateway would.
// Records arrive in tick order, about two a tick, as an owner uploads them.
func BenchmarkAggregatesAnswer(b *testing.B) {
	const tenants = 100
	for _, n := range []int{1200, 12000} {
		rng := rand.New(rand.NewPCG(uint64(n), 0xa65))
		aggs := make([]*Aggregates, tenants)
		for i := range aggs {
			aggs[i] = NewAggregates()
			for j := 0; j < n; j++ {
				p := record.YellowCab
				if rng.IntN(2) == 0 {
					p = record.GreenTaxi
				}
				aggs[i].Observe(record.Record{
					PickupTime: record.Tick(j / 2),
					PickupID:   uint16(1 + rng.IntN(record.NumLocations)),
					Provider:   p,
					FareCents:  uint32(rng.IntN(record.MaxFareCents + 1)),
				})
			}
		}
		for qi, q := range []Query{Q1(), Q2(), Q3(), Q4()} {
			b.Run(fmt.Sprintf("n=%d/Q%d", n, qi+1), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := aggs[i%tenants].AnswerFor(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
