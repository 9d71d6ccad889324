package oblidb

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dpsync/internal/query"
	"dpsync/internal/record"
)

// randomBatch mirrors what owners upload: valid real records plus dummies.
func randomBatch(rng *rand.Rand, n int) []record.Record {
	rs := make([]record.Record, 0, n)
	for i := 0; i < n; i++ {
		switch rng.IntN(5) {
		case 0:
			rs = append(rs, record.NewDummy(record.YellowCab))
		case 1:
			rs = append(rs, record.NewDummy(record.GreenTaxi))
		default:
			p := record.YellowCab
			if rng.IntN(2) == 0 {
				p = record.GreenTaxi
			}
			rs = append(rs, record.Record{
				PickupTime: record.Tick(rng.IntN(200)),
				PickupID:   uint16(rng.IntN(record.NumLocations) + 1),
				Provider:   p,
				FareCents:  uint32(rng.IntN(record.MaxFareCents + 1)),
			})
		}
	}
	return rs
}

// hostileBatch is what an authenticated upload can carry and Record.Validate
// would refuse (record.Decode checks nothing but the dummy marker): pickupIDs
// 0, 266 and 65535, an unknown provider, join keys that repeat, descend and go
// negative, fares at and above MaxFareCents — interleaved with dummies.
func hostileBatch(rng *rand.Rand, n int) []record.Record {
	ids := []uint16{0, 1, 60, record.NumLocations, record.NumLocations + 1, 65535}
	fares := []uint32{0, record.MaxFareCents, record.MaxFareCents + 1, 1<<32 - 1}
	provs := []record.Provider{record.YellowCab, record.GreenTaxi, record.YellowCab, record.GreenTaxi, 7}
	rs := make([]record.Record, 0, n)
	for i := 0; i < n; i++ {
		p := provs[rng.IntN(len(provs))]
		if rng.IntN(7) == 0 {
			rs = append(rs, record.NewDummy(p))
			continue
		}
		rs = append(rs, record.Record{
			PickupTime: record.Tick(20 - i%25 - rng.IntN(3)), // descending, repeating, below zero
			PickupID:   ids[rng.IntN(len(ids))],
			Provider:   p,
			FareCents:  fares[rng.IntN(len(fares))],
		})
	}
	return rs
}

// TestIncrementalMatchesNaive is the enclave's differential pin: after every
// ingest batch, each query's answer must be bit-identical to re-evaluating
// the Appendix-B-rewritten plan over a mirror of everything uploaded so far
// (the enclave itself keeps only aggregates and sizes), while the access
// log and the modeled cost stay exactly what the full-scan path reports —
// a function of table sizes alone. The odd trials upload hostileBatch rows, and
// every trial asks ranges that straddle the pickupID domain's edge and a
// self-join, so the enclave's indexed aggregates are held to the naive plan on
// out-of-domain and out-of-order input too.
func TestIncrementalMatchesNaive(t *testing.T) {
	queries := []query.Query{
		query.Q1(), query.Q2(), query.Q3(), query.Q4(),
		{Kind: query.GroupCount, Provider: record.GreenTaxi},
		{Kind: query.JoinCount, Provider: record.GreenTaxi, JoinWith: record.YellowCab},
		{Kind: query.JoinCount, Provider: record.YellowCab, JoinWith: record.YellowCab},
		{Kind: query.RangeCount, Provider: record.YellowCab, Lo: 260, Hi: 270},
		{Kind: query.SumFare, Provider: record.GreenTaxi, Lo: 265, Hi: 266},
		{Kind: query.RangeCount, Provider: record.GreenTaxi, Lo: 0, Hi: 65535},
		{Kind: query.SumFare, Provider: record.YellowCab, Lo: 266, Hi: 65535},
	}
	for trial := 0; trial < 6; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(trial), 0x0b11db))
			gen := randomBatch
			if trial%2 == 1 {
				gen = hostileBatch
			}
			db := newDB(t)
			mirror := query.Tables{}
			upload := func(rs []record.Record) {
				for _, r := range rs {
					mirror[r.Provider] = append(mirror[r.Provider], r)
				}
			}
			d0 := gen(rng, 50)
			if err := db.Setup(d0); err != nil {
				t.Fatal(err)
			}
			upload(d0)
			wantLog := []int{}
			for batch := 0; batch < 6; batch++ {
				next := gen(rng, rng.IntN(80))
				if err := db.Update(next); err != nil {
					t.Fatal(err)
				}
				upload(next)
				ny, ng := db.enclave.tableSizes()
				for _, q := range queries {
					got, cost, err := db.Query(q)
					if err != nil {
						t.Fatalf("batch %d %v: %v", batch, q.Kind, err)
					}
					want, err := query.Evaluate(q, mirror) // Appendix-B rewrite inside
					if err != nil {
						t.Fatalf("batch %d %v naive: %v", batch, q.Kind, err)
					}
					if got.L1(want) != 0 {
						t.Errorf("batch %d %v: incremental %+v != naive %+v", batch, q.Kind, got, want)
					}
					// The modeled cost must be what the full oblivious scan
					// charges, derived from table sizes alone.
					wantCost := db.model.Of(q.Kind, ny, 0)
					switch {
					case q.Kind == query.JoinCount:
						wantCost = db.model.Of(q.Kind, ny+ng, ny*ng)
					case q.Provider == record.GreenTaxi:
						wantCost = db.model.Of(q.Kind, ng, 0)
					}
					if cost != wantCost {
						t.Errorf("batch %d %v: cost %+v != full-scan model %+v", batch, q.Kind, cost, wantCost)
					}
					// And the access log keeps recording full scan extents.
					switch {
					case q.Kind == query.JoinCount:
						wantLog = append(wantLog, int(ny+ng))
					case q.Provider == record.GreenTaxi:
						wantLog = append(wantLog, int(ng))
					default:
						wantLog = append(wantLog, int(ny))
					}
				}
			}
			gotLog := db.AccessLog()
			if len(gotLog) != len(wantLog) {
				t.Fatalf("access log has %d entries, want %d", len(gotLog), len(wantLog))
			}
			for i := range wantLog {
				if gotLog[i] != wantLog[i] {
					t.Errorf("access log[%d] = %d, want full scan extent %d", i, gotLog[i], wantLog[i])
				}
			}
		})
	}
}

// TestScanCostFlatInAnswerPath sanity-checks the perf claim behind the
// incremental engine at unit-test scale: the *modeled* cost grows with the
// store (obliviousness) while the answer computation no longer walks it.
// The real wall-clock flatness is pinned by BenchmarkMicroObliviousScan.
func TestScanCostFlatInAnswerPath(t *testing.T) {
	db := newDB(t)
	if err := db.Setup([]record.Record{yellow(1, 60)}); err != nil {
		t.Fatal(err)
	}
	_, c1, err := db.Query(query.Q1())
	if err != nil {
		t.Fatal(err)
	}
	big := make([]record.Record, 5000)
	for i := range big {
		big[i] = record.NewDummy(record.YellowCab)
	}
	if err := db.Update(big); err != nil {
		t.Fatal(err)
	}
	ans, c2, err := db.Query(query.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Scalar != 1 {
		t.Errorf("answer drifted with dummies: %v", ans.Scalar)
	}
	if c2.Seconds <= c1.Seconds || c2.RecordsScanned != 5001 {
		t.Errorf("modeled cost must still charge the full scan: %+v then %+v", c1, c2)
	}
}
