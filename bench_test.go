// Benchmarks regenerating the paper's tables and figures at test scale.
//
// Each BenchmarkTable*/BenchmarkFigure* runs the corresponding experiment at
// a reduced horizon (the full month lives in cmd/dpsync-bench) and exports
// the headline numbers as benchmark metrics, so `go test -bench=.` doubles
// as a shape regression suite: L1 errors, logical gaps, storage overheads
// and modeled QETs appear next to the wall-clock cost of producing them.
//
// The Benchmark*Micro benches at the bottom measure the *real* substrate
// operations (sealing, oblivious scan, join) rather than the calibrated cost
// model, documenting what this hardware actually does.
package dpsync_test

import (
	"fmt"
	"testing"

	"dpsync/internal/core"
	"dpsync/internal/edb"
	"dpsync/internal/oblidb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/sim"
	"dpsync/internal/workload"
)

// benchScale keeps one grid run around ~1s of wall clock.
const benchScale = 0.025

func runGrid(b *testing.B, system sim.System) map[sim.StrategyKind]*sim.Result {
	b.Helper()
	grid, err := sim.RunGrid(system, 1, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return grid
}

// BenchmarkTable2Comparison regenerates Table 2: privacy / logical gap /
// outsourced-records comparison across all five strategies.
func BenchmarkTable2Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid := runGrid(b, sim.ObliDB)
		if i == 0 {
			for _, k := range sim.AllStrategies() {
				agg := grid[k].Aggregate()
				b.ReportMetric(agg.MeanGap, fmt.Sprintf("gap_%s", k))
			}
		}
	}
}

// BenchmarkTable5 regenerates Table 5's aggregated statistics, one
// sub-benchmark per (system, strategy) cell.
func BenchmarkTable5(b *testing.B) {
	for _, system := range []sim.System{sim.ObliDB, sim.Crypteps} {
		grid := runGrid(b, system)
		for _, k := range sim.AllStrategies() {
			b.Run(fmt.Sprintf("%s/%s", system, k), func(b *testing.B) {
				var res *sim.Result
				for i := 0; i < b.N; i++ {
					cfg, err := sim.PaperConfig(system, k, 1, benchScale)
					if err != nil {
						b.Fatal(err)
					}
					res, err = sim.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				agg := res.Aggregate()
				b.ReportMetric(agg.MeanL1[query.GroupCount], "L1mean_Q2")
				b.ReportMetric(agg.MeanQET[query.GroupCount], "QETs_Q2")
				b.ReportMetric(agg.MeanGap, "gap_mean")
				b.ReportMetric(agg.TotalMb, "total_Mb")
				b.ReportMetric(agg.DummyMb, "dummy_Mb")
			})
		}
		_ = grid
	}
}

// BenchmarkFigure2ErrorOverTime regenerates Figure 2's headline series:
// per-strategy L1 error trajectories (reported as mean + max).
func BenchmarkFigure2ErrorOverTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid := runGrid(b, sim.ObliDB)
		if i == 0 {
			for _, k := range sim.AllStrategies() {
				s := grid[k].Collector.QueryError[query.GroupCount]
				b.ReportMetric(s.Mean(), fmt.Sprintf("L1mean_%s", k))
				b.ReportMetric(s.Max(), fmt.Sprintf("L1max_%s", k))
			}
		}
	}
}

// BenchmarkFigure3Storage regenerates Figure 3: total and dummy outsourced
// megabits per strategy at the horizon.
func BenchmarkFigure3Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid := runGrid(b, sim.ObliDB)
		if i == 0 {
			for _, k := range sim.AllStrategies() {
				agg := grid[k].Aggregate()
				b.ReportMetric(agg.TotalMb, fmt.Sprintf("total_Mb_%s", k))
				b.ReportMetric(agg.DummyMb, fmt.Sprintf("dummy_Mb_%s", k))
			}
		}
	}
}

// BenchmarkFigure4Scatter regenerates Figure 4: the (mean QET, mean L1)
// operating point of every strategy on the default query Q2.
func BenchmarkFigure4Scatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid := runGrid(b, sim.ObliDB)
		if i == 0 {
			for _, k := range sim.AllStrategies() {
				agg := grid[k].Aggregate()
				b.ReportMetric(agg.MeanQET[query.GroupCount], fmt.Sprintf("x_QETs_%s", k))
				b.ReportMetric(agg.MeanL1[query.GroupCount], fmt.Sprintf("y_L1_%s", k))
			}
		}
	}
}

// BenchmarkFigure5PrivacySweep regenerates Figure 5: accuracy and QET as ε
// sweeps from loose to tight privacy, for both DP strategies.
func BenchmarkFigure5PrivacySweep(b *testing.B) {
	eps := []float64{0.01, 0.1, 0.5, 2, 10}
	for _, k := range []sim.StrategyKind{sim.DPTimer, sim.DPANT} {
		b.Run(string(k), func(b *testing.B) {
			var res map[float64]*sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sim.SweepEpsilon(sim.ObliDB, k, eps, 1, benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, e := range eps {
				agg := res[e].Aggregate()
				b.ReportMetric(agg.MeanL1[query.GroupCount], fmt.Sprintf("L1_eps%g", e))
			}
		})
	}
}

// BenchmarkFigure6ParamSweep regenerates Figure 6: error and QET across the
// non-privacy knobs T (DP-Timer) and θ (DP-ANT).
func BenchmarkFigure6ParamSweep(b *testing.B) {
	b.Run("DP-Timer/T", func(b *testing.B) {
		periods := []record.Tick{3, 30, 300}
		var res map[record.Tick]*sim.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = sim.SweepPeriod(sim.ObliDB, periods, 1, benchScale)
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, T := range periods {
			agg := res[T].Aggregate()
			b.ReportMetric(agg.MeanL1[query.GroupCount], fmt.Sprintf("L1_T%d", T))
			b.ReportMetric(agg.MeanQET[query.GroupCount], fmt.Sprintf("QETs_T%d", T))
		}
	})
	b.Run("DP-ANT/theta", func(b *testing.B) {
		thetas := []float64{3, 30, 300}
		var res map[float64]*sim.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = sim.SweepThreshold(sim.ObliDB, thetas, 1, benchScale)
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, th := range thetas {
			agg := res[th].Aggregate()
			b.ReportMetric(agg.MeanL1[query.GroupCount], fmt.Sprintf("L1_th%g", th))
			b.ReportMetric(agg.MeanQET[query.GroupCount], fmt.Sprintf("QETs_th%g", th))
		}
	})
}

// --- Micro benchmarks: the real substrate operations ---

func obliWithRecords(b *testing.B, n int) *oblidb.DB {
	b.Helper()
	db, err := oblidb.New()
	if err != nil {
		b.Fatal(err)
	}
	rs := make([]record.Record, n)
	for i := range rs {
		rs[i] = record.Record{
			PickupTime: record.Tick(i + 1),
			PickupID:   uint16(i%record.NumLocations + 1),
			Provider:   record.YellowCab,
		}
		if i%3 == 0 {
			rs[i].Provider = record.GreenTaxi
		}
	}
	if err := db.Setup(rs); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkMicroObliviousScan measures the real per-query cost of the
// enclave's oblivious scan over its resident tables at several store sizes
// (ciphertexts are authenticated and opened once, at ingest).
func BenchmarkMicroObliviousScan(b *testing.B) {
	for _, n := range []int{1000, 10_000, 50_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := obliWithRecords(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.Query(query.Q2()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "records")
		})
	}
}

// BenchmarkMicroJoin measures the real hash-join evaluation (the cost model
// charges O(N²) for the oblivious version; this is the answer computation).
func BenchmarkMicroJoin(b *testing.B) {
	db := obliWithRecords(b, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Query(query.Q3()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroOwnerTick measures the owner-side cost of one tick under
// DP-Timer (cache write + strategy decision + occasional sealed upload).
func BenchmarkMicroOwnerTick(b *testing.B) {
	db, err := oblidb.New()
	if err != nil {
		b.Fatal(err)
	}
	strat, err := sim.NewStrategy(sim.DPTimer, sim.DefaultParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	owner, err := core.New(core.Config{Strategy: strat, Database: db})
	if err != nil {
		b.Fatal(err)
	}
	if err := owner.Setup(nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var terr error
		if i%3 == 0 {
			terr = owner.Tick(record.Record{
				PickupTime: record.Tick(i + 1),
				PickupID:   uint16(i%record.NumLocations + 1),
				Provider:   record.YellowCab,
			})
		} else {
			terr = owner.Tick()
		}
		if terr != nil {
			b.Fatal(terr)
		}
	}
}

// BenchmarkMicroWorkloadGen measures trace generation (43,200-tick June).
func BenchmarkMicroWorkloadGen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = workload.YellowJune(uint64(i))
	}
}

// BenchmarkMicroCostModel pins the calibrated model against the paper's
// Table 5 operating point, reporting the modeled QETs as metrics.
func BenchmarkMicroCostModel(b *testing.B) {
	m := edb.ObliDBCostModel()
	var c edb.Cost
	for i := 0; i < b.N; i++ {
		c = m.Of(query.GroupCount, 9214, 0)
	}
	b.ReportMetric(c.Seconds, "modeled_Q2_s")
	b.ReportMetric(m.Of(query.JoinCount, 9214+14200, 9214*14200).Seconds, "modeled_Q3_s")
}
