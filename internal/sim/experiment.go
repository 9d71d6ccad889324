package sim

import (
	"fmt"
	"runtime"
	"sync"

	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/workload"
)

// PaperQueries returns the evaluation queries a substrate runs: ObliDB gets
// Q1–Q3; Cryptε has no join operator, so it gets Q1–Q2 (paper footnote 2).
func PaperQueries(s System) []query.Query {
	if s == Crypteps {
		return []query.Query{query.Q1(), query.Q2()}
	}
	return []query.Query{query.Q1(), query.Q2(), query.Q3()}
}

// PaperTraces returns the datasets a substrate stores: ObliDB holds both
// tables (the join needs them); Cryptε holds Yellow only, matching the
// paper's storage accounting (943.5 Mb ≈ Yellow × 6.4 KiB).
func PaperTraces(s System, seed uint64, scale float64) ([]*workload.Trace, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("sim: scale must be in (0, 1], got %v", scale)
	}
	horizon := record.Tick(float64(workload.JuneHorizon) * scale)
	yellow, err := workload.Generate(workload.Config{
		Provider: record.YellowCab,
		Horizon:  horizon,
		Records:  max(1, int(float64(workload.YellowRecords)*scale)),
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	if s == Crypteps {
		return []*workload.Trace{yellow}, nil
	}
	green, err := workload.Generate(workload.Config{
		Provider: record.GreenTaxi,
		Horizon:  horizon,
		Records:  max(1, int(float64(workload.GreenRecords)*scale)),
		Seed:     seed + 7777,
	})
	if err != nil {
		return nil, err
	}
	return []*workload.Trace{yellow, green}, nil
}

// PaperConfig assembles the §8 default experiment for one (system, strategy)
// cell at the given scale (1.0 = the paper's full month; smaller scales keep
// the same query cadence relative to the horizon).
func PaperConfig(s System, k StrategyKind, seed uint64, scale float64) (Config, error) {
	traces, err := PaperTraces(s, seed, scale)
	if err != nil {
		return Config{}, err
	}
	return paperConfigWithTraces(s, k, seed, scale, traces)
}

// paperConfigWithTraces is PaperConfig over pre-generated traces, so grids
// and sweeps generate each workload once and share it read-only across
// cells (traces are immutable after generation).
func paperConfigWithTraces(s System, k StrategyKind, seed uint64, scale float64, traces []*workload.Trace) (Config, error) {
	p := DefaultParams()
	queryEvery := record.Tick(float64(360) * scale)
	if queryEvery < 1 {
		queryEvery = 1
	}
	if scale < 1 {
		// Shrink the flush schedule with the horizon so short runs still
		// exercise it.
		p.FlushInterval = record.Tick(float64(p.FlushInterval) * scale)
		if p.FlushInterval < 1 {
			p.FlushInterval = 1
		}
	}
	return Config{
		System:     s,
		Strategy:   k,
		Params:     p,
		Traces:     traces,
		Queries:    PaperQueries(s),
		QueryEvery: queryEvery,
		Seed:       seed,
	}, nil
}

// runCells executes one independent Run per key on a bounded worker pool
// (at most GOMAXPROCS cells in flight). Every cell owns its full stack —
// traces are the only shared state, and they are read-only after
// generation — and every noise stream is derived from the cell's Config
// alone, so results are bit-identical to running the cells serially; only
// wall-clock changes. On failure the error of the earliest key (in keys
// order) is returned, again matching the serial driver.
func runCells[K comparable](keys []K, run func(K) (*Result, error)) (map[K]*Result, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(keys) {
		workers = len(keys)
	}
	if workers < 1 {
		workers = 1
	}
	results := make([]*Result, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, k := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, k K) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = run(k)
		}(i, k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[K]*Result, len(keys))
	for i, k := range keys {
		out[k] = results[i]
	}
	return out, nil
}

// RunGrid executes the full (strategy × system) grid of the end-to-end
// comparison (§8.1) and returns results keyed by strategy in AllStrategies
// order. Cells run concurrently on a bounded worker pool over one shared
// workload generation; per-cell seeding is unchanged, so the results are
// bit-identical to the serial driver's.
func RunGrid(s System, seed uint64, scale float64) (map[StrategyKind]*Result, error) {
	return sweep(s, seed, scale, AllStrategies(), func(k StrategyKind) StrategyKind { return k },
		func(*Config, StrategyKind) {}, func(k StrategyKind) string { return fmt.Sprintf("%s/%s", s, k) })
}

// SweepEpsilon reruns a DP strategy across the Figure 5 privacy grid,
// one concurrent cell per ε over a shared workload generation.
func SweepEpsilon(s System, k StrategyKind, epsilons []float64, seed uint64, scale float64) (map[float64]*Result, error) {
	return sweep(s, seed, scale, epsilons, func(float64) StrategyKind { return k },
		func(cfg *Config, eps float64) { cfg.Params.Epsilon = eps },
		func(eps float64) string { return fmt.Sprintf("eps=%v", eps) })
}

// SweepPeriod reruns DP-Timer across Figure 6's T grid, one concurrent cell
// per T over a shared workload generation.
func SweepPeriod(s System, periods []record.Tick, seed uint64, scale float64) (map[record.Tick]*Result, error) {
	return sweep(s, seed, scale, periods, func(record.Tick) StrategyKind { return DPTimer },
		func(cfg *Config, T record.Tick) { cfg.Params.Period = T },
		func(T record.Tick) string { return fmt.Sprintf("T=%v", T) })
}

// SweepThreshold reruns DP-ANT across Figure 6's θ grid, one concurrent
// cell per θ over a shared workload generation.
func SweepThreshold(s System, thetas []float64, seed uint64, scale float64) (map[float64]*Result, error) {
	return sweep(s, seed, scale, thetas, func(float64) StrategyKind { return DPANT },
		func(cfg *Config, th float64) { cfg.Params.Threshold = th },
		func(th float64) string { return fmt.Sprintf("theta=%v", th) })
}

// sweep is the experiment drivers' one body: a cell per key over one shared
// workload generation, each the paper configuration of strategy(key) with
// set applied, run by runCells; label names a failed cell.
func sweep[K comparable](s System, seed uint64, scale float64, keys []K,
	strategy func(K) StrategyKind, set func(*Config, K), label func(K) string) (map[K]*Result, error) {
	traces, err := PaperTraces(s, seed, scale)
	if err != nil {
		return nil, err
	}
	return runCells(keys, func(key K) (*Result, error) {
		cfg, err := paperConfigWithTraces(s, strategy(key), seed, scale, traces)
		if err != nil {
			return nil, err
		}
		set(&cfg, key)
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", label(key), err)
		}
		return res, nil
	})
}

// Figure5Epsilons is the paper's plotted privacy grid (10⁻² – 10¹,
// log-spaced). The text quotes a 0.001 lower end, but below ε ≈ 0.01 the
// *implementable* DP-ANT floods the store with millions of clamped-noise
// dummy records per month (its per-tick threshold noise Lap(4/ε₁) dwarfs
// any θ), so the sweep starts where the paper's figure axis does.
func Figure5Epsilons() []float64 {
	return []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10}
}

// Figure6Periods is the paper's T grid (1 – 1000, log-spaced).
func Figure6Periods() []record.Tick {
	return []record.Tick{1, 3, 10, 30, 100, 300, 1000}
}

// Figure6Thresholds is the paper's θ grid (1 – 1000, log-spaced).
func Figure6Thresholds() []float64 {
	return []float64{1, 3, 10, 30, 100, 300, 1000}
}
