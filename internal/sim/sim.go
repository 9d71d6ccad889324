// Package sim is the experiment driver behind every table and figure of the
// paper's §8: it replays workload traces through the full DP-Sync stack
// (strategies, owner, cache, encrypted database), poses the evaluation
// queries on the paper's cadence, and collects the §4.5 metrics.
//
// One Run is one cell of the evaluation grid: a (system, strategy) pair over
// a set of dataset traces. Multi-table deployments (the ObliDB Q3 join) run
// one owner per trace against a shared store, exactly as the three-party
// model prescribes — each table's update pattern is independently protected.
package sim

import (
	"fmt"

	"dpsync/internal/core"
	"dpsync/internal/crypte"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/metrics"
	"dpsync/internal/oblidb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/strategy"
	"dpsync/internal/workload"
)

// System selects the encrypted-database substrate.
type System string

// Supported substrates.
const (
	ObliDB   System = "oblidb"
	Crypteps System = "crypte"
)

// StrategyKind names a synchronization policy for experiment configs.
type StrategyKind string

// Supported strategies.
const (
	SUR     StrategyKind = "SUR"
	OTO     StrategyKind = "OTO"
	SET     StrategyKind = "SET"
	DPTimer StrategyKind = "DP-Timer"
	DPANT   StrategyKind = "DP-ANT"
)

// AllStrategies lists the evaluation's five policies in the paper's order.
func AllStrategies() []StrategyKind {
	return []StrategyKind{SUR, SET, OTO, DPTimer, DPANT}
}

// Params holds the knobs the paper sweeps.
type Params struct {
	// Epsilon is the update-pattern budget ε (DP strategies only).
	Epsilon float64
	// Period is DP-Timer's T.
	Period record.Tick
	// Threshold is DP-ANT's θ.
	Threshold float64
	// FlushInterval (f) and FlushSize (s).
	FlushInterval record.Tick
	FlushSize     int
}

// DefaultParams returns the §8 defaults.
func DefaultParams() Params {
	return Params{
		Epsilon:       0.5,
		Period:        30,
		Threshold:     15,
		FlushInterval: 2000,
		FlushSize:     15,
	}
}

// Config describes one experiment run.
type Config struct {
	System   System
	Strategy StrategyKind
	Params   Params
	// Traces are the datasets; one owner is spawned per trace. The first
	// trace's owner performs EDB setup, later ones attach.
	Traces []*workload.Trace
	// Queries are posed, and storage sizes sampled, every QueryEvery ticks
	// (paper: every 360). The run lasts the longest trace's horizon.
	Queries    []query.Query
	QueryEvery record.Tick
	// Seed drives every noise source in the run.
	Seed uint64
}

// Result bundles the collected metrics for one run.
type Result struct {
	Config    Config
	Collector *metrics.Collector
	// Patterns holds each owner's update-pattern transcript.
	Patterns []*PatternInfo
	// FinalStats is the EDB's storage accounting at the horizon.
	FinalStats edb.StorageStats
	// FinalGap is the total logical gap at the horizon.
	FinalGap int
}

// PatternInfo pairs a trace with its owner's observed update pattern.
type PatternInfo struct {
	Provider record.Provider
	Updates  int
	Volume   int
}

// Aggregate returns the Table 5 statistics for this run.
func (r *Result) Aggregate() metrics.Aggregate { return r.Collector.Aggregate() }

// NewStrategy constructs the named strategy with the given parameters and
// noise source.
func NewStrategy(kind StrategyKind, p Params, src dp.Source) (strategy.Strategy, error) {
	switch kind {
	case SUR:
		return strategy.NewSUR(), nil
	case OTO:
		return strategy.NewOTO(), nil
	case SET:
		return strategy.NewSET(), nil
	case DPTimer:
		return strategy.NewTimer(strategy.TimerConfig{
			Epsilon:       p.Epsilon,
			Period:        p.Period,
			FlushInterval: p.FlushInterval,
			FlushSize:     p.FlushSize,
			Source:        src,
		})
	case DPANT:
		return strategy.NewANT(strategy.ANTConfig{
			Epsilon:       p.Epsilon,
			Threshold:     p.Threshold,
			FlushInterval: p.FlushInterval,
			FlushSize:     p.FlushSize,
			Source:        src,
		})
	default:
		return nil, fmt.Errorf("sim: unknown strategy %q", kind)
	}
}

// newSystem constructs the named substrate with deterministic noise.
func newSystem(s System, seed uint64) (edb.Database, error) {
	switch s {
	case ObliDB:
		return oblidb.New()
	case Crypteps:
		return crypte.New(crypte.WithNoiseSource(dp.NewSeededSource(seed ^ 0xc0ffee)))
	default:
		return nil, fmt.Errorf("sim: unknown system %q", s)
	}
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("sim: no traces")
	}
	if cfg.QueryEvery <= 0 {
		cfg.QueryEvery = 360
	}
	var horizon record.Tick
	for _, tr := range cfg.Traces {
		horizon = max(horizon, tr.Horizon)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("sim: zero horizon")
	}

	db, err := newSystem(cfg.System, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// One owner per trace; each gets an independent seeded noise stream.
	owners := make([]*core.Owner, len(cfg.Traces))
	for i, tr := range cfg.Traces {
		src := dp.NewLockedSource(dp.NewSeededSource(cfg.Seed + uint64(i)*1_000_003))
		strat, err := NewStrategy(cfg.Strategy, cfg.Params, src)
		if err != nil {
			return nil, err
		}
		o, err := core.New(core.Config{
			Strategy:      strat,
			Database:      db,
			DummyProvider: tr.Provider,
			Attach:        i > 0,
		})
		if err != nil {
			return nil, err
		}
		if err := o.Setup(nil); err != nil { // D0 = ∅ in the paper's runs
			return nil, fmt.Errorf("sim: setup owner %d: %w", i, err)
		}
		owners[i] = o
	}

	col := metrics.NewCollector()
	// Combined ground truth across tables, maintained incrementally so the
	// per-cadence Truth evaluation stops replaying the whole logical history.
	truth := query.NewAggregates()

	for t := record.Tick(1); t <= horizon; t++ {
		for i, tr := range cfg.Traces {
			if r, ok := tr.ArrivalAt(t); ok {
				if err := owners[i].Tick(r); err != nil {
					return nil, fmt.Errorf("sim: tick %d owner %d: %w", t, i, err)
				}
				truth.Observe(r)
			} else {
				if err := owners[i].Tick(); err != nil {
					return nil, fmt.Errorf("sim: tick %d owner %d: %w", t, i, err)
				}
			}
		}
		if t%cfg.QueryEvery == 0 {
			gap := 0
			for _, o := range owners {
				gap += o.LogicalGap()
			}
			col.RecordGap(t, gap)
			for _, q := range cfg.Queries {
				if !db.Supports(q) {
					continue
				}
				got, cost, err := db.Query(q)
				if err != nil {
					return nil, fmt.Errorf("sim: query %v at %d: %w", q.Kind, t, err)
				}
				want, err := truth.AnswerFor(q)
				if err != nil {
					return nil, err
				}
				col.RecordQuery(t, q.Kind, got.L1(want), cost.Seconds)
			}
			s := db.Stats()
			col.RecordStorage(t, s.Bytes, s.DummyBytes)
		}
	}

	res := &Result{
		Config:     cfg,
		Collector:  col,
		FinalStats: db.Stats(),
	}
	for i, o := range owners {
		res.FinalGap += o.LogicalGap()
		res.Patterns = append(res.Patterns, &PatternInfo{
			Provider: cfg.Traces[i].Provider,
			Updates:  o.Pattern().Updates(),
			Volume:   o.Pattern().TotalVolume(),
		})
	}
	return res, nil
}
