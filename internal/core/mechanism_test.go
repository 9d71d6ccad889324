package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"dpsync/internal/dp"
	"dpsync/internal/leakage"
	"dpsync/internal/record"
	"dpsync/internal/strategy"
)

// TestOwnerPatternEqualsMechanism is the simulation argument of Theorems
// 10 and 11 as a differential over seeds: for each seed an arrival trace, an
// initial database, ε and the strategy's parameters are drawn, and the
// update pattern core.Owner emits driving SUR, SET, OTO, DP-Timer and
// DP-ANT over the trace must equal, event for event, the pattern the
// matching leakage mechanism (MSUR, MSET, MOTO, MTimer, MANT) simulates from
// the same trace — the DP pair consuming the same noise seed, with the cache
// flush on and off. A mechanism that draws its noise in another order than
// its strategy, or records an event the server does not see, fails it.
func TestOwnerPatternEqualsMechanism(t *testing.T) {
	const (
		seeds   = 1000
		horizon = 48
	)
	type run struct {
		name  string
		strat func() (strategy.Strategy, error)
		mech  func() (*leakage.Pattern, error)
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xD1FF))
		u := make(leakage.Arrivals, horizon)
		rate := rng.Float64()
		for i := range u {
			u[i] = rng.Float64() < rate
		}
		d0 := rng.IntN(4)
		eps := 0.1 + 2*rng.Float64()
		period := record.Tick(1 + rng.IntN(8))
		theta := 8 * rng.Float64()
		flushEvery, flushSize := record.Tick(1+rng.IntN(16)), 1+rng.IntN(4)
		runs := []run{
			{"SUR", func() (strategy.Strategy, error) { return strategy.NewSUR(), nil },
				func() (*leakage.Pattern, error) { return leakage.MSUR(d0, u), nil }},
			{"SET", func() (strategy.Strategy, error) { return strategy.NewSET(), nil },
				func() (*leakage.Pattern, error) { return leakage.MSET(d0, horizon), nil }},
			{"OTO", func() (strategy.Strategy, error) { return strategy.NewOTO(), nil },
				func() (*leakage.Pattern, error) { return leakage.MOTO(d0), nil }},
		}
		for _, flush := range []bool{false, true} {
			f, s := record.Tick(0), 0
			if flush {
				f, s = flushEvery, flushSize
			}
			runs = append(runs,
				run{fmt.Sprintf("DP-Timer/flush=%v", flush),
					func() (strategy.Strategy, error) {
						return strategy.NewTimer(strategy.TimerConfig{Epsilon: eps, Period: period,
							FlushInterval: f, FlushSize: s, Source: dp.NewSeededSource(seed)})
					},
					func() (*leakage.Pattern, error) {
						return leakage.MTimer(d0, u, eps, period, f, s, dp.NewSeededSource(seed))
					}},
				run{fmt.Sprintf("DP-ANT/flush=%v", flush),
					func() (strategy.Strategy, error) {
						return strategy.NewANT(strategy.ANTConfig{Epsilon: eps, Threshold: theta,
							FlushInterval: f, FlushSize: s, Source: dp.NewSeededSource(seed)})
					},
					func() (*leakage.Pattern, error) {
						return leakage.MANT(d0, u, eps, theta, f, s, dp.NewSeededSource(seed))
					}})
		}
		for _, r := range runs {
			st, err := r.strat()
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.mech()
			if err != nil {
				t.Fatal(err)
			}
			if got := ownerPattern(t, st, d0, u); !slices.Equal(got.Events, want.Events) {
				t.Fatalf("seed %d, %s (d0=%d ε=%.3f T=%d θ=%.2f): the owner and the mechanism diverge\nowner     %s\nmechanism %s",
					seed, r.name, d0, eps, period, theta, got, want)
			}
		}
	}
}

// ownerPattern drives a fresh owner under s through d0 initial records and
// the trace u, one record on each tick u marks, and returns the transcript.
func ownerPattern(t *testing.T, s strategy.Strategy, d0 int, u leakage.Arrivals) *leakage.Pattern {
	t.Helper()
	o := newOwner(t, s)
	initial := make([]record.Record, d0)
	for i := range initial {
		initial[i] = yellow(0, uint16(1+i))
	}
	if err := o.Setup(initial); err != nil {
		t.Fatal(err)
	}
	for i, arrived := range u {
		var err error
		if arrived {
			err = o.Tick(yellow(i+1, uint16(1+i%record.NumLocations)))
		} else {
			err = o.Tick()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return o.Pattern()
}
