// Privacy sweep: how to choose ε, T and θ — the paper's Figures 5 and 6 as
// a tuning walkthrough.
//
// The sweep replays the same workload under DP-Timer and DP-ANT across a
// grid of privacy budgets, then across the non-privacy knobs, and prints
// the resulting accuracy/overhead curves. Two paper observations to watch:
//
//   - Observation 4: as ε grows, DP-Timer's error falls, but DP-ANT's error
//     *rises* — with large noise (small ε) ANT trips its threshold early and
//     syncs more often, accidentally improving freshness.
//   - Observation 6: with ε fixed, growing T or θ trades accuracy for fewer
//     dummies (less performance overhead).
//
// Run with:
//
//	go run ./examples/privacy-sweep
package main

import (
	"fmt"
	"log"

	"dpsync"
)

const (
	horizon = dpsync.Tick(2160)
	records = 920
	qEvery  = 90
)

func main() {
	trace, err := dpsync.GenerateTrace(dpsync.TraceConfig{
		Provider: dpsync.YellowCab,
		Horizon:  horizon,
		Records:  records,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Sweep 1: privacy budget eps (T=30 / theta=15 fixed) ===")
	fmt.Printf("%-8s %-22s %s\n", "eps", "DP-Timer err/dummies", "DP-ANT err/dummies")
	for _, eps := range []float64{0.01, 0.1, 0.5, 2, 10} {
		tErr, tDum := run(trace, func(seed uint64) (dpsync.Strategy, error) {
			return dpsync.NewDPTimer(dpsync.TimerConfig{
				Epsilon: eps, Period: 30, FlushInterval: 500, FlushSize: 15,
				Source: dpsync.SeededNoise(seed),
			})
		})
		aErr, aDum := run(trace, func(seed uint64) (dpsync.Strategy, error) {
			return dpsync.NewDPANT(dpsync.ANTConfig{
				Epsilon: eps, Threshold: 15, FlushInterval: 500, FlushSize: 15,
				Source: dpsync.SeededNoise(seed + 100),
			})
		})
		fmt.Printf("%-8g %-8.2f/%-13d %-8.2f/%d\n", eps, tErr, tDum, aErr, aDum)
	}

	fmt.Println()
	fmt.Println("=== Sweep 2: DP-Timer period T (eps=0.5 fixed) ===")
	fmt.Printf("%-8s %-12s %s\n", "T", "mean err", "dummies")
	for _, T := range []dpsync.Tick{5, 15, 30, 120, 480} {
		errV, dum := run(trace, func(seed uint64) (dpsync.Strategy, error) {
			return dpsync.NewDPTimer(dpsync.TimerConfig{
				Epsilon: 0.5, Period: T, FlushInterval: 500, FlushSize: 15,
				Source: dpsync.SeededNoise(seed + 200),
			})
		})
		fmt.Printf("%-8d %-12.2f %d\n", T, errV, dum)
	}

	fmt.Println()
	fmt.Println("=== Sweep 3: DP-ANT threshold theta (eps=0.5 fixed) ===")
	fmt.Printf("%-8s %-12s %s\n", "theta", "mean err", "dummies")
	for _, th := range []float64{2, 8, 15, 60, 240} {
		errV, dum := run(trace, func(seed uint64) (dpsync.Strategy, error) {
			return dpsync.NewDPANT(dpsync.ANTConfig{
				Epsilon: 0.5, Threshold: th, FlushInterval: 500, FlushSize: 15,
				Source: dpsync.SeededNoise(seed + 300),
			})
		})
		fmt.Printf("%-8g %-12.2f %d\n", th, errV, dum)
	}

	fmt.Println()
	fmt.Println("Rule of thumb: pick the largest eps your privacy policy tolerates, then")
	fmt.Println("raise T (or theta) until query error approaches your accuracy budget —")
	fmt.Println("every extra tick of delay buys fewer dummies and faster queries.")
}

// run replays the trace under one strategy, reporting mean Q2 error and the
// dummy-record overhead. Averaged over three noise seeds to steady the
// small-scale numbers.
func run(trace *dpsync.Trace, build func(seed uint64) (dpsync.Strategy, error)) (float64, int) {
	var errSum float64
	var dumSum, n int
	for seed := uint64(1); seed <= 3; seed++ {
		strat, err := build(seed)
		if err != nil {
			log.Fatal(err)
		}
		db, err := dpsync.NewObliDB()
		if err != nil {
			log.Fatal(err)
		}
		owner, err := dpsync.New(dpsync.Config{Database: db, Strategy: strat})
		if err != nil {
			log.Fatal(err)
		}
		if err := owner.Setup(nil); err != nil {
			log.Fatal(err)
		}
		for t := dpsync.Tick(1); t <= horizon; t++ {
			var terr error
			if r, ok := trace.ArrivalAt(t); ok {
				terr = owner.Tick(r)
			} else {
				terr = owner.Tick()
			}
			if terr != nil {
				log.Fatal(terr)
			}
			if t%qEvery == 0 {
				qe, _, err := owner.QueryError(dpsync.Q2())
				if err != nil {
					log.Fatal(err)
				}
				errSum += qe
				n++
			}
		}
		dumSum += owner.DB().Stats().DummyRecords
	}
	return errSum / float64(n), dumSum / 3
}
