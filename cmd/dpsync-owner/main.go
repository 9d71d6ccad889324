// Command dpsync-owner runs the data-owner half of the three-party model:
// it replays a synthetic taxi trace (or a live stdin feed) against a remote
// dpsync-server, synchronizing under a chosen strategy. Records are sealed
// locally, a sync's batch as one message; the server sees only record counts
// (the message's length) and times. -owner names
// the namespace this owner's data lives in on the (multi-tenant) server;
// analysts pass the same name.
//
// Usage:
//
//	dpsync-owner -server 127.0.0.1:7700 -key-file shared.key -owner alice \
//	    -strategy dp-timer -epsilon 0.5 -period 30 -ticks 2000 -tick-ms 10
//
// Each tick is one time unit; -tick-ms compresses simulated minutes into
// real milliseconds so a month replays in minutes.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/core"
	"dpsync/internal/dp"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/strategy"
	"dpsync/internal/workload"
)

func main() {
	var (
		serverAddr = flag.String("server", "127.0.0.1:7700", "dpsync-server address")
		keyFile    = flag.String("key-file", "dpsync.key", "hex-encoded shared data key")
		ownerID    = flag.String("owner", "owner", "owner namespace on the server")
		stratName  = flag.String("strategy", "dp-timer", "sur|oto|set|dp-timer|dp-ant")
		epsilon    = flag.Float64("epsilon", 0.5, "update-pattern privacy budget (DP strategies)")
		period     = flag.Int64("period", 30, "DP-Timer period T")
		threshold  = flag.Float64("threshold", 15, "DP-ANT threshold theta")
		flushEvery = flag.Int64("flush-interval", 2000, "cache flush interval f (0 disables)")
		flushSize  = flag.Int("flush-size", 15, "cache flush size s")
		ticks      = flag.Int64("ticks", 2000, "number of ticks to replay")
		tickMs     = flag.Int("tick-ms", 5, "real milliseconds per tick")
		records    = flag.Int("records", 0, "trace records (0 = scale the paper's Yellow density)")
		seed       = flag.Uint64("seed", 1, "trace + noise seed")
	)
	flag.Parse()

	key, err := seal.ReadKeyFile(*keyFile)
	if err != nil {
		log.Fatalf("dpsync-owner: %v", err)
	}
	conn, err := client.DialGateway(*serverAddr, key)
	if err != nil {
		log.Fatalf("dpsync-owner: %v", err)
	}
	defer conn.Close()
	cl := conn.Owner(*ownerID)

	strat, err := buildStrategy(*stratName, *epsilon, *period, *threshold, *flushEvery, *flushSize, *seed)
	if err != nil {
		log.Fatalf("dpsync-owner: %v", err)
	}
	owner, err := core.New(core.Config{Strategy: strat, Database: cl})
	if err != nil {
		log.Fatalf("dpsync-owner: %v", err)
	}

	n := *records
	if n == 0 {
		n = int(float64(workload.YellowRecords) * float64(*ticks) / float64(workload.JuneHorizon))
		if n < 1 {
			n = 1
		}
	}
	trace, err := workload.Generate(workload.Config{
		Provider: record.YellowCab,
		Horizon:  record.Tick(*ticks),
		Records:  n,
		Seed:     *seed,
	})
	if err != nil {
		log.Fatalf("dpsync-owner: %v", err)
	}

	if err := owner.Setup(nil); err != nil {
		log.Fatalf("dpsync-owner: setup: %v", err)
	}
	log.Printf("replaying %d records over %d ticks under %s", trace.Len(), *ticks, strat.Name())

	start := time.Now()
	for t := record.Tick(1); t <= record.Tick(*ticks); t++ {
		var terr error
		if r, ok := trace.ArrivalAt(t); ok {
			terr = owner.Tick(r)
		} else {
			terr = owner.Tick()
		}
		if terr != nil {
			log.Fatalf("dpsync-owner: tick %d: %v", t, terr)
		}
		if *tickMs > 0 {
			time.Sleep(time.Duration(*tickMs) * time.Millisecond)
		}
		if t%500 == 0 {
			log.Printf("tick %d: received=%d uploaded=%d gap=%d",
				t, owner.LogicalSize(), owner.UploadedReal(), owner.LogicalGap())
		}
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("records received:   %d\n", owner.LogicalSize())
	fmt.Printf("records uploaded:   %d real\n", owner.UploadedReal())
	fmt.Printf("final logical gap:  %d\n", owner.LogicalGap())
	fmt.Printf("update pattern:     %d events, %d total volume\n",
		owner.Pattern().Updates(), owner.Pattern().TotalVolume())
	st := cl.Stats()
	fmt.Printf("outsourced:         %d records (%d dummies)\n", st.Records, st.DummyRecords)
}

func buildStrategy(name string, eps float64, period int64, theta float64, f int64, s int, seed uint64) (strategy.Strategy, error) {
	src := dp.NewLockedSource(dp.NewSeededSource(seed))
	switch strings.ToLower(name) {
	case "sur":
		return strategy.NewSUR(), nil
	case "oto":
		return strategy.NewOTO(), nil
	case "set":
		return strategy.NewSET(), nil
	case "dp-timer":
		return strategy.NewTimer(strategy.TimerConfig{
			Epsilon: eps, Period: record.Tick(period),
			FlushInterval: record.Tick(f), FlushSize: s, Source: src,
		})
	case "dp-ant":
		return strategy.NewANT(strategy.ANTConfig{
			Epsilon: eps, Threshold: theta,
			FlushInterval: record.Tick(f), FlushSize: s, Source: src,
		})
	default:
		return nil, fmt.Errorf("unknown strategy %q", name)
	}
}
