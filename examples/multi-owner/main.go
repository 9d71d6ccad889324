// Multi-owner: eight independent data owners with mixed synchronization
// strategies (SUR / DP-Timer / DP-ANT), all hiding their update patterns
// against ONE multi-tenant gateway over ONE pipelined TCP connection.
//
// This is the paper's deployment story at (miniature) scale: each owner has
// a private namespace on the shared server — its own sealed store, its own
// update-pattern transcript, its own logical clock — and the gateway
// operator observes exactly the union of per-owner transcripts, each
// independently carrying its owner's ε guarantee. SUR owners leak their
// event streams; the DP owners don't.
//
// Run with:
//
//	go run ./examples/multi-owner
package main

import (
	"fmt"
	"log"

	"dpsync/internal/client"
	"dpsync/internal/core"
	"dpsync/internal/dp"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/strategy"
)

func main() {
	// 1. One gateway, standing in for the outsourced cloud server. The key
	//    is the enclave attestation/provisioning stand-in, shared with the
	//    owners.
	key, err := seal.NewRandomKey()
	if err != nil {
		log.Fatal(err)
	}
	gw, err := gateway.New("127.0.0.1:0", gateway.Config{Key: key})
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	defer gw.Close()

	// 2. One pipelined connection carrying all eight owners' traffic
	//    (request IDs multiplex them; the binary codec is negotiated).
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	// 3. Eight owners, cycling the strategy mix. Each gets its own
	//    namespace ("owner-0" ... "owner-7") and therefore its own
	//    transcript on the gateway.
	type tenant struct {
		name  string
		strat string
		owner *core.Owner
	}
	var tenants []tenant
	for i := 0; i < 8; i++ {
		var (
			strat strategy.Strategy
			label string
		)
		switch i % 3 {
		case 0:
			strat, label = strategy.NewSUR(), "SUR"
		case 1:
			s, err := strategy.NewTimer(strategy.TimerConfig{
				Epsilon: 0.5, Period: 30, FlushInterval: 200, FlushSize: 5,
				Source: dp.NewSeededSource(uint64(100 + i)),
			})
			if err != nil {
				log.Fatal(err)
			}
			strat, label = s, "DP-Timer"
		default:
			s, err := strategy.NewANT(strategy.ANTConfig{
				Epsilon: 0.5, Threshold: 8, FlushInterval: 200, FlushSize: 5,
				Source: dp.NewSeededSource(uint64(200 + i)),
			})
			if err != nil {
				log.Fatal(err)
			}
			strat, label = s, "DP-ANT"
		}
		name := fmt.Sprintf("owner-%d", i)
		owner, err := core.New(core.Config{Strategy: strat, Database: conn.Owner(name)})
		if err != nil {
			log.Fatal(err)
		}
		if err := owner.Setup(nil); err != nil {
			log.Fatal(err)
		}
		tenants = append(tenants, tenant{name, label, owner})
	}

	// 4. Live 600 ticks. Owner i receives a record every 2+i ticks — eight
	//    different event streams, interleaved on the shared connection.
	for t := 1; t <= 600; t++ {
		for i, tn := range tenants {
			var err error
			if t%(2+i) == 0 {
				err = tn.owner.Tick(record.Record{
					PickupTime: record.Tick(t),
					PickupID:   uint16((13*t+i)%record.NumLocations + 1),
					Provider:   record.YellowCab,
				})
			} else {
				err = tn.owner.Tick()
			}
			if err != nil {
				log.Fatal(err)
			}
		}
	}

	// 5. What did each owner achieve, and what did the operator see?
	fmt.Printf("%-9s %-9s %8s %8s %8s %10s %9s\n",
		"owner", "strategy", "ε", "events", "uploads", "Q1 error", "gap")
	for _, tn := range tenants {
		qe, _, err := tn.owner.QueryError(query.Q1())
		if err != nil {
			log.Fatal(err)
		}
		pat := gw.ObservedPattern(tn.name)
		eps := fmt.Sprintf("%.1f", tn.owner.Strategy().Epsilon())
		if tn.strat == "SUR" {
			eps = "∞"
		}
		fmt.Printf("%-9s %-9s %8s %8d %8d %10.1f %9d\n",
			tn.name, tn.strat, eps, tn.owner.LogicalSize(), pat.Updates(),
			qe, tn.owner.LogicalGap())
	}

	// 6. The isolation invariant, concretely: the SUR owner's transcript is
	//    its exact event stream; a DP-Timer owner's is a fixed-period,
	//    noisy-volume schedule — and neither contains a trace of the other.
	fmt.Printf("\noperator's view of %s (SUR, leaks everything): %d upload events\n",
		tenants[0].name, gw.ObservedPattern(tenants[0].name).Updates())
	p1 := gw.ObservedPattern(tenants[1].name)
	fmt.Printf("operator's view of %s (DP-Timer, ε=0.5): %d upload events, first few:", tenants[1].name, p1.Updates())
	for i, e := range p1.Events {
		if i >= 4 {
			break
		}
		fmt.Printf(" (#%d, %d)", e.Tick, e.Volume)
	}
	fmt.Println()
}
