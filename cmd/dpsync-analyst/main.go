// Command dpsync-analyst runs the analyst of the three-party model: it
// connects to a dpsync-server and evaluates the paper's queries over one
// owner's outsourced (and possibly still-synchronizing) data; -owner names
// that owner's namespace, as passed to dpsync-owner.
//
// Usage:
//
//	dpsync-analyst -server 127.0.0.1:7700 -key-file shared.key -owner alice -query q1
//	dpsync-analyst -owner alice -query q2 -watch 2s     # re-poll as the owner syncs
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/query"
	"dpsync/internal/seal"
)

func main() {
	var (
		serverAddr = flag.String("server", "127.0.0.1:7700", "dpsync-server address")
		keyFile    = flag.String("key-file", "dpsync.key", "hex-encoded shared data key")
		ownerID    = flag.String("owner", "owner", "owner namespace on the server")
		queryName  = flag.String("query", "q1", "q1|q2|q3")
		watch      = flag.Duration("watch", 0, "re-run every interval (0 = once)")
		topN       = flag.Int("top", 5, "for q2: show the N busiest zones")
	)
	flag.Parse()

	key, err := seal.ReadKeyFile(*keyFile)
	if err != nil {
		log.Fatalf("dpsync-analyst: %v", err)
	}
	conn, err := client.DialGateway(*serverAddr, key)
	if err != nil {
		log.Fatalf("dpsync-analyst: %v", err)
	}
	defer conn.Close()
	cl := conn.Owner(*ownerID)

	q, err := pickQuery(*queryName)
	if err != nil {
		log.Fatalf("dpsync-analyst: %v", err)
	}

	for {
		ans, cost, err := cl.Query(q)
		if err != nil {
			log.Fatalf("dpsync-analyst: query: %v", err)
		}
		stamp := time.Now().Format("15:04:05")
		switch q.Kind {
		case query.GroupCount:
			fmt.Printf("[%s] %v: total %.0f pickups across %d zones (modeled QET %.2fs, scanned %d)\n",
				stamp, q.Kind, ans.Total(), nonZero(ans.Groups), cost.Seconds, cost.RecordsScanned)
			printTop(ans.Groups, *topN)
		default:
			fmt.Printf("[%s] %v = %.0f (modeled QET %.2fs, scanned %d records",
				stamp, q.Kind, ans.Scalar, cost.Seconds, cost.RecordsScanned)
			if cost.PairsCompared > 0 {
				fmt.Printf(", %d join pairs", cost.PairsCompared)
			}
			fmt.Println(")")
		}
		if *watch <= 0 {
			return
		}
		time.Sleep(*watch)
	}
}

func pickQuery(name string) (query.Query, error) {
	switch strings.ToLower(name) {
	case "q1":
		return query.Q1(), nil
	case "q2":
		return query.Q2(), nil
	case "q3":
		return query.Q3(), nil
	default:
		return query.Query{}, fmt.Errorf("unknown query %q (want q1, q2 or q3)", name)
	}
}

func nonZero(groups []float64) int {
	n := 0
	for _, g := range groups {
		if g > 0 {
			n++
		}
	}
	return n
}

func printTop(groups []float64, n int) {
	type zone struct {
		id    int
		count float64
	}
	zs := make([]zone, 0, len(groups))
	for i, g := range groups {
		if g > 0 {
			zs = append(zs, zone{id: i + 1, count: g})
		}
	}
	for k := 0; k < n && k < len(zs); k++ {
		best := k
		for i := k + 1; i < len(zs); i++ {
			if zs[i].count > zs[best].count {
				best = i
			}
		}
		zs[k], zs[best] = zs[best], zs[k]
		fmt.Printf("    zone %-4d %.0f pickups\n", zs[k].id, zs[k].count)
	}
}
