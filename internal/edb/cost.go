package edb

import (
	"time"

	"dpsync/internal/query"
)

// Cost is the modeled query-execution time (QET) of one query, the paper's
// primary efficiency metric. The original evaluation measured wall-clock
// seconds on an SGX testbed; without that hardware this reproduction uses a
// calibrated linear cost model: each query kind has a fixed per-query
// overhead plus a per-record (or per-pair, for joins) coefficient, with
// constants fitted to Table 5's SUR and OTO rows. Record counts — the only
// quantity DP-Sync actually changes — drive everything else.
type Cost struct {
	// Seconds is the modeled QET.
	Seconds float64
	// RecordsScanned is how many stored ciphertexts the query touched.
	RecordsScanned int64
	// PairsCompared is the oblivious-join comparison count (Q3 only).
	PairsCompared int64
}

// Duration converts the modeled cost to a time.Duration.
func (c Cost) Duration() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// Add returns the sum of two costs.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		Seconds:        c.Seconds + o.Seconds,
		RecordsScanned: c.RecordsScanned + o.RecordsScanned,
		PairsCompared:  c.PairsCompared + o.PairsCompared,
	}
}

// CostModel holds the calibrated constants for one scheme.
type CostModel struct {
	// Base is per-query fixed overhead in seconds, by query kind.
	Base map[query.Kind]float64
	// PerRecord is seconds per scanned ciphertext, by query kind.
	PerRecord map[query.Kind]float64
	// PerPair is seconds per oblivious join comparison (JoinCount only).
	PerPair float64
}

// Linear returns the modeled cost of scanning n records for query kind k.
func (m CostModel) Linear(k query.Kind, n int64) Cost {
	return Cost{
		Seconds:        m.Base[k] + m.PerRecord[k]*float64(n),
		RecordsScanned: n,
	}
}

// Join returns the modeled cost of an oblivious join over nl × nr pairs.
func (m CostModel) Join(nl, nr int64) Cost {
	return Cost{
		Seconds:        m.Base[query.JoinCount] + m.PerPair*float64(nl)*float64(nr),
		RecordsScanned: nl + nr,
		PairsCompared:  nl * nr,
	}
}

// ObliDBCostModel is calibrated against Table 5's ObliDB rows: with SUR the
// mean scanned size is ≈ |D|/2 ≈ 9.2k records, giving 5.39 s (Q1),
// 2.32 s (Q2); the O(N²) join averages ≈ 1.3e8 pairs for 2.77 s; OTO's
// near-empty store isolates the per-query overhead (0.041/0.071/0.095 s).
// Every caller gets the same maps, built once per process: read them, never
// write them.
func ObliDBCostModel() CostModel { return obliDBCost }

var obliDBCost = CostModel{
	Base: map[query.Kind]float64{
		query.RangeCount: 0.041,
		query.GroupCount: 0.071,
		query.JoinCount:  0.095,
		query.SumFare:    0.041,
	},
	PerRecord: map[query.Kind]float64{
		query.RangeCount: 580e-6, // oblivious select writes its result set
		query.GroupCount: 244e-6, // aggregate-only scan
		query.JoinCount:  0,      // join cost dominated by the pair term
		query.SumFare:    244e-6, // aggregate-only, like the group-by scan
	},
	PerPair: 20.5e-9,
}

// CrypteCostModel is calibrated the same way against the Cryptε rows
// (Q1 20.94 s, Q2 76.34 s at mean size ≈ 9.2k; OTO overheads 0.33/0.72 s).
// Per-record costs are ~10× ObliDB's: every record is a large homomorphic
// one-hot encoding rather than a sealed 1 KiB row. Shared and read-only like
// ObliDBCostModel's.
func CrypteCostModel() CostModel { return crypteCost }

var crypteCost = CostModel{
	Base: map[query.Kind]float64{
		query.RangeCount: 0.33,
		query.GroupCount: 0.72,
		query.SumFare:    0.33,
	},
	PerRecord: map[query.Kind]float64{
		query.RangeCount: 2.24e-3,
		query.GroupCount: 8.21e-3,
		query.SumFare:    2.24e-3,
	},
}
