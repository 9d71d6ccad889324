package query

import (
	"fmt"
	"math"
	"sort"

	"dpsync/internal/record"
)

// Aggregates is an incrementally maintained sufficient statistic for the
// bundled evaluation queries: per-provider real-record counts, per-pickupID
// histograms (Q1 range counts, Q2 group-bys), per-pickupID fare totals (Q4),
// and the pickupTime join key of every record (Q3). Feeding every stored
// record through Observe lets AnswerFor produce answers bit-identical to
// executing the naive relational plans over the full table — counts and fare
// sums are integers well below 2^53, so float64 accumulation order cannot
// perturb them — without a rescan.
//
// Every stored record takes the same path, real or dummy: a dummy is a record
// of weight 0 and a real record one of weight 1, and Observe adds the weight
// to the record's count and the weight times its fare to its fare sum. So the
// statistic is sized by the record count, which the update pattern publishes,
// never by the real/dummy split DP-Sync spends ε to hide, and answers still
// equal the Appendix-B rewrite that filters dummies inside the engine:
// AnswerFor matches Evaluate over dummy-bearing tables and Truth over
// dummy-free ones.
//
// The statistic is indexed, not hashed. A pickupID is bounded by
// record.NumLocations, so each provider's histogram is one dense array and
// Observe is two indexed adds; the join key arrives near-monotone (an owner
// uploads in tick order), so it is an append-only slice kept sorted by
// construction. Three inputs fall outside that shape and are handled where
// they occur, never by a setting. record.Decode validates nothing, so an
// authenticated record can carry any uint16 pickupID: those outside the
// array's domain live in a small map beside it, and every range or group
// answer still counts them exactly as the naive plan does. A table's first
// sparseMax records, real or dummy, live in that map too — a serving gateway
// holds thousands of tenants, most of them young, and 4 KB of array for a
// handful of records would make the youngest tenants the most expensive — and
// the next record moves them into the array for good; the move follows the
// table's record count, which the update pattern publishes, and a map of at
// most sparseMax entries has one size whatever its keys. And a real join key
// that arrives out of order clears the sorted flag, so the next join sorts
// once; a dummy's key repeats the table's last one, so a dummy never does.
// Costs: Observe O(1); RangeCount and SumFare a walk of at most NumLocations
// slots; GroupCount a copy; JoinCount a merge walk of the two key slices, 9
// bytes a record (key and weight), which is the only part of the statistic
// that grows.
//
// The zero value is not usable; call NewAggregates. Not safe for concurrent
// use; callers (enclave, owner, simulator) serialize behind their own locks.
type Aggregates struct {
	// prov holds the tables seen so far, in first-seen order: the paper's
	// workloads have two, so a linear scan beats hashing the provider byte.
	prov []*providerAgg
}

// idSlot is one pickupID's statistic: COUNT(*) and SUM(fareCents) side by
// side, so the two adds of one Observe land on one cache line.
type idSlot struct{ count, fares int64 }

// plus is s with one record of weight w and fare f added.
func (s idSlot) plus(w int64, f uint32) idSlot { return idSlot{s.count + w, s.fares + w*int64(f)} }

// sparseMax is how many records, real or dummy, a table holds before its
// dense array is allocated: what fits the smallest form of a Go map.
const sparseMax = 8

// providerAgg holds one table's statistics, each record weighted.
type providerAgg struct {
	p record.Provider
	// dense is indexed by pickupID over 0..NumLocations (0 is not a zone, but a
	// record may carry it and a range may cover it) and is nil until the table
	// outgrows sparseMax records. sparse holds every pickupID dense does not:
	// all of them until then, only the out-of-domain ones after.
	dense  *[record.NumLocations + 1]idSlot
	sparse map[uint16]idSlot
	// times is the join key (pickupTime) of every record and weights its
	// weight, in parallel, ascending by key unless unsorted is set. Observe
	// appends and compares with the last key; a join sorts them when it needs
	// the order, the weights moving with their keys.
	times    []record.Tick
	weights  []uint8
	unsorted bool
}

// NewAggregates returns an empty statistic.
func NewAggregates() *Aggregates { return &Aggregates{} }

// agg returns p's table statistic, nil if no record of p was observed.
func (a *Aggregates) agg(p record.Provider) *providerAgg {
	for _, pa := range a.prov {
		if pa.p == p {
			return pa
		}
	}
	return nil
}

// Observe folds one stored record into the statistic with its weight — 1 if
// real, 0 if a dummy — so a dummy changes no answer and costs what a real
// record costs. A dummy's join key is the table's last (the least while there
// is none), so it never unsorts the slice.
func (a *Aggregates) Observe(r record.Record) {
	pa := a.agg(r.Provider)
	if pa == nil {
		pa = &providerAgg{p: r.Provider, sparse: map[uint16]idSlot{}}
		a.prov = append(a.prov, pa)
	}
	w, t, last := int64(1), r.PickupTime, record.Tick(math.MinInt64)
	if n := len(pa.times); n > 0 {
		last = pa.times[n-1]
	}
	if r.Dummy {
		w, t = 0, last
	}
	if len(pa.times) == sparseMax {
		pa.densify()
	}
	if id := r.PickupID; pa.dense != nil && int(id) < len(pa.dense) {
		pa.dense[id] = pa.dense[id].plus(w, r.FareCents)
	} else {
		pa.sparse[id] = pa.sparse[id].plus(w, r.FareCents)
	}
	pa.unsorted = pa.unsorted || t < last
	pa.times = append(pa.times, t)
	pa.weights = append(pa.weights, uint8(w))
}

// densify allocates the dense array and moves the in-domain pickupIDs into it.
func (pa *providerAgg) densify() {
	pa.dense = new([record.NumLocations + 1]idSlot)
	for id, s := range pa.sparse {
		if int(id) < len(pa.dense) {
			pa.dense[id] = s
			delete(pa.sparse, id)
		}
	}
}

// ObserveAll folds a batch.
func (a *Aggregates) ObserveAll(rs []record.Record) {
	for _, r := range rs {
		a.Observe(r)
	}
}

// Real returns the number of real records observed for provider p: the sum of
// the table's weights.
func (a *Aggregates) Real(p record.Provider) int64 {
	var n int64
	if pa := a.agg(p); pa != nil {
		for _, w := range pa.weights {
			n += int64(w)
		}
	}
	return n
}

// AnswerFor evaluates q from the maintained statistics. The answer equals
// Evaluate(q, tables) over the observed records for every bundled query
// kind; unknown kinds error exactly as plan compilation would.
func (a *Aggregates) AnswerFor(q Query) (Answer, error) {
	if err := q.Validate(); err != nil {
		return Answer{}, err
	}
	switch q.Kind {
	case RangeCount:
		return Answer{Scalar: float64(a.rangeSum(q.Provider, q.Lo, q.Hi, false))}, nil
	case SumFare:
		return Answer{Scalar: float64(a.rangeSum(q.Provider, q.Lo, q.Hi, true))}, nil
	case GroupCount:
		groups := make([]float64, record.NumLocations)
		if pa := a.agg(q.Provider); pa != nil {
			if pa.dense != nil {
				for i := range groups {
					groups[i] = float64(pa.dense[i+1].count)
				}
			}
			for id, s := range pa.sparse {
				if id >= 1 && id <= record.NumLocations {
					groups[id-1] = float64(s.count)
				}
			}
		}
		return Answer{Groups: groups}, nil
	case JoinCount:
		return Answer{Scalar: float64(a.joinCount(q.Provider, q.JoinWith))}, nil
	default:
		return Answer{}, fmt.Errorf("query: cannot answer kind %v incrementally", q.Kind)
	}
}

// rangeSum adds the per-pickupID counters (or fare totals) over lo..hi: the
// dense slots the range covers, plus whichever sparse IDs fall in it.
func (a *Aggregates) rangeSum(p record.Provider, lo, hi uint16, fares bool) int64 {
	pa := a.agg(p)
	if pa == nil {
		return 0
	}
	var sum idSlot
	if pa.dense != nil && int(lo) < len(pa.dense) {
		for _, s := range pa.dense[lo:min(int(hi)+1, len(pa.dense))] {
			sum.count += s.count
			sum.fares += s.fares
		}
	}
	for id, s := range pa.sparse {
		if id >= lo && id <= hi {
			sum.count += s.count
			sum.fares += s.fares
		}
	}
	if fares {
		return sum.fares
	}
	return sum.count
}

// Len, Less and Swap sort a table's join keys, each weight moving with its
// key; joinCount sorts them when an out-of-order arrival since the last join
// left them unsorted.
func (pa *providerAgg) Len() int           { return len(pa.times) }
func (pa *providerAgg) Less(i, j int) bool { return pa.times[i] < pa.times[j] }
func (pa *providerAgg) Swap(i, j int) {
	pa.times[i], pa.times[j] = pa.times[j], pa.times[i]
	pa.weights[i], pa.weights[j] = pa.weights[j], pa.weights[i]
}

// joinCount returns |T_left ⋈ T_right| on pickupTime: the sum over join keys
// of the product of the two tables' summed weights at that key, by one merge
// walk over the two sorted key slices (for a self-join both sides are the
// same slice and the product squares each key's weight).
func (a *Aggregates) joinCount(left, right record.Provider) int64 {
	la, ra := a.agg(left), a.agg(right)
	if la == nil || ra == nil {
		return 0
	}
	for _, pa := range [...]*providerAgg{la, ra} {
		if pa.unsorted {
			sort.Sort(pa)
			pa.unsorted = false
		}
	}
	l, r := la.times, ra.times
	var total int64
	for i, j := 0, 0; i < len(l) && j < len(r); {
		switch k := l[i]; {
		case k < r[j]:
			i++
		case k > r[j]:
			j++
		default:
			var wl, wr int64
			for ; i < len(l) && l[i] == k; i++ {
				wl += int64(la.weights[i])
			}
			for ; j < len(r) && r[j] == k; j++ {
				wr += int64(ra.weights[j])
			}
			total += wl * wr
		}
	}
	return total
}
