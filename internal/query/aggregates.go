package query

import (
	"fmt"
	"slices"

	"dpsync/internal/record"
)

// Aggregates is an incrementally maintained sufficient statistic for the
// bundled evaluation queries: per-provider real-record counts, per-pickupID
// histograms (Q1 range counts, Q2 group-bys), per-pickupID fare totals (Q4),
// and the pickupTime join key of every real record (Q3). Feeding every stored
// record through Observe lets AnswerFor produce answers bit-identical to
// executing the naive relational plans over the full table — counts and fare
// sums are integers well below 2^53, so float64 accumulation order cannot
// perturb them — without a rescan.
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
// sparseMax records live in that map too — a serving gateway holds thousands
// of tenants, most of them young, and 4 KB of array for a handful of records
// would make the youngest tenants the most expensive — and the next record
// moves them into the array for good. And a join key that arrives out of order
// clears the sorted flag, so the next join sorts once. Costs: Observe O(1);
// RangeCount and SumFare a walk of at most NumLocations slots; GroupCount a
// copy; JoinCount a merge walk of the two key slices, 8 bytes a real record,
// which is the only part of the statistic that grows.
//
// Dummy records are skipped at Observe time, mirroring the Appendix-B
// rewrite that filters them inside the engine: AnswerFor therefore matches
// Evaluate over dummy-bearing tables and Truth over dummy-free ones. The
// zero value is not usable; call NewAggregates. Not safe for concurrent use;
// callers (enclave, owner, simulator) serialize behind their own locks.
type Aggregates struct {
	// prov holds the tables seen so far, in first-seen order: the paper's
	// workloads have two, so a linear scan beats hashing the provider byte.
	prov []*providerAgg
}

// idSlot is one pickupID's statistic: COUNT(*) and SUM(fareCents) side by
// side, so the two adds of one Observe land on one cache line.
type idSlot struct{ count, fares int64 }

// sparseMax is how many real records a table holds before its dense array is
// allocated: what fits the smallest form of a Go map.
const sparseMax = 8

// providerAgg holds one table's statistics over real records only.
type providerAgg struct {
	p    record.Provider
	real int64 // COUNT(*)
	// dense is indexed by pickupID over 0..NumLocations (0 is not a zone, but a
	// record may carry it and a range may cover it) and is nil until the table
	// outgrows sparseMax records. sparse holds every pickupID dense does not:
	// all of them until then, only the out-of-domain ones after.
	dense  *[record.NumLocations + 1]idSlot
	sparse map[uint16]idSlot
	// times is the join key (pickupTime) of every real record, ascending while
	// sorted is set. Observe appends and compares with its predecessor;
	// sortedTimes restores the order when a join needs it.
	times  []record.Tick
	sorted bool
}

// NewAggregates returns an empty statistic.
func NewAggregates() *Aggregates { return &Aggregates{} }

// agg returns p's table statistic, nil if no real record of p was observed.
func (a *Aggregates) agg(p record.Provider) *providerAgg {
	for _, pa := range a.prov {
		if pa.p == p {
			return pa
		}
	}
	return nil
}

// Observe folds one stored record into the statistic. Dummy records are
// ignored — they never contribute to rewritten-plan answers.
func (a *Aggregates) Observe(r record.Record) {
	if r.Dummy {
		return
	}
	pa := a.agg(r.Provider)
	if pa == nil {
		pa = &providerAgg{p: r.Provider, sorted: true}
		a.prov = append(a.prov, pa)
	}
	pa.real++
	if pa.dense == nil && pa.real > sparseMax {
		pa.densify()
	}
	if pa.dense != nil && int(r.PickupID) < len(pa.dense) {
		s := &pa.dense[r.PickupID]
		s.count++
		s.fares += int64(r.FareCents)
	} else {
		if pa.sparse == nil {
			pa.sparse = map[uint16]idSlot{}
		}
		s := pa.sparse[r.PickupID]
		s.count++
		s.fares += int64(r.FareCents)
		pa.sparse[r.PickupID] = s
	}
	if n := len(pa.times); n > 0 && r.PickupTime < pa.times[n-1] {
		pa.sorted = false
	}
	pa.times = append(pa.times, r.PickupTime)
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

// Real returns the number of real records observed for provider p.
func (a *Aggregates) Real(p record.Provider) int64 {
	if pa := a.agg(p); pa != nil {
		return pa.real
	}
	return 0
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

// sortedTimes returns the join keys ascending, sorting them first if an
// out-of-order arrival since the last join left them otherwise.
func (pa *providerAgg) sortedTimes() []record.Tick {
	if !pa.sorted {
		slices.Sort(pa.times)
		pa.sorted = true
	}
	return pa.times
}

// joinCount returns |T_left ⋈ T_right| on pickupTime: the sum over join keys
// of the per-table multiplicity product, by one merge walk over the two
// sorted key slices (for a self-join both sides are the same slice and the
// product squares each multiplicity).
func (a *Aggregates) joinCount(left, right record.Provider) int64 {
	la, ra := a.agg(left), a.agg(right)
	if la == nil || ra == nil {
		return 0
	}
	l, r := la.sortedTimes(), ra.sortedTimes()
	var total int64
	for i, j := 0, 0; i < len(l) && j < len(r); {
		switch k := l[i]; {
		case k < r[j]:
			i++
		case k > r[j]:
			j++
		default:
			i0, j0 := i, j
			for i < len(l) && l[i] == k {
				i++
			}
			for j < len(r) && r[j] == k {
				j++
			}
			total += int64(i-i0) * int64(j-j0)
		}
	}
	return total
}
