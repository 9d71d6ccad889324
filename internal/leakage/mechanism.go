package leakage

import (
	"fmt"

	"dpsync/internal/dp"
	"dpsync/internal/record"
)

// Arrivals is a logical-update trace: Arrivals[t] reports whether u_{t+1} ≠ ∅
// (one real record arrived at tick t+1). Together with |D0| it is all the
// data the update-pattern mechanisms depend on — the mechanisms never see
// record contents, which is the point of Definition 5.
type Arrivals []bool

// Count returns the number of arrivals in the half-open tick window [from, to).
func (a Arrivals) Count(from, to int) int {
	if from < 0 {
		from = 0
	}
	if to > len(a) {
		to = len(a)
	}
	n := 0
	for i := from; i < to; i++ {
		if a[i] {
			n++
		}
	}
	return n
}

// Total returns the total number of arrivals.
func (a Arrivals) Total() int { return a.Count(0, len(a)) }

// MTimer is the paper's M_timer (Table 4): the mechanism that simulates the
// update pattern of the DP-Timer strategy. Running it over an arrival trace
// produces the exact distribution of patterns the real strategy would emit —
// core.TestOwnerPatternEqualsMechanism holds it, with MANT, MSUR, MSET and
// MOTO, to core.Owner under a shared seed, over 1,000 seeds.
//
// Noise draw order (must stay in sync with strategy.Timer): one Lap(1/ε) for
// M_setup, then one Lap(1/ε) per closed window in time order.
func MTimer(d0 int, u Arrivals, eps float64, period record.Tick, flushInterval record.Tick, flushSize int, src dp.Source) (*Pattern, error) {
	if period <= 0 {
		return nil, fmt.Errorf("leakage: period must be positive")
	}
	mech, err := dp.NewMechanism(eps, src)
	if err != nil {
		return nil, err
	}
	p := &Pattern{}
	// M_setup: (0, |D0| + Lap(1/ε)). Setup always runs — the server sees the
	// outsourced structure being created even when the noisy count is zero.
	p.Record(0, mech.NoisyCountInt(d0), false)
	// M_update: for each window, (i·T, Lap(1/ε) + Σ 1|u_k ≠ ∅).
	for t := record.Tick(1); int(t) <= len(u); t++ {
		if t%period == 0 {
			c := u.Count(int(t-period), int(t))
			if n := mech.NoisyCountInt(c); n > 0 {
				p.Record(t, n, false)
			}
		}
		// M_flush: (j·f, s).
		if flushInterval > 0 && flushSize > 0 && t%flushInterval == 0 {
			p.Record(t, flushSize, true)
		}
	}
	return p, nil
}

// MANT is the paper's M_ANT (Table 4): the mechanism simulating DP-ANT's
// update pattern via repeated sparse-vector windows.
//
// Noise draw order (must stay in sync with strategy.ANT): the first noisy
// threshold Lap(2/ε1) is drawn at construction, then the setup release
// Lap(1/ε) — mirroring NewANT followed by InitialCount — then per tick one
// Lap(4/ε1), plus Lap(1/ε2) and a fresh threshold on each firing.
func MANT(d0 int, u Arrivals, eps, theta float64, flushInterval record.Tick, flushSize int, src dp.Source) (*Pattern, error) {
	if src == nil {
		src = dp.CryptoSource{}
	}
	eps1, eps2 := eps/2, eps/2
	sv, err := dp.NewSparseVector(eps1, theta, src)
	if err != nil {
		return nil, err
	}
	setup, err := dp.NewMechanism(eps, src)
	if err != nil {
		return nil, err
	}
	fetch, err := dp.NewMechanism(eps2, src)
	if err != nil {
		return nil, err
	}
	p := &Pattern{}
	// M_setup: (0, |D0| + Lap(1/ε)).
	p.Record(0, setup.NoisyCountInt(d0), false)
	// M_update: repeated M_sparse over the disjoint inter-sync windows.
	c := 0
	for t := record.Tick(1); int(t) <= len(u); t++ {
		if u[t-1] {
			c++
		}
		if sv.Above(c) {
			if n := fetch.NoisyCountInt(c); n > 0 {
				p.Record(t, n, false)
			}
			c = 0
			sv.Reset()
		}
		if flushInterval > 0 && flushSize > 0 && t%flushInterval == 0 {
			p.Record(t, flushSize, true)
		}
	}
	return p, nil
}

// MSUR simulates the (non-private) SUR pattern: the setup upload, observed
// even when D0 is empty, then the arrival trace itself.
func MSUR(d0 int, u Arrivals) *Pattern {
	p := &Pattern{}
	p.Record(0, d0, false)
	for t := record.Tick(1); int(t) <= len(u); t++ {
		if u[t-1] {
			p.Record(t, 1, false)
		}
	}
	return p
}

// MSET simulates the SET pattern: one record per tick, unconditionally.
func MSET(d0 int, horizon record.Tick) *Pattern {
	p := &Pattern{}
	p.Record(0, d0, false)
	for t := record.Tick(1); t <= horizon; t++ {
		p.Record(t, 1, false)
	}
	return p
}

// MOTO simulates the OTO pattern: the setup upload and nothing else.
func MOTO(d0 int) *Pattern {
	p := &Pattern{}
	p.Record(0, d0, false)
	return p
}
