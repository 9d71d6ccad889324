package dp

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Budget tracks privacy expenditure across the sub-mechanisms of a composite
// release. DP-Sync's proofs (Theorems 10/11, 17/18) combine three rules:
//
//   - Sequential composition (Lemma 15): mechanisms applied to the *same*
//     data add their epsilons.
//   - Parallel composition (Lemma 16): mechanisms applied to *disjoint*
//     data cost the maximum epsilon.
//   - Data-independent releases (M_flush) cost 0.
//
// Budget models a tree of charges: Sequential children add, Parallel children
// take the max. The strategies use it both to declare their guarantee and to
// let tests assert that, e.g., DP-ANT's ε1/ε2 split composes back to ε.
type Budget struct {
	mu      sync.Mutex
	charges map[string]*charge
}

type charge struct {
	eps  float64
	rule CompositionRule
	uses int
}

// CompositionRule says how repeated uses of one named charge compose.
type CompositionRule int

const (
	// Sequential charges accumulate: n uses of ε cost n·ε.
	Sequential CompositionRule = iota
	// Parallel charges apply to disjoint data slices: n uses cost max = ε.
	Parallel
)

// String implements fmt.Stringer.
func (r CompositionRule) String() string {
	switch r {
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	default:
		return fmt.Sprintf("CompositionRule(%d)", int(r))
	}
}

// NewBudget returns an empty budget ledger.
func NewBudget() *Budget {
	return &Budget{charges: make(map[string]*charge)}
}

// Charge records one use of an ε-DP sub-mechanism under the given name.
// Charges with the same name must keep the same rule and epsilon; mixing is a
// programming error and returns an error so strategies fail loudly.
func (b *Budget) Charge(name string, eps float64, rule CompositionRule) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.checkLocked(name, eps, rule); err != nil {
		return err
	}
	c, ok := b.charges[name]
	if !ok {
		b.charges[name] = &charge{eps: eps, rule: rule, uses: 1}
		return nil
	}
	c.uses++
	return nil
}

// CanCharge reports whether a Charge with these parameters would be
// accepted, without spending anything. Callers that must refuse an
// operation *before* taking irreversible steps (the gateway refuses a sync
// before ingesting it into the backend) validate here and spend later, when
// the operation commits.
func (b *Budget) CanCharge(name string, eps float64, rule CompositionRule) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.checkLocked(name, eps, rule)
}

func (b *Budget) checkLocked(name string, eps float64, rule CompositionRule) error {
	if !(eps >= 0) || math.IsInf(eps, 1) {
		return fmt.Errorf("dp: budget charge %q: invalid epsilon %v", name, eps)
	}
	c, ok := b.charges[name]
	if !ok {
		return nil
	}
	if c.rule != rule {
		return fmt.Errorf("dp: budget charge %q: rule changed from %v to %v", name, c.rule, rule)
	}
	if c.eps != eps {
		return fmt.Errorf("dp: budget charge %q: epsilon changed from %v to %v", name, c.eps, eps)
	}
	return nil
}

// Spent returns the total privacy loss implied by the ledger: sequential
// charges contribute uses·ε, parallel charges contribute ε, and the named
// charges themselves combine sequentially (they act on the same database).
//
// DP-Sync's per-strategy guarantees are tighter than this worst case because
// their top-level combination is itself parallel (disjoint time windows);
// SpentParallel reports that reading.
func (b *Budget) Spent() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0.0
	for _, c := range b.charges {
		total += c.total()
	}
	return total
}

// SpentParallel returns the privacy loss when the named charges act on
// disjoint portions of the update stream, i.e. max over charges of each
// charge's own composed cost. This matches the paper's analysis where
// M_setup, M_update and M_flush compose in parallel (proof of Theorem 10).
func (b *Budget) SpentParallel() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	worst := 0.0
	for _, c := range b.charges {
		worst = math.Max(worst, c.total())
	}
	return worst
}

func (c *charge) total() float64 {
	if c.rule == Parallel {
		return c.eps
	}
	return float64(c.uses) * c.eps
}

// Uses returns how many times the named charge was recorded.
func (b *Budget) Uses(name string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c, ok := b.charges[name]; ok {
		return c.uses
	}
	return 0
}

// Names returns the charge names in sorted order, for deterministic reports.
func (b *Budget) Names() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.charges))
	for n := range b.charges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe renders the ledger as one line per charge, for logs and reports.
func (b *Budget) Describe() string {
	names := b.Names()
	b.mu.Lock()
	defer b.mu.Unlock()
	out := ""
	for _, n := range names {
		c := b.charges[n]
		out += fmt.Sprintf("%s: eps=%g rule=%v uses=%d composed=%g\n", n, c.eps, c.rule, c.uses, c.total())
	}
	return out
}

// Clone returns an independent copy of the ledger.
func (b *Budget) Clone() *Budget {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := NewBudget()
	for n, c := range b.charges {
		cc := *c
		out.charges[n] = &cc
	}
	return out
}

// Equal reports whether two ledgers record exactly the same charges with the
// same epsilons, rules, and use counts — the no-double-spend check the
// crash-recovery differential tests pin. Each ledger is snapshotted under
// its own lock (never both at once), so Equal is deadlock-free in either
// call direction.
func (b *Budget) Equal(o *Budget) bool {
	if b == nil || o == nil {
		return b == o
	}
	if b == o {
		return true
	}
	bc, oc := b.snapshotCharges(), o.snapshotCharges()
	if len(bc) != len(oc) {
		return false
	}
	for n, c := range bc {
		other, ok := oc[n]
		if !ok || other != c {
			return false
		}
	}
	return true
}

// snapshotCharges copies the ledger contents by value under the lock.
func (b *Budget) snapshotCharges() map[string]charge {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]charge, len(b.charges))
	for n, c := range b.charges {
		out[n] = *c
	}
	return out
}
