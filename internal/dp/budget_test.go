package dp

import (
	"math"
	"strings"
	"testing"
)

func TestBudgetSequentialAccumulates(t *testing.T) {
	b := NewBudget()
	for i := 0; i < 3; i++ {
		if err := b.Charge("query", 0.5, Sequential); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Spent(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Spent = %v, want 1.5", got)
	}
	if got := b.Uses("query"); got != 3 {
		t.Errorf("Uses = %d, want 3", got)
	}
}

func TestBudgetParallelTakesMax(t *testing.T) {
	b := NewBudget()
	for i := 0; i < 10; i++ {
		if err := b.Charge("window", 0.5, Parallel); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Spent(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Spent = %v, want 0.5 (parallel composition)", got)
	}
}

// TestBudgetDPTimerShape mirrors the proof of Theorem 10: M_setup (ε,
// parallel with updates), M_update = repeated ε-DP M_unit on disjoint
// windows (parallel), M_flush 0-DP. SpentParallel must equal ε.
func TestBudgetDPTimerShape(t *testing.T) {
	const eps = 0.5
	b := NewBudget()
	if err := b.Charge("setup", eps, Parallel); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		if err := b.Charge("update-unit", eps, Parallel); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Charge("flush", 0, Parallel); err != nil {
		t.Fatal(err)
	}
	if got := b.SpentParallel(); math.Abs(got-eps) > 1e-12 {
		t.Errorf("SpentParallel = %v, want %v", got, eps)
	}
}

// TestBudgetDPANTShape mirrors Theorem 11: within one sparse-vector window
// the ε1 halting test composes sequentially with the ε2 fetch; windows
// compose in parallel.
func TestBudgetDPANTShape(t *testing.T) {
	const eps = 0.5
	b := NewBudget()
	// One window's internal sequential composition, tracked separately.
	win := NewBudget()
	if err := win.Charge("halt", eps/2, Sequential); err != nil {
		t.Fatal(err)
	}
	if err := win.Charge("fetch", eps/2, Sequential); err != nil {
		t.Fatal(err)
	}
	perWindow := win.Spent()
	if math.Abs(perWindow-eps) > 1e-12 {
		t.Fatalf("window cost = %v, want %v", perWindow, eps)
	}
	for k := 0; k < 50; k++ {
		if err := b.Charge("sparse-window", perWindow, Parallel); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.SpentParallel(); math.Abs(got-eps) > 1e-12 {
		t.Errorf("SpentParallel = %v, want %v", got, eps)
	}
}

func TestBudgetRejectsInconsistentRedefinition(t *testing.T) {
	b := NewBudget()
	if err := b.Charge("x", 0.5, Sequential); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge("x", 0.5, Parallel); err == nil {
		t.Error("rule change accepted")
	}
	if err := b.Charge("x", 0.7, Sequential); err == nil {
		t.Error("epsilon change accepted")
	}
}

func TestBudgetRejectsInvalidEpsilon(t *testing.T) {
	b := NewBudget()
	if err := b.Charge("bad", math.Inf(1), Sequential); err == nil {
		t.Error("infinite epsilon accepted")
	}
	if err := b.Charge("bad", -1, Sequential); err == nil {
		t.Error("negative epsilon accepted")
	}
	if err := b.Charge("zero", 0, Sequential); err != nil {
		t.Errorf("zero epsilon (data-independent release) rejected: %v", err)
	}
}

func TestBudgetDescribeAndNames(t *testing.T) {
	b := NewBudget()
	_ = b.Charge("beta", 0.1, Sequential)
	_ = b.Charge("alpha", 0.2, Parallel)
	names := b.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("Names = %v, want sorted [alpha beta]", names)
	}
	d := b.Describe()
	if !strings.Contains(d, "alpha") || !strings.Contains(d, "sequential") {
		t.Errorf("Describe missing content:\n%s", d)
	}
}

func TestCompositionRuleString(t *testing.T) {
	if Sequential.String() != "sequential" || Parallel.String() != "parallel" {
		t.Error("unexpected rule strings")
	}
	if got := CompositionRule(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown rule string = %q", got)
	}
}

func ledgerForTest(t *testing.T) *Budget {
	t.Helper()
	b := NewBudget()
	for i := 0; i < 5; i++ {
		if err := b.Charge("m_update", 0.25, Sequential); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Charge("m_setup", 0.25, Sequential); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Charge("m_flush", 0, Parallel); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestBudgetCanCharge(t *testing.T) {
	b := NewBudget()
	if err := b.CanCharge("m", 0.5, Sequential); err != nil {
		t.Fatalf("fresh name refused: %v", err)
	}
	if b.Uses("m") != 0 {
		t.Fatal("CanCharge spent")
	}
	if err := b.Charge("m", 0.5, Sequential); err != nil {
		t.Fatal(err)
	}
	if err := b.CanCharge("m", 0.5, Sequential); err != nil {
		t.Fatalf("matching params refused: %v", err)
	}
	if err := b.CanCharge("m", 0.7, Sequential); err == nil {
		t.Fatal("epsilon drift accepted")
	}
	if err := b.CanCharge("m", 0.5, Parallel); err == nil {
		t.Fatal("rule drift accepted")
	}
	if err := b.CanCharge("x", math.Inf(1), Sequential); err == nil {
		t.Fatal("infinite epsilon accepted")
	}
	if b.Uses("m") != 1 {
		t.Fatal("CanCharge mutated the ledger")
	}
}

func TestBudgetCloneAndEqual(t *testing.T) {
	b := ledgerForTest(t)
	c := b.Clone()
	if !c.Equal(b) || !b.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	// Diverge the clone; the original must be unaffected.
	if err := c.Charge("m_update", 0.25, Sequential); err != nil {
		t.Fatal(err)
	}
	if c.Equal(b) {
		t.Fatal("diverged clone still equal")
	}
	if b.Uses("m_update") != 5 {
		t.Fatal("clone shares state with original")
	}
	if !b.Equal(b) {
		t.Fatal("self-equality failed")
	}
	var nilB *Budget
	if nilB.Equal(b) || b.Equal(nilB) {
		t.Fatal("nil comparison")
	}
	if !nilB.Equal(nilB) {
		t.Fatal("nil/nil comparison")
	}
}

// TestBudgetMarshalDeterministic pins that equal ledgers render and compare
// equal regardless of charge insertion order: a ledger derived from a
// replayed history must match the live one bit for bit in its report.
func TestBudgetMarshalDeterministic(t *testing.T) {
	x, y := NewBudget(), NewBudget()
	names := []string{"zeta", "alpha", "m_update", "beta"}
	for i := range names {
		if err := x.Charge(names[i], 0.5, Sequential); err != nil {
			t.Fatal(err)
		}
		if err := y.Charge(names[len(names)-1-i], 0.5, Sequential); err != nil {
			t.Fatal(err)
		}
	}
	if !x.Equal(y) || !y.Equal(x) || x.Describe() != y.Describe() {
		t.Fatalf("insertion order leaked into the ledger:\n%s\n%s", x.Describe(), y.Describe())
	}
	if strings.Join(x.Names(), ",") != strings.Join(y.Names(), ",") {
		t.Fatalf("insertion order leaked into Names: %v vs %v", x.Names(), y.Names())
	}
	// And repeated renders of one ledger are stable.
	if x.Describe() != x.Describe() {
		t.Fatal("Describe not stable across calls")
	}
}
