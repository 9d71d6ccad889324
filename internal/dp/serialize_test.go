package dp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
)

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

func TestBudgetMarshalRoundTrip(t *testing.T) {
	b := ledgerForTest(t)
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := NewBudget()
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(b) {
		t.Fatalf("round trip changed ledger:\n got: %s\nwant: %s", got.Describe(), b.Describe())
	}
	if got.Uses("m_update") != 5 || got.Uses("m_setup") != 1 || got.Uses("m_flush") != 3 {
		t.Fatalf("uses lost: %s", got.Describe())
	}
	if got.Spent() != b.Spent() || got.SpentParallel() != b.SpentParallel() {
		t.Fatalf("spend totals diverged: %v/%v vs %v/%v",
			got.Spent(), got.SpentParallel(), b.Spent(), b.SpentParallel())
	}
}

// TestBudgetMarshalDeterministic pins that equal ledgers marshal to equal
// bytes regardless of charge insertion order — the property the durability
// subsystem's bit-identical recovery comparison rests on.
func TestBudgetMarshalDeterministic(t *testing.T) {
	a, b := NewBudget(), NewBudget()
	names := []string{"zeta", "alpha", "m_update", "beta"}
	for _, n := range names {
		if err := a.Charge(n, 0.5, Sequential); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(names) - 1; i >= 0; i-- {
		if err := b.Charge(names[i], 0.5, Sequential); err != nil {
			t.Fatal(err)
		}
	}
	ea, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatal("insertion order leaked into the encoding")
	}
	// And repeated marshals of one ledger are stable.
	ea2, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, ea2) {
		t.Fatal("marshal is not stable across calls")
	}
}

func TestBudgetMarshalEmpty(t *testing.T) {
	enc, err := NewBudget().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := ledgerForTest(t) // non-empty receiver must be replaced wholesale
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if len(got.Names()) != 0 || got.Spent() != 0 {
		t.Fatalf("empty ledger decoded as %s", got.Describe())
	}
}

func TestBudgetUnmarshalRejectsMalformed(t *testing.T) {
	valid, err := ledgerForTest(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	badRule := append([]byte(nil), valid...)
	// Flip the first charge's rule byte to an invalid value: header(5) +
	// nameLen(2) + name + eps(8) positions the rule byte.
	nameLen := int(badRule[5])<<8 | int(badRule[6])
	badRule[5+2+nameLen+8] = 0xEE

	cases := map[string][]byte{
		"empty":          {},
		"short header":   {ledgerVersion, 0, 0},
		"bad version":    {99, 0, 0, 0, 0},
		"truncated body": valid[:len(valid)-3],
		"trailing bytes": append(append([]byte(nil), valid...), 0xAB),
		"huge count":     {ledgerVersion, 0xFF, 0xFF, 0xFF, 0xFF},
		"bad rule":       badRule,
	}
	for name, data := range cases {
		got := ledgerForTest(t)
		before, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := got.UnmarshalBinary(data); !errors.Is(err, ErrBadLedger) {
			t.Errorf("%s: err = %v, want ErrBadLedger", name, err)
		}
		after, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: failed unmarshal mutated the receiver", name)
		}
	}
}

func TestBudgetUnmarshalRejectsBadEpsilon(t *testing.T) {
	b := NewBudget()
	if err := b.Charge("m", 1.5, Sequential); err != nil {
		t.Fatal(err)
	}
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the epsilon with NaN: header(5) + nameLen(2) + "m"(1).
	nan := math.Float64bits(math.NaN())
	for i := 0; i < 8; i++ {
		enc[8+i] = byte(nan >> (56 - 8*i))
	}
	if err := NewBudget().UnmarshalBinary(enc); !errors.Is(err, ErrBadLedger) {
		t.Fatalf("NaN epsilon accepted: %v", err)
	}
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

// TestBudgetAppendBinary pins the append form the snapshot encoder uses: it
// leaves what the buffer already held alone and appends exactly
// MarshalBinary's bytes — for a ledger that fits the encoder's stack array
// of names and for one that does not — and into a buffer with room it
// allocates nothing.
func TestBudgetAppendBinary(t *testing.T) {
	small, large := ledgerForTest(t), NewBudget()
	for i := 0; i < 40; i++ {
		if err := large.Charge(fmt.Sprintf("mech-%02d", (i*7)%40), 0.125, Parallel); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []*Budget{NewBudget(), small, large} {
		want, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.AppendBinary([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendBinary = %x, want prefix + %x", got, want)
		}
		back := NewBudget()
		if err := back.UnmarshalBinary(got[len("prefix"):]); err != nil || !back.Equal(b) {
			t.Fatalf("appended ledger does not round-trip: %v", err)
		}
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := small.AppendBinary(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendBinary into a sized buffer allocates %v times, want 0", n)
	}
}
