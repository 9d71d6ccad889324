package leakage

import (
	"math"
	"strings"
	"testing"

	"dpsync/internal/dp"
	"dpsync/internal/record"
)

func TestPatternBasics(t *testing.T) {
	p := &Pattern{}
	p.Record(0, 5, false)
	p.Record(30, 5, false)
	p.Record(60, 7, true)
	if p.TotalVolume() != 17 {
		t.Errorf("total volume = %d", p.TotalVolume())
	}
	if p.Updates() != 3 {
		t.Errorf("updates = %d", p.Updates())
	}
	if p.VolumeAt(30) != 5 || p.VolumeAt(31) != 0 {
		t.Error("VolumeAt wrong")
	}
	times := p.Times()
	if len(times) != 3 || times[2] != 60 {
		t.Errorf("times = %v", times)
	}
	if got := p.String(); got != "{(0, 5), (30, 5), (60, 7)}" {
		t.Errorf("String = %q", got)
	}
}

func TestPatternExample41(t *testing.T) {
	// The paper's Example 4.1: 5 records every 30 minutes.
	p := &Pattern{}
	for i := 0; i < 4; i++ {
		p.Record(record.Tick(30*i), 5, false)
	}
	if got := p.String(); got != "{(0, 5), (30, 5), (60, 5), (90, 5)}" {
		t.Errorf("String = %q", got)
	}
}

func TestArrivalsCount(t *testing.T) {
	u := Arrivals{true, false, true, true, false}
	if u.Total() != 3 {
		t.Errorf("total = %d", u.Total())
	}
	if u.Count(1, 4) != 2 {
		t.Errorf("count[1,4) = %d", u.Count(1, 4))
	}
	if u.Count(-5, 100) != 3 {
		t.Error("out-of-range window should clamp")
	}
}

func TestMTimerWindows(t *testing.T) {
	// Huge epsilon → negligible noise → the pattern reveals exact window
	// counts; use it to verify the windowing logic in isolation.
	u := make(Arrivals, 20)
	u[0], u[4], u[5], u[13] = true, true, true, true // windows: [1..10]:3, [11..20]:1
	p, err := MTimer(2, u, 1e9, 10, 0, 0, dp.NewSeededSource(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 3 {
		t.Fatalf("events = %v", p.Events)
	}
	if p.Events[0].Tick != 0 || p.Events[0].Volume != 2 {
		t.Errorf("setup event = %+v", p.Events[0])
	}
	if p.Events[1].Tick != 10 || p.Events[1].Volume != 3 {
		t.Errorf("window 1 = %+v", p.Events[1])
	}
	if p.Events[2].Tick != 20 || p.Events[2].Volume != 1 {
		t.Errorf("window 2 = %+v", p.Events[2])
	}
}

func TestMTimerFlushEvents(t *testing.T) {
	u := make(Arrivals, 100)
	p, err := MTimer(0, u, 1e9, 30, 50, 4, dp.NewSeededSource(2))
	if err != nil {
		t.Fatal(err)
	}
	flushes := 0
	for _, e := range p.Events {
		if e.Flush {
			flushes++
			if e.Volume != 4 || e.Tick%50 != 0 {
				t.Errorf("bad flush %+v", e)
			}
		}
	}
	if flushes != 2 {
		t.Errorf("flushes = %d, want 2", flushes)
	}
}

func TestMTimerRejectsBadPeriod(t *testing.T) {
	if _, err := MTimer(0, nil, 1, 0, 0, 0, nil); err == nil {
		t.Error("period 0 accepted")
	}
	if _, err := MTimer(0, nil, 0, 10, 0, 0, nil); err == nil {
		t.Error("eps 0 accepted")
	}
}

func TestMANTFiresAroundThreshold(t *testing.T) {
	u := make(Arrivals, 1000)
	for i := range u {
		u[i] = true
	}
	p, err := MANT(0, u, 8, 25, 0, 0, dp.NewSeededSource(3))
	if err != nil {
		t.Fatal(err)
	}
	// Setup + roughly 1000/25 = 40 syncs.
	if p.Updates() < 20 || p.Updates() > 80 {
		t.Errorf("updates = %d, want ≈41", p.Updates())
	}
	// Total uploaded volume ≈ arrivals (1000) within noise.
	if v := p.TotalVolume(); v < 800 || v > 1200 {
		t.Errorf("total volume = %d, want ≈1000", v)
	}
}

func TestMANTRejectsBadEpsilon(t *testing.T) {
	if _, err := MANT(0, nil, 0, 10, 0, 0, nil); err == nil {
		t.Error("eps 0 accepted")
	}
}

func TestNaivePatterns(t *testing.T) {
	u := Arrivals{true, false, true}
	sur := MSUR(2, u)
	if sur.String() != "{(0, 2), (1, 1), (3, 1)}" {
		t.Errorf("SUR pattern = %s", sur)
	}
	set := MSET(2, 3)
	if set.String() != "{(0, 2), (1, 1), (2, 1), (3, 1)}" {
		t.Errorf("SET pattern = %s", set)
	}
	oto := MOTO(5)
	if oto.String() != "{(0, 5)}" {
		t.Errorf("OTO pattern = %s", oto)
	}
	// SUR with empty D0 still posts its setup, of no records: the server
	// sees the outsourced structure created.
	sur0 := MSUR(0, u)
	if sur0.String() != "{(0, 0), (1, 1), (3, 1)}" {
		t.Errorf("SUR empty-D0 pattern = %s", sur0)
	}
}

func TestNeighboringTraces(t *testing.T) {
	a, b := NeighboringTraces(10, 3, 5)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
			if i != 4 {
				t.Errorf("difference at index %d, want 4", i)
			}
		}
	}
	if diff != 1 {
		t.Errorf("traces differ at %d positions, want 1", diff)
	}
}

// TestAuditMTimerPasses runs the Definition-5 audit on M_timer over
// neighboring traces: the observed pattern-probability ratio must respect
// e^ε (Theorem 10).
func TestAuditMTimerPasses(t *testing.T) {
	const eps = 1.0
	a, b := NeighboringTraces(5, 2, 3) // single window of T=5
	cfg := AuditConfig{Trials: 60_000, Epsilon: eps, Slack: 1.3, MinProb: 0.01}
	srcA, srcB := dp.NewSeededSource(101), dp.NewSeededSource(202)
	gen := func(u Arrivals, src dp.Source) func() *Pattern {
		return func() *Pattern {
			p, err := MTimer(0, u, eps, 5, 0, 0, src)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	res, err := Audit(gen(a, srcA), gen(b, srcB), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Errorf("audit failed: %s", res)
	}
	if res.Outcomes < 3 {
		t.Errorf("audit compared only %d outcomes; too sparse to mean anything", res.Outcomes)
	}
}

// TestAuditCatchesOverclaimedEpsilon is the audit's negative control: a
// mechanism calibrated for ε=4 cannot pass an audit demanding ε=0.5.
func TestAuditCatchesOverclaimedEpsilon(t *testing.T) {
	a, b := NeighboringTraces(5, 2, 3)
	cfg := AuditConfig{Trials: 60_000, Epsilon: 0.5, Slack: 1.3, MinProb: 0.01}
	srcA, srcB := dp.NewSeededSource(303), dp.NewSeededSource(404)
	gen := func(u Arrivals, src dp.Source) func() *Pattern {
		return func() *Pattern {
			p, err := MTimer(0, u, 4.0, 5, 0, 0, src) // far less noise than claimed
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	res, err := Audit(gen(a, srcA), gen(b, srcB), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Errorf("audit passed a mechanism 8x noisier than claimed: %s", res)
	}
}

// TestAuditMANTPasses audits M_ANT's halting+volume release on a short
// horizon against its composed ε guarantee (Theorem 11).
func TestAuditMANTPasses(t *testing.T) {
	const eps = 2.0
	a, b := NeighboringTraces(6, 1, 3) // dense arrivals, one removed
	cfg := AuditConfig{Trials: 60_000, Epsilon: eps, Slack: 1.35, MinProb: 0.01}
	srcA, srcB := dp.NewSeededSource(505), dp.NewSeededSource(606)
	gen := func(u Arrivals, src dp.Source) func() *Pattern {
		return func() *Pattern {
			p, err := MANT(0, u, eps, 4, 0, 0, src)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	res, err := Audit(gen(a, srcA), gen(b, srcB), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Errorf("audit failed: %s", res)
	}
}

func TestAuditConfigValidation(t *testing.T) {
	gen := func() *Pattern { return &Pattern{} }
	if _, err := Audit(gen, gen, AuditConfig{Trials: 0, Slack: 1.2}); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := Audit(gen, gen, AuditConfig{Trials: 10, Slack: 0.5}); err == nil {
		t.Error("slack < 1 accepted")
	}
}

func TestAuditResultString(t *testing.T) {
	r := AuditResult{MaxRatio: 1.5, Outcomes: 4, WorstOutcome: "{(0, 1)}"}
	if !strings.Contains(r.String(), "maxRatio=1.500") {
		t.Errorf("String = %q", r.String())
	}
	if !r.OK() {
		t.Error("no violations should be OK")
	}
}

func TestMSETVolumeIsDataIndependent(t *testing.T) {
	// SET's pattern must be identical for any two traces of equal horizon.
	p1 := MSET(3, 50)
	p2 := MSET(3, 50)
	if p1.Signature() != p2.Signature() {
		t.Error("SET pattern not deterministic")
	}
	if p1.TotalVolume() != 53 {
		t.Errorf("SET volume = %d, want |D0|+t = 53", p1.TotalVolume())
	}
}

func TestMTimerTotalVolumeTracksArrivals(t *testing.T) {
	// Over many windows the sum of noisy counts concentrates around the
	// true number of arrivals (noise is zero-mean, clamping is rare with
	// busy windows).
	u := make(Arrivals, 10_000)
	for i := range u {
		u[i] = i%2 == 0
	}
	p, err := MTimer(0, u, 1, 50, 0, 0, dp.NewSeededSource(7))
	if err != nil {
		t.Fatal(err)
	}
	got := float64(p.TotalVolume())
	want := float64(u.Total())
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("total volume %v vs arrivals %v", got, want)
	}
}
