package edb

import (
	"math"
	"strings"
	"testing"

	"dpsync/internal/query"
	"dpsync/internal/record"
)

func TestLeakageClassCompatibility(t *testing.T) {
	tests := []struct {
		class       LeakageClass
		compat      bool
		withPadding bool
	}{
		{L0, true, true},
		{LDP, true, true},
		{L1, false, true},
		{L2, false, false},
	}
	for _, tt := range tests {
		if got := tt.class.Compatible(); got != tt.compat {
			t.Errorf("%v.Compatible() = %v, want %v", tt.class, got, tt.compat)
		}
		if got := tt.class.CompatibleWithPadding(); got != tt.withPadding {
			t.Errorf("%v.CompatibleWithPadding() = %v, want %v", tt.class, got, tt.withPadding)
		}
	}
}

func TestLeakageClassString(t *testing.T) {
	for _, c := range []LeakageClass{L0, LDP, L1, L2} {
		if strings.Contains(c.String(), "LeakageClass(") {
			t.Errorf("missing name for class %d", c)
		}
	}
	if !strings.Contains(LeakageClass(9).String(), "9") {
		t.Error("unknown class should show numeric value")
	}
}

func TestTable3Coverage(t *testing.T) {
	schemes := Table3()
	if len(schemes) < 15 {
		t.Fatalf("Table3 lists %d schemes, want the paper's taxonomy (>=15)", len(schemes))
	}
	byClass := map[LeakageClass]int{}
	names := map[string]bool{}
	for _, s := range schemes {
		byClass[s.Class]++
		if names[s.Name] {
			t.Errorf("duplicate scheme %q", s.Name)
		}
		names[s.Name] = true
	}
	for _, c := range []LeakageClass{L0, LDP, L1, L2} {
		if byClass[c] == 0 {
			t.Errorf("no schemes listed for %v", c)
		}
	}
	if !names["ObliDB*"] || !names["Cryptε*"] {
		t.Error("implemented substrates missing from Table3")
	}
}

type fakeDB struct {
	class LeakageClass
}

func (f fakeDB) Name() string                { return "fake" }
func (f fakeDB) Leakage() LeakageClass       { return f.class }
func (f fakeDB) Setup([]record.Record) error { return nil }
func (f fakeDB) Update([]record.Record) error {
	return nil
}
func (f fakeDB) Query(query.Query) (query.Answer, Cost, error) {
	return query.Answer{}, Cost{}, nil
}
func (f fakeDB) Supports(query.Query) bool { return true }
func (f fakeDB) Stats() StorageStats       { return StorageStats{} }

func TestCheckCompatibility(t *testing.T) {
	if err := CheckCompatibility(fakeDB{L0}); err != nil {
		t.Errorf("L0 rejected: %v", err)
	}
	if err := CheckCompatibility(fakeDB{LDP}); err != nil {
		t.Errorf("LDP rejected: %v", err)
	}
	if err := CheckCompatibility(fakeDB{L2}); err == nil {
		t.Error("L2 accepted")
	}
}

func TestStorageStatsAdd(t *testing.T) {
	var s StorageStats
	s.Add(10, 3, 1024)
	s.Add(5, 5, 1024)
	if s.Records != 15 || s.RealRecords != 7 || s.DummyRecords != 8 {
		t.Errorf("record counts = %+v", s)
	}
	if s.Bytes != 15*1024 || s.DummyBytes != 8*1024 {
		t.Errorf("bytes = %d / %d", s.Bytes, s.DummyBytes)
	}
	if s.Updates != 2 {
		t.Errorf("updates = %d", s.Updates)
	}
}

// TestCostModelLinear: a linear query's cost is the per-query base plus the
// per-record rate times its scan, exactly the formula the model had before
// the join's pair term joined it in Of (its zero pairs add +0, which changes
// no bit).
func TestCostModelLinear(t *testing.T) {
	for _, m := range []CostModel{ObliDBCostModel(), CrypteCostModel()} {
		for _, k := range []query.Kind{query.RangeCount, query.GroupCount, query.SumFare} {
			for _, n := range []int64{0, 1, 7, 131, 9214, 10_000, 1 << 40} {
				c := m.Of(k, n, 0)
				want := m.Base[k] + m.PerRecord[k]*float64(n)
				if math.Float64bits(c.Seconds) != math.Float64bits(want) || c.RecordsScanned != n || c.PairsCompared != 0 {
					t.Errorf("%v over %d records: %+v, want %v s", k, n, c, want)
				}
			}
		}
	}
	c := ObliDBCostModel().Of(query.GroupCount, 10_000, 0)
	if want := 0.071 + 244e-6*10_000; math.Abs(c.Seconds-want) > 1e-9 {
		t.Errorf("linear cost = %v, want %v", c.Seconds, want)
	}
}

func TestCostModelJoin(t *testing.T) {
	m := ObliDBCostModel()
	c := m.Of(query.JoinCount, 1000+2000, 1000*2000)
	if c.PairsCompared != 2_000_000 || c.RecordsScanned != 3000 {
		t.Errorf("pairs = %d, scanned = %d", c.PairsCompared, c.RecordsScanned)
	}
	want := 0.095 + 20.5e-9*2e6
	if math.Abs(c.Seconds-want) > 1e-9 {
		t.Errorf("join cost = %v, want %v", c.Seconds, want)
	}
}

func TestCostModelCalibration(t *testing.T) {
	// At the Table 5 operating point (mean store ≈ 9.2k records for linear
	// queries, ≈1.31e8 pairs for the join) the model must land within 15%
	// of the paper's measured SUR QETs.
	ob := ObliDBCostModel()
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"ObliDB Q1", ob.Of(query.RangeCount, 9214, 0).Seconds, 5.39},
		{"ObliDB Q2", ob.Of(query.GroupCount, 9214, 0).Seconds, 2.32},
		{"ObliDB Q3", ob.Of(query.JoinCount, 9214+14200, 9214*14200).Seconds, 2.77},
		{"Crypteps Q1", CrypteCostModel().Of(query.RangeCount, 9214, 0).Seconds, 20.94},
		{"Crypteps Q2", CrypteCostModel().Of(query.GroupCount, 9214, 0).Seconds, 76.34},
	}
	for _, c := range checks {
		if rel := math.Abs(c.got-c.want) / c.want; rel > 0.15 {
			t.Errorf("%s: modeled %.2fs vs paper %.2fs (%.0f%% off)", c.name, c.got, c.want, rel*100)
		}
	}
}

func TestCostAddAndDuration(t *testing.T) {
	a := Cost{Seconds: 1.5, RecordsScanned: 10}
	b := Cost{Seconds: 0.5, RecordsScanned: 5, PairsCompared: 3}
	sum := a.Add(b)
	if sum.Seconds != 2 || sum.RecordsScanned != 15 || sum.PairsCompared != 3 {
		t.Errorf("Add = %+v", sum)
	}
	if d := a.Duration(); d.Seconds() != 1.5 {
		t.Errorf("Duration = %v", d)
	}
}
