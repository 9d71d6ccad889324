package workload

import (
	"testing"
	"testing/quick"

	"dpsync/internal/record"
)

func TestYellowJuneShape(t *testing.T) {
	tr := YellowJune(1)
	if tr.Len() != YellowRecords {
		t.Errorf("records = %d, want %d", tr.Len(), YellowRecords)
	}
	if tr.Horizon != JuneHorizon {
		t.Errorf("horizon = %d", tr.Horizon)
	}
	if tr.Provider != record.YellowCab {
		t.Error("provider")
	}
}

func TestGreenJuneShape(t *testing.T) {
	tr := GreenJune(2)
	if tr.Len() != GreenRecords {
		t.Errorf("records = %d, want %d", tr.Len(), GreenRecords)
	}
	if tr.Provider != record.GreenTaxi {
		t.Error("provider")
	}
}

func TestAtMostOneRecordPerTick(t *testing.T) {
	tr := YellowJune(3)
	seen := map[record.Tick]bool{}
	for _, r := range tr.Records {
		if seen[r.PickupTime] {
			t.Fatalf("two records at tick %d", r.PickupTime)
		}
		seen[r.PickupTime] = true
		if r.PickupTime < 1 || r.PickupTime > tr.Horizon {
			t.Fatalf("tick %d out of range", r.PickupTime)
		}
	}
}

func TestRecordsSortedAndValid(t *testing.T) {
	tr := GreenJune(4)
	var last record.Tick
	for i, r := range tr.Records {
		if r.PickupTime <= last {
			t.Fatalf("record %d out of order", i)
		}
		last = r.PickupTime
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := YellowJune(42), YellowJune(42)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c := YellowJune(43)
	same := 0
	for i := range a.Records {
		if i < len(c.Records) && a.Records[i] == c.Records[i] {
			same++
		}
	}
	if same == a.Len() {
		t.Error("different seeds produced identical traces")
	}
}

func TestArrivalAtAndIndex(t *testing.T) {
	tr := YellowJune(5)
	r0 := tr.Records[100]
	got, ok := tr.ArrivalAt(r0.PickupTime)
	if !ok || got != r0 {
		t.Error("ArrivalAt lookup failed")
	}
	// A tick with no arrival.
	var free record.Tick
	for tick := record.Tick(1); tick <= tr.Horizon; tick++ {
		if _, ok := tr.ArrivalAt(tick); !ok {
			free = tick
			break
		}
	}
	if free == 0 {
		t.Fatal("trace is saturated; expected idle ticks")
	}
}

func TestArrivalsBitVector(t *testing.T) {
	tr := YellowJune(6)
	u := tr.Arrivals()
	if len(u) != int(tr.Horizon) {
		t.Fatalf("arrivals len = %d", len(u))
	}
	if u.Total() != tr.Len() {
		t.Errorf("arrival total = %d, want %d", u.Total(), tr.Len())
	}
}

func TestCountUpTo(t *testing.T) {
	tr := YellowJune(7)
	if got := tr.CountUpTo(0); got != 0 {
		t.Errorf("CountUpTo(0) = %d", got)
	}
	if got := tr.CountUpTo(tr.Horizon); got != tr.Len() {
		t.Errorf("CountUpTo(horizon) = %d, want %d", got, tr.Len())
	}
	mid := tr.Records[500].PickupTime
	if got := tr.CountUpTo(mid); got != 501 {
		t.Errorf("CountUpTo(mid) = %d, want 501", got)
	}
	if got := tr.CountUpTo(mid - 1); got != 500 {
		t.Errorf("CountUpTo(mid-1) = %d, want 500", got)
	}
}

func TestDiurnalShape(t *testing.T) {
	// Rush hours must carry more arrivals than deep night. Compare the
	// 17:00–19:00 window against 02:00–04:00 across all days.
	tr := YellowJune(8)
	rush, night := 0, 0
	for _, r := range tr.Records {
		h := float64(r.PickupTime%1440) / 60
		switch {
		case h >= 17 && h < 19:
			rush++
		case h >= 2 && h < 4:
			night++
		}
	}
	if rush <= night*2 {
		t.Errorf("rush=%d night=%d: diurnal profile too flat", rush, night)
	}
}

func TestZoneSkew(t *testing.T) {
	// Top-10 zones should carry well above the uniform share (10/265≈3.8%).
	tr := YellowJune(9)
	counts := map[uint16]int{}
	for _, r := range tr.Records {
		counts[r.PickupID]++
	}
	type zc struct {
		id uint16
		n  int
	}
	var zs []zc
	for id, n := range counts {
		zs = append(zs, zc{id, n})
	}
	// Simple selection of top 10.
	top := 0
	for k := 0; k < 10 && k < len(zs); k++ {
		best := k
		for i := k + 1; i < len(zs); i++ {
			if zs[i].n > zs[best].n {
				best = i
			}
		}
		zs[k], zs[best] = zs[best], zs[k]
		top += zs[k].n
	}
	if frac := float64(top) / float64(tr.Len()); frac < 0.15 {
		t.Errorf("top-10 zone share = %.3f, want skewed (>0.15)", frac)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("missing provider accepted")
	}
	if _, err := Generate(Config{Provider: record.YellowCab, Horizon: 10, Records: 11}); err == nil {
		t.Error("oversubscribed horizon accepted")
	}
}

func TestSmallCustomTrace(t *testing.T) {
	tr, err := Generate(Config{Provider: record.GreenTaxi, Horizon: 100, Records: 37, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 37 || tr.Horizon != 100 {
		t.Errorf("trace shape = %d/%d", tr.Len(), tr.Horizon)
	}
}

func TestIntensityPositive(t *testing.T) {
	for tick := record.Tick(0); tick < 2880; tick += 7 {
		if w := Intensity(tick); w <= 0 {
			t.Fatalf("intensity at %d = %v", tick, w)
		}
	}
}

// Property: any feasible (records, horizon) pair generates exactly that many
// unique-tick arrivals.
func TestQuickGenerateExactCount(t *testing.T) {
	f := func(seed uint64, recRaw, horRaw uint16) bool {
		horizon := int(horRaw%2000) + 10
		records := int(recRaw)%horizon + 1 // 1..horizon, always feasible
		tr, err := Generate(Config{
			Provider: record.YellowCab,
			Horizon:  record.Tick(horizon),
			Records:  records,
			Seed:     seed,
		})
		if err != nil {
			return false
		}
		if tr.Len() != records {
			return false
		}
		seen := map[record.Tick]bool{}
		for _, r := range tr.Records {
			if seen[r.PickupTime] {
				return false
			}
			seen[r.PickupTime] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
