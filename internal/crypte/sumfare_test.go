package crypte

import (
	"math"
	"testing"

	"dpsync/internal/dp"
	"dpsync/internal/query"
	"dpsync/internal/record"
)

// TestSumFareNoiseScaledToSensitivity: the Q4 release must carry
// Lap(MaxFareCents/eps_q) noise — orders of magnitude wider than count
// noise, matching the L1 sensitivity of a bounded-fare SUM.
func TestSumFareNoiseScaledToSensitivity(t *testing.T) {
	db, err := New(WithNoiseSource(dp.NewSeededSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Supports(query.Q4()) {
		t.Fatal("Cryptε should support the linear Q4 extension")
	}
	var rs []record.Record
	const n, fare = 50, 2000
	for i := 0; i < n; i++ {
		rs = append(rs, record.Record{
			PickupTime: record.Tick(i + 1), PickupID: 10,
			Provider: record.YellowCab, FareCents: fare,
		})
	}
	if err := db.Setup(rs); err != nil {
		t.Fatal(err)
	}
	const trials = 400
	truth := float64(n * fare)
	var absErr, sum float64
	for i := 0; i < trials; i++ {
		ans, _, err := db.Query(query.Q4())
		if err != nil {
			t.Fatal(err)
		}
		absErr += math.Abs(ans.Scalar - truth)
		sum += ans.Scalar
	}
	meanAbs := absErr / trials
	// E|Lap(5000/3)| ≈ 1667; far beyond count noise (1/3), far below the
	// answer.
	if scale := record.MaxFareCents / DefaultQueryEpsilon; meanAbs < 0.8*scale || meanAbs > 1.25*scale {
		t.Errorf("mean |noise| = %v, want ≈ %v (sensitivity-scaled)", meanAbs, scale)
	}
	if mean := sum / trials; math.Abs(mean-truth)/truth > 0.05 {
		t.Errorf("mean answer %v drifted from truth %v", mean, truth)
	}
}
