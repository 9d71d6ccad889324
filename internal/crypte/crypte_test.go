package crypte

import (
	"errors"
	"math"
	"testing"

	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
)

func newDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func yellow(tick int, id uint16) record.Record {
	return record.Record{PickupTime: record.Tick(tick), PickupID: id, Provider: record.YellowCab}
}

func TestLifecycleErrors(t *testing.T) {
	db := newDB(t)
	if err := db.Update([]record.Record{yellow(1, 1)}); !errors.Is(err, edb.ErrNotSetup) {
		t.Errorf("Update before Setup: %v", err)
	}
	if _, _, err := db.Query(query.Q1()); !errors.Is(err, edb.ErrNotSetup) {
		t.Errorf("Query before Setup: %v", err)
	}
	if err := db.Setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Setup(nil); !errors.Is(err, edb.ErrAlreadySetup) {
		t.Errorf("second Setup: %v", err)
	}
}

func TestJoinUnsupported(t *testing.T) {
	db := newDB(t)
	if db.Supports(query.Q3()) {
		t.Error("Cryptε must not support joins")
	}
	if err := db.Setup(nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Query(query.Q3()); !errors.Is(err, edb.ErrUnsupportedQuery) {
		t.Errorf("join error = %v, want ErrUnsupportedQuery", err)
	}
}

func TestLeakageClass(t *testing.T) {
	db := newDB(t)
	if db.Leakage() != edb.LDP {
		t.Errorf("leakage = %v, want L-DP", db.Leakage())
	}
	if err := edb.CheckCompatibility(db); err != nil {
		t.Errorf("Cryptε should be DP-Sync compatible: %v", err)
	}
}

func TestAnswersAreNoisyButCalibrated(t *testing.T) {
	db := newDB(t, WithNoiseSource(dp.NewSeededSource(5)))
	var rs []record.Record
	for i := 0; i < 100; i++ {
		rs = append(rs, yellow(i, 75)) // all inside Q1's range
	}
	if err := db.Setup(rs); err != nil {
		t.Fatal(err)
	}
	const trials = 300
	var sum, sumAbsErr float64
	for i := 0; i < trials; i++ {
		ans, _, err := db.Query(query.Q1())
		if err != nil {
			t.Fatal(err)
		}
		sum += ans.Scalar
		sumAbsErr += math.Abs(ans.Scalar - 100)
	}
	mean := sum / trials
	if math.Abs(mean-100) > 0.2 {
		t.Errorf("noisy mean = %v, want ~100", mean)
	}
	// E|Lap(1/3)| = 1/3; allow generous slack.
	meanAbs := sumAbsErr / trials
	if meanAbs < 0.05 || meanAbs > 1.0 {
		t.Errorf("mean |noise| = %v, want ≈ 1/3", meanAbs)
	}
	if db.ReleasesSoFar() != trials {
		t.Errorf("releases = %d, want %d", db.ReleasesSoFar(), trials)
	}
}

func TestGroupAnswerNoisePerBin(t *testing.T) {
	db := newDB(t, WithNoiseSource(dp.NewSeededSource(6)))
	if err := db.Setup([]record.Record{yellow(0, 10), yellow(1, 10), yellow(2, 20)}); err != nil {
		t.Fatal(err)
	}
	ans, _, err := db.Query(query.Q2())
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Groups) != record.NumLocations {
		t.Fatalf("groups = %d", len(ans.Groups))
	}
	// Bins are never negative after clamping.
	for i, g := range ans.Groups {
		if g < 0 {
			t.Errorf("bin %d negative: %v", i, g)
		}
	}
	// The occupied bins should be near their true counts.
	if math.Abs(ans.Groups[9]-2) > 4 || math.Abs(ans.Groups[19]-1) > 4 {
		t.Errorf("occupied bins far off: %v, %v", ans.Groups[9], ans.Groups[19])
	}
}

func TestDummiesExcludedFromAnswers(t *testing.T) {
	db := newDB(t, WithNoiseSource(dp.NewSeededSource(7)))
	rs := []record.Record{yellow(0, 75)}
	for i := 0; i < 50; i++ {
		rs = append(rs, record.NewDummy(record.YellowCab))
	}
	if err := db.Setup(rs); err != nil {
		t.Fatal(err)
	}
	var sum float64
	const trials = 200
	for i := 0; i < trials; i++ {
		ans, _, err := db.Query(query.Q1())
		if err != nil {
			t.Fatal(err)
		}
		sum += ans.Scalar
	}
	if mean := sum / trials; math.Abs(mean-1) > 0.3 {
		t.Errorf("mean = %v, want ~1 (dummies excluded)", mean)
	}
}

func TestDummiesInflateCostAndStorage(t *testing.T) {
	db := newDB(t, WithNoiseSource(dp.NewSeededSource(8)))
	if err := db.Setup([]record.Record{yellow(0, 1)}); err != nil {
		t.Fatal(err)
	}
	_, c1, err := db.Query(query.Q1())
	if err != nil {
		t.Fatal(err)
	}
	var batch []record.Record
	for i := 0; i < 200; i++ {
		batch = append(batch, record.NewDummy(record.YellowCab))
	}
	if err := db.Update(batch); err != nil {
		t.Fatal(err)
	}
	_, c2, err := db.Query(query.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if c2.Seconds <= c1.Seconds {
		t.Error("dummy records must inflate QET")
	}
	s := db.Stats()
	if s.DummyBytes != 200*EncodingBytes {
		t.Errorf("dummy bytes = %d", s.DummyBytes)
	}
}

// TestReleaseEpsilonIsThePapers: every release is charged the paper's
// analyst budget, ε = 3, and carries Lap(1/3) noise: over 400 Q1s of a
// one-record table the mean deviation is about 1/3 and none is past 3 (each
// draw is past 3 with probability e⁻⁹).
func TestReleaseEpsilonIsThePapers(t *testing.T) {
	const releases = 400
	db := newDB(t, WithNoiseSource(dp.NewSeededSource(9)))
	if err := db.Setup([]record.Record{yellow(0, 75)}); err != nil {
		t.Fatal(err)
	}
	var worst, sum float64
	for i := 0; i < releases; i++ {
		ans, _, err := db.Query(query.Q1())
		if err != nil {
			t.Fatal(err)
		}
		d := math.Abs(ans.Scalar - 1)
		sum += d
		worst = max(worst, d)
	}
	if spent := db.spent.Spent(); spent != releases*DefaultQueryEpsilon || db.ReleasesSoFar() != releases {
		t.Errorf("%d releases spent ε = %v, want %v", db.ReleasesSoFar(), spent, releases*DefaultQueryEpsilon)
	}
	if mean := sum / releases; mean < 0.25 || mean > 0.42 || worst > 3 {
		t.Errorf("mean deviation %v, worst %v; want about 1/3 and at most 3", mean, worst)
	}
}

// TestScalarClampedAtZero: a release of an empty table's count would be
// negative half the time; none is.
func TestScalarClampedAtZero(t *testing.T) {
	db := newDB(t, WithNoiseSource(dp.NewSeededSource(10)))
	if err := db.Setup(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ans, _, err := db.Query(query.Q1())
		if err != nil {
			t.Fatal(err)
		}
		if ans.Scalar < 0 {
			t.Fatalf("negative count released: %v", ans.Scalar)
		}
	}
}

func TestEncodingBytesMatchesPaperScale(t *testing.T) {
	// 18,429 records × EncodingBytes ≈ the paper's 943.5 Mb (=117.9 MB).
	total := float64(18429*EncodingBytes) * 8 / 1e6 // megabits
	if total < 850 || total < 0 || total > 1050 {
		t.Errorf("Yellow dataset would occupy %.1f Mb, paper reports 943.5 Mb", total)
	}
}
