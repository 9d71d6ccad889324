package oblidb

import (
	"slices"
	"testing"

	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
)

func newDB(t *testing.T) *DB {
	t.Helper()
	db, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func yellow(tick int, id uint16) record.Record {
	return record.Record{PickupTime: record.Tick(tick), PickupID: id, Provider: record.YellowCab}
}

func green(tick int, id uint16) record.Record {
	return record.Record{PickupTime: record.Tick(tick), PickupID: id, Provider: record.GreenTaxi}
}

func TestLifecycleErrors(t *testing.T) {
	db := newDB(t)
	if err := db.Update([]record.Record{yellow(1, 1)}); err != edb.ErrNotSetup {
		t.Errorf("Update before Setup: %v", err)
	}
	if _, _, err := db.Query(query.Q1()); err != edb.ErrNotSetup {
		t.Errorf("Query before Setup: %v", err)
	}
	if err := db.Setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Setup(nil); err != edb.ErrAlreadySetup {
		t.Errorf("second Setup: %v", err)
	}
}

func TestQueryAnswersExact(t *testing.T) {
	db := newDB(t)
	if err := db.Setup([]record.Record{yellow(0, 60), yellow(1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update([]record.Record{yellow(2, 70), green(2, 5), record.NewDummy(record.YellowCab)}); err != nil {
		t.Fatal(err)
	}
	ans, cost, err := db.Query(query.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Scalar != 2 { // ids 60, 70 in [50,100]; dummy ignored
		t.Errorf("Q1 = %v, want 2", ans.Scalar)
	}
	// Q1 targets the Yellow table: 3 real + 1 dummy ciphertexts.
	if cost.RecordsScanned != 4 {
		t.Errorf("scanned %d, want the Yellow table's 4", cost.RecordsScanned)
	}

	ans, _, err = db.Query(query.Q2())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Total() != 3 { // three real yellow records
		t.Errorf("Q2 total = %v, want 3", ans.Total())
	}

	ans, cost, err = db.Query(query.Q3())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Scalar != 1 { // tick 2 collides across providers
		t.Errorf("Q3 = %v, want 1", ans.Scalar)
	}
	if cost.PairsCompared == 0 {
		t.Error("join cost should count pairs")
	}
}

// TestAccessTraceOblivious pins the L-0 property the substrate exists to
// provide, on which the L-0 claim rests: the ciphertexts touched per query
// and the modeled cost depend only on the per-table sizes, never on data
// values, on which records are dummies, or on predicates. Two neighbouring
// stores are built through the served ingest path (SetupSealed, then
// UpdateSealed batches with both providers and dummies) with equal table
// sizes and different data; every query must cost both the same and scan
// exactly its table(s).
func TestAccessTraceOblivious(t *testing.T) {
	type slot struct {
		p     record.Provider
		dummy bool
	}
	y, g := record.YellowCab, record.GreenTaxi
	stages := [][]slot{
		{{y, false}, {y, false}, {g, false}, {y, true}},
		{{g, false}, {g, true}, {y, false}},
		{{y, false}, {y, false}, {y, false}, {g, false}, {g, false}},
		{{y, true}, {g, true}},
	}
	// In A every real record is in Q1's range, carries a fare and shares its
	// tick across providers; in B the same slots are out of range, fare-free,
	// never aligned, and every third real slot is a dummy instead.
	build := func(neighbour bool, stage int, slots []slot) []record.Record {
		rs := make([]record.Record, len(slots))
		for i, s := range slots {
			tick := stage*10 + i
			switch {
			case s.dummy || neighbour && i%3 == 0:
				rs[i] = record.NewDummy(s.p)
			case neighbour:
				rs[i] = record.Record{PickupTime: record.Tick(1000 + 2*tick + int(s.p)), PickupID: uint16(1 + i), Provider: s.p}
			default:
				rs[i] = record.Record{PickupTime: record.Tick(stage), PickupID: uint16(50 + tick), Provider: s.p, FareCents: uint32(100 * (tick + 1))}
			}
		}
		return rs
	}
	queries := []query.Query{
		query.Q1(), query.Q2(), query.Q3(), query.Q4(),
		{Kind: query.RangeCount, Provider: y, Lo: 300, Hi: 400},
		{Kind: query.RangeCount, Provider: g, Lo: 300, Hi: 400},
	}

	dbA, dbB := newDB(t), newDB(t)
	var ny, ng int
	var want []int
	for stage, slots := range stages {
		for i, db := range []*DB{dbA, dbB} {
			cts, err := db.Sealer().SealAll(build(i == 1, stage, slots))
			if err != nil {
				t.Fatal(err)
			}
			if stage == 0 {
				err = db.SetupSealed(cts)
			} else {
				err = db.UpdateSealed(cts)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range slots {
			if s.p == g {
				ng++
			} else {
				ny++
			}
		}
		for _, q := range queries {
			_, ca, err := dbA.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			_, cb, err := dbB.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if ca != cb {
				t.Errorf("stage %d %v: costs %+v / %+v differ", stage, q.Kind, ca, cb)
			}
			switch {
			case q.Kind == query.JoinCount:
				want = append(want, ny+ng)
			case q.Provider == g:
				want = append(want, ng)
			default:
				want = append(want, ny)
			}
		}
	}
	if la, lb := dbA.AccessLog(), dbB.AccessLog(); !slices.Equal(la, lb) || !slices.Equal(la, want) {
		t.Errorf("access logs\n A %v\n B %v\nwant full-table scans %v", la, lb, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	db := newDB(t)
	if err := db.Setup([]record.Record{yellow(0, 1), record.NewDummy(record.YellowCab)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update([]record.Record{record.NewDummy(record.GreenTaxi)}); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Records != 3 || s.RealRecords != 1 || s.DummyRecords != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.Bytes != 3*BlockBytes || s.DummyBytes != 2*BlockBytes {
		t.Errorf("bytes = %d / %d", s.Bytes, s.DummyBytes)
	}
	if s.Updates != 2 {
		t.Errorf("updates = %d", s.Updates)
	}
}

func TestJoinCostUsesPerTableSizes(t *testing.T) {
	db := newDB(t)
	var rs []record.Record
	for i := 0; i < 10; i++ {
		rs = append(rs, yellow(i, 1))
	}
	for i := 0; i < 4; i++ {
		rs = append(rs, green(100+i, 1))
	}
	if err := db.Setup(rs); err != nil {
		t.Fatal(err)
	}
	_, cost, err := db.Query(query.Q3())
	if err != nil {
		t.Fatal(err)
	}
	if cost.PairsCompared != 40 {
		t.Errorf("pairs = %d, want 10×4", cost.PairsCompared)
	}
}

func TestCostGrowsWithStore(t *testing.T) {
	db := newDB(t)
	if err := db.Setup([]record.Record{yellow(0, 1)}); err != nil {
		t.Fatal(err)
	}
	_, c1, err := db.Query(query.Q2())
	if err != nil {
		t.Fatal(err)
	}
	var batch []record.Record
	for i := 0; i < 100; i++ {
		batch = append(batch, record.NewDummy(record.YellowCab))
	}
	if err := db.Update(batch); err != nil {
		t.Fatal(err)
	}
	_, c2, err := db.Query(query.Q2())
	if err != nil {
		t.Fatal(err)
	}
	if c2.Seconds <= c1.Seconds {
		t.Errorf("cost did not grow with dummies: %v then %v", c1.Seconds, c2.Seconds)
	}
}

func TestLeakageAndSupports(t *testing.T) {
	db := newDB(t)
	if db.Leakage() != edb.L0 {
		t.Errorf("leakage = %v", db.Leakage())
	}
	if err := edb.CheckCompatibility(db); err != nil {
		t.Errorf("ObliDB should be DP-Sync compatible: %v", err)
	}
	for _, q := range []query.Query{query.Q1(), query.Q2(), query.Q3()} {
		if !db.Supports(q) {
			t.Errorf("should support %v", q.Kind)
		}
	}
	if db.Supports(query.Query{Kind: query.RangeCount, Provider: record.YellowCab, Lo: 9, Hi: 1}) {
		t.Error("invalid query reported as supported")
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	db := newDB(t)
	if err := db.Setup(nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Query(query.Query{Kind: query.JoinCount, Provider: record.YellowCab}); err == nil {
		t.Error("invalid join accepted")
	}
}

func TestNewWithKeyRejectsBadKey(t *testing.T) {
	if _, err := NewWithKey([]byte("short")); err == nil {
		t.Error("bad key accepted")
	}
}

func TestOwnerSealerInterop(t *testing.T) {
	// The owner seals with db.Sealer(); the enclave must open those exact
	// ciphertexts. (Exercises the shared-key provisioning path.)
	db := newDB(t)
	r := yellow(7, 77)
	ct, err := db.Sealer().Seal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Sealer().Open(ct)
	if err != nil || got != r {
		t.Errorf("owner/enclave sealer mismatch: %v %v", got, err)
	}
}
