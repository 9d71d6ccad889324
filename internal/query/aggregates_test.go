package query

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dpsync/internal/record"
)

// allQueries covers every bundled kind plus shape variants the paper's
// queries never pose: swapped join sides, a self-join, off-domain ranges.
func allQueries() []Query {
	return []Query{
		Q1(), Q2(), Q3(), Q4(),
		{Kind: RangeCount, Provider: record.GreenTaxi, Lo: 1, Hi: record.NumLocations},
		{Kind: RangeCount, Provider: record.YellowCab, Lo: 200, Hi: 400}, // straddles the domain edge
		{Kind: GroupCount, Provider: record.GreenTaxi},
		{Kind: JoinCount, Provider: record.GreenTaxi, JoinWith: record.YellowCab},
		{Kind: JoinCount, Provider: record.YellowCab, JoinWith: record.YellowCab}, // self-join
		{Kind: SumFare, Provider: record.GreenTaxi, Lo: 10, Hi: 40},
	}
}

// randomRecords draws a store with colliding pickup times (exercising join
// multiplicities), occasional out-of-domain pickupIDs, and the given dummy
// fraction.
func randomRecords(rng *rand.Rand, n int, dummyFrac float64) []record.Record {
	rs := make([]record.Record, 0, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < dummyFrac {
			p := record.YellowCab
			if rng.IntN(2) == 0 {
				p = record.GreenTaxi
			}
			rs = append(rs, record.NewDummy(p))
			continue
		}
		r := record.Record{
			PickupTime: record.Tick(rng.IntN(n / 4)), // forced collisions
			PickupID:   uint16(rng.IntN(300) + 1),    // sometimes past NumLocations
			Provider:   record.YellowCab,
			FareCents:  uint32(rng.IntN(record.MaxFareCents + 1)),
		}
		if rng.IntN(3) == 0 {
			r.Provider = record.GreenTaxi
		}
		rs = append(rs, r)
	}
	return rs
}

func tablesOf(rs []record.Record) Tables {
	t := Tables{}
	for _, r := range rs {
		t[r.Provider] = append(t[r.Provider], r)
	}
	return t
}

func answersEqual(a, b Answer) bool {
	if a.Scalar != b.Scalar || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Groups {
		if a.Groups[i] != b.Groups[i] {
			return false
		}
	}
	return true
}

// TestAggregatesMatchNaive is the differential pin for the incremental
// engine: over randomized stores (with and without dummies) and randomized
// ingest orders, AnswerFor must be bit-identical to evaluating the naive
// (for dummy-free stores) or Appendix-B-rewritten (for dummy-bearing
// stores) plan over the full tables.
func TestAggregatesMatchNaive(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(trial), 0xa66))
			dummyFrac := float64(trial%4) * 0.2 // 0, 0.2, 0.4, 0.6
			rs := randomRecords(rng, 400, dummyFrac)
			rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })

			agg := NewAggregates()
			agg.ObserveAll(rs)
			tables := tablesOf(rs)
			for _, q := range allQueries() {
				got, err := agg.AnswerFor(q)
				if err != nil {
					t.Fatalf("%v: %v", q.Kind, err)
				}
				// Evaluate applies the dummy-eliminating rewrite, matching
				// Observe's dummy skip; on dummy-free stores it coincides
				// with Truth (pinned separately below).
				want, err := Evaluate(q, tables)
				if err != nil {
					t.Fatalf("%v naive: %v", q.Kind, err)
				}
				if !answersEqual(got, want) {
					t.Errorf("%v over %+v: incremental %+v != naive %+v", q.Kind, q, got, want)
				}
				if dummyFrac == 0 {
					truth, err := Truth(q, tables)
					if err != nil {
						t.Fatalf("%v truth: %v", q.Kind, err)
					}
					if !answersEqual(got, truth) {
						t.Errorf("%v: incremental %+v != Truth %+v", q.Kind, got, truth)
					}
				}
			}
		})
	}
}

// TestAggregatesOrderInvariant pins that ingest order cannot perturb any
// answer: counts and fare sums are integers below 2^53, so float64 exactness
// holds regardless of accumulation order.
func TestAggregatesOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	rs := randomRecords(rng, 300, 0.25)
	a, b := NewAggregates(), NewAggregates()
	a.ObserveAll(rs)
	shuffled := append([]record.Record(nil), rs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b.ObserveAll(shuffled)
	for _, q := range allQueries() {
		x, err := a.AnswerFor(q)
		if err != nil {
			t.Fatal(err)
		}
		y, err := b.AnswerFor(q)
		if err != nil {
			t.Fatal(err)
		}
		if !answersEqual(x, y) {
			t.Errorf("%v: order-dependent answers %+v vs %+v", q.Kind, x, y)
		}
	}
}

func TestAggregatesEmptyAndErrors(t *testing.T) {
	agg := NewAggregates()
	for _, q := range allQueries() {
		ans, err := agg.AnswerFor(q)
		if err != nil {
			t.Fatalf("%v on empty: %v", q.Kind, err)
		}
		if ans.Total() != 0 {
			t.Errorf("%v on empty = %v, want 0", q.Kind, ans.Total())
		}
	}
	if _, err := agg.AnswerFor(Query{Kind: Kind(99), Provider: record.YellowCab}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := agg.AnswerFor(Query{Kind: RangeCount, Provider: record.YellowCab, Lo: 9, Hi: 1}); err == nil {
		t.Error("inverted range accepted")
	}
	if agg.Real(record.YellowCab) != 0 {
		t.Error("empty aggregates report records")
	}
	agg.Observe(record.NewDummy(record.YellowCab))
	if agg.Real(record.YellowCab) != 0 {
		t.Error("dummy counted as real")
	}
}

// TestJoinCountNoMaterialization pins that counting a join runs in
// O(|L|+|R|) — a store whose join output would be ~10^8 rows must still
// count instantly (materializing it would OOM or time out the suite).
func TestJoinCountNoMaterialization(t *testing.T) {
	const side = 10_000 // all records share one tick → 10^8 join output rows
	rs := make([]record.Record, 0, 2*side)
	for i := 0; i < side; i++ {
		rs = append(rs,
			record.Record{PickupTime: 1, PickupID: 1, Provider: record.YellowCab},
			record.Record{PickupTime: 1, PickupID: 1, Provider: record.GreenTaxi})
	}
	tables := tablesOf(rs)
	want := float64(side) * float64(side)
	ans, err := Truth(Q3(), tables)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Scalar != want {
		t.Errorf("join count = %v, want %v", ans.Scalar, want)
	}
	agg := NewAggregates()
	agg.ObserveAll(rs)
	inc, err := agg.AnswerFor(Q3())
	if err != nil {
		t.Fatal(err)
	}
	if inc.Scalar != want {
		t.Errorf("incremental join count = %v, want %v", inc.Scalar, want)
	}
}

// hostileRecords are rows record.Decode admits and Record.Validate would
// refuse — an authenticated ciphertext can carry any of them, so the indexed
// statistic must count them exactly as the naive plan does: pickupIDs 0, 266
// and 65535 (outside the dense array's domain or at its unused slot), unknown
// providers, join keys that repeat, descend and go negative, fares at and
// above MaxFareCents — interleaved with dummies and well-formed rows.
func hostileRecords() []record.Record {
	const unknown = record.Provider(7)
	rec := func(p record.Provider, t record.Tick, id uint16, fare uint32) record.Record {
		return record.Record{PickupTime: t, PickupID: id, Provider: p, FareCents: fare}
	}
	return []record.Record{
		rec(record.YellowCab, 100, 60, 1200),
		rec(record.YellowCab, 100, 0, record.MaxFareCents),
		record.NewDummy(record.YellowCab),
		rec(record.GreenTaxi, 100, record.NumLocations+1, record.MaxFareCents+1),
		rec(record.YellowCab, 90, 65535, 1<<32-1),
		rec(record.GreenTaxi, 90, 65535, 7),
		{PickupTime: 80, PickupID: 266, Provider: unknown, Dummy: true, FareCents: 9},
		rec(unknown, 80, 10, 10),
		rec(unknown, 80, 266, 11),
		rec(record.Provider(0), 80, 10, 12), // observable, never queryable
		rec(record.YellowCab, -5, record.NumLocations, 1),
		rec(record.GreenTaxi, -5, record.NumLocations, 2),
		rec(record.YellowCab, -1<<63, 1, 3),
		rec(record.GreenTaxi, 1<<63-1, 1, 4),
		rec(record.YellowCab, 100, 60, 0),
		record.NewDummy(record.GreenTaxi),
		rec(record.GreenTaxi, 100, 266, 5),
		rec(record.YellowCab, 70, 265, 6),
		rec(record.YellowCab, 60, 266, 7),
		rec(record.YellowCab, 60, 266, 8),
		rec(record.GreenTaxi, 60, 0, 9),
	}
}

// hostileQueries adds, to allQueries, ranges that straddle the dense array's
// edge at 265, sit wholly outside it or cover the whole uint16 domain, on known
// and unknown providers, and joins that involve an unknown provider.
func hostileQueries() []Query {
	const unknown = record.Provider(7)
	qs := allQueries()
	for _, p := range []record.Provider{record.YellowCab, record.GreenTaxi, unknown, record.Provider(200)} {
		for _, r := range [][2]uint16{{0, 0}, {0, 65535}, {260, 270}, {265, 265}, {265, 266}, {266, 266}, {266, 65535}, {65535, 65535}, {267, 65534}} {
			qs = append(qs,
				Query{Kind: RangeCount, Provider: p, Lo: r[0], Hi: r[1]},
				Query{Kind: SumFare, Provider: p, Lo: r[0], Hi: r[1]})
		}
		qs = append(qs,
			Query{Kind: GroupCount, Provider: p},
			Query{Kind: JoinCount, Provider: p, JoinWith: p},
			Query{Kind: JoinCount, Provider: p, JoinWith: unknown},
			Query{Kind: JoinCount, Provider: record.GreenTaxi, JoinWith: p})
	}
	return qs
}

// checkAgainstNaive observes rs in the given cuts and, after each, holds every
// query's incremental answer to Evaluate over the rows observed so far — so a
// join that has sorted its keys is followed by more out-of-order arrivals and
// asked again.
func checkAgainstNaive(t *testing.T, rs []record.Record, qs []Query, cuts ...int) {
	t.Helper()
	agg := NewAggregates()
	prev := 0
	for _, cut := range append(cuts, len(rs)) {
		if cut < prev || cut > len(rs) {
			continue
		}
		agg.ObserveAll(rs[prev:cut])
		prev = cut
		tables := tablesOf(rs[:cut])
		for _, q := range qs {
			got, err := agg.AnswerFor(q)
			if err != nil {
				t.Fatalf("%+v: %v", q, err)
			}
			want, err := Evaluate(q, tables)
			if err != nil {
				t.Fatalf("%+v naive: %v", q, err)
			}
			if !answersEqual(got, want) {
				t.Fatalf("after %d rows, %+v: incremental %+v != naive %+v", cut, q, got, want)
			}
		}
		for _, p := range []record.Provider{record.YellowCab, record.GreenTaxi, 7} {
			if got, want := agg.Real(p), int64(record.CountReal(tables[p])); got != want {
				t.Fatalf("after %d rows, Real(%v) = %d, want %d", cut, p, got, want)
			}
		}
	}
}

// TestAggregatesMatchNaiveOutOfDomain is the oracle for the indexed statistic:
// rows outside the pickupID domain, of unknown providers and with join keys in
// any order cannot break it, make it panic, or move one answer off the naive
// plan's — in the order given, reversed, and shuffled, asked at every prefix.
func TestAggregatesMatchNaiveOutOfDomain(t *testing.T) {
	rs := hostileRecords()
	every := make([]int, len(rs))
	for i := range every {
		every[i] = i
	}
	checkAgainstNaive(t, rs, hostileQueries(), every...)

	rev := append([]record.Record(nil), rs...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	checkAgainstNaive(t, rev, hostileQueries(), every...)

	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x0dd))
		mixed := append(randomRecords(rng, 200, 0.14), rs...)
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		checkAgainstNaive(t, mixed, hostileQueries(), 1, len(mixed)/3, len(mixed)/2)
	}
}

// FuzzAggregatesMatchNaive feeds the statistic what an authenticated upload
// can: any 16 plaintext bytes a record (record.Decode validates nothing but
// the dummy marker, which is masked into range here), then any range and join
// over them. Seeds are the out-of-domain rows above.
func FuzzAggregatesMatchNaive(f *testing.F) {
	hostile := hostileRecords()
	f.Add(record.EncodeSlice(hostile), uint16(260), uint16(270), uint8(record.YellowCab), uint8(record.GreenTaxi))
	f.Add(record.EncodeSlice(hostile), uint16(0), uint16(65535), uint8(7), uint8(7))
	f.Add(record.EncodeSlice(hostile[:8]), uint16(266), uint16(266), uint8(record.GreenTaxi), uint8(record.GreenTaxi))
	f.Add([]byte{}, uint16(1), uint16(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, lo, hi uint16, p, with uint8) {
		if len(raw) > 512*record.EncodedSize {
			return // the naive join is quadratic in equal keys
		}
		var rs []record.Record
		for ; len(raw) >= record.EncodedSize; raw = raw[record.EncodedSize:] {
			buf := [record.EncodedSize]byte(raw)
			buf[11] &= 1
			r, err := record.Decode(buf[:])
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, r)
		}
		qs := allQueries()
		for _, q := range []Query{
			{Kind: RangeCount, Provider: record.Provider(p), Lo: lo, Hi: hi},
			{Kind: SumFare, Provider: record.Provider(p), Lo: lo, Hi: hi},
			{Kind: GroupCount, Provider: record.Provider(p)},
			{Kind: JoinCount, Provider: record.Provider(p), JoinWith: record.Provider(with)},
		} {
			if q.Validate() == nil {
				qs = append(qs, q)
			}
		}
		checkAgainstNaive(t, rs, qs, len(rs)/2)
	})
}
