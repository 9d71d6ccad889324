package oblidb

import (
	"math"
	"math/rand/v2"
	"testing"

	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/wire"
)

// FuzzAnswersFitTheirBound is the exactness pin behind an answer's width, on
// FuzzAggregatesMatchNaive's inputs (the same arguments, decoded the same
// way): dummies, pickupIDs outside the domain, both providers and an unknown
// one, join keys that repeat and descend, fares past MaxFareCents. After the
// setup half and again after the update half, every answer ObliDB gives to
// Q1–Q4, the fuzzed queries and the differential's others is exact counts
// within the bound its kind and the store's record count put on it: it
// travels at the width an all-zero answer from the same store gets — the
// rule's, a function of kind and size alone — never as floats, and decodes
// to itself bit for bit. A GroupCount answer's counts sum to at most the
// store's V, so from V ≤ 131 records — where V 2-byte indices are fewer
// bytes than 265 one-byte groups — it travels as V indices, never falling
// back to the groups.
func FuzzAnswersFitTheirBound(f *testing.F) {
	rng := rand.New(rand.NewPCG(40, 0x0b11db))
	f.Add(record.EncodeSlice(hostileBatch(rng, 40)), uint16(260), uint16(270), uint8(record.YellowCab), uint8(record.GreenTaxi))
	f.Add(record.EncodeSlice(hostileBatch(rng, 200)), uint16(0), uint16(65535), uint8(7), uint8(7))
	f.Add(record.EncodeSlice(randomBatch(rng, 300)), uint16(266), uint16(266), uint8(record.GreenTaxi), uint8(record.GreenTaxi))
	f.Add(record.EncodeSlice(randomBatch(rng, 8)), uint16(1), uint16(record.NumLocations), uint8(record.YellowCab), uint8(record.YellowCab))
	f.Add([]byte{}, uint16(1), uint16(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, lo, hi uint16, p, with uint8) {
		if len(raw) > 512*record.EncodedSize {
			return
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
		qs := []query.Query{
			query.Q1(), query.Q2(), query.Q3(), query.Q4(),
			{Kind: query.GroupCount, Provider: record.GreenTaxi},
			{Kind: query.JoinCount, Provider: record.GreenTaxi, JoinWith: record.YellowCab},
			{Kind: query.JoinCount, Provider: record.YellowCab, JoinWith: record.YellowCab},
			{Kind: query.RangeCount, Provider: record.GreenTaxi, Lo: 0, Hi: 65535},
			{Kind: query.SumFare, Provider: record.YellowCab, Lo: 0, Hi: 65535},
		}
		for _, q := range []query.Query{
			{Kind: query.RangeCount, Provider: record.Provider(p), Lo: lo, Hi: hi},
			{Kind: query.SumFare, Provider: record.Provider(p), Lo: lo, Hi: hi},
			{Kind: query.GroupCount, Provider: record.Provider(p)},
			{Kind: query.JoinCount, Provider: record.Provider(p), JoinWith: record.Provider(with)},
		} {
			if q.Validate() == nil {
				qs = append(qs, q)
			}
		}
		db := newDB(t)
		half := len(rs) / 2
		if err := db.Setup(rs[:half]); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 2; step++ {
			if step == 1 {
				if err := db.Update(rs[half:]); err != nil {
					t.Fatal(err)
				}
			}
			v := db.Stats().Records
			for _, q := range qs {
				ans, cost, err := db.Query(q)
				if err != nil {
					t.Fatalf("%+v: %v", q, err)
				}
				zero := query.Answer{}
				if q.Kind == query.GroupCount {
					zero.Groups = make([]float64, record.NumLocations)
				}
				want := wire.NewBoundedQueryResponse(zero, edb.Cost{}, q.Kind, v).Answer.Width
				resp := wire.NewBoundedQueryResponse(ans, cost, q.Kind, v)
				if w := resp.Answer.Width; w != want || w == wire.WidthFloat {
					t.Fatalf("%+v over %d records: %+v travels at width %d, want the bound's %d", q, v, ans, w, want)
				}
				if a := resp.Answer; q.Kind == query.GroupCount && v <= 131 && (a.Width != wire.WidthIndex || a.Slots != v) {
					t.Fatalf("%+v over %d records: %+v travels at width %#x in %d slots, want %d indices", q, v, ans, a.Width, a.Slots, v)
				}
				b, err := wire.CodecBinary.EncodeGatewayResponse(wire.GatewayResponse{ID: 1, Resp: resp})
				if err != nil {
					t.Fatalf("%+v over %d records: %v", q, v, err)
				}
				back, err := wire.CodecBinary.DecodeGatewayResponse(b)
				if err != nil {
					t.Fatal(err)
				}
				got := back.Resp.Answer.ToAnswer()
				if math.Float64bits(got.Scalar) != math.Float64bits(ans.Scalar) || got.L1(ans) != 0 || len(got.Groups) != len(ans.Groups) {
					t.Fatalf("%+v over %d records: %+v came back as %+v", q, v, ans, got)
				}
			}
		}
	})
}
