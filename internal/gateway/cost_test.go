package gateway_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dpsync/internal/client"
	"dpsync/internal/crypte"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/oblidb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// TestServedCostIsTheBackendsOwn: an answer's cost travels as its two record
// counts, and the client derives the modelled seconds from them with its
// backend scheme's model — the arithmetic the backend did, on the same
// numbers. So the cost an owner session reports equals, bit for bit, the one
// the backend computes for the same store asked directly: ObliDB's (the
// default backend) for Q1–Q4 at V = 0, 7, 131, 132 and 256 records — Yellow
// and Green, a quarter of them dummies — and Cryptε's, served through
// gateway.Config.NewBackend, for the kinds it answers.
func TestServedCostIsTheBackendsOwn(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	newCrypte := func(string) (edb.Database, error) {
		return crypte.NewWithKey(key, crypte.WithNoiseSource(dp.NewSeededSource(7)))
	}
	stored := func(v int) []record.Record {
		rs := make([]record.Record, v)
		for i := range rs {
			provider := record.YellowCab
			if i%3 == 0 {
				provider = record.GreenTaxi
			}
			rs[i] = record.Record{PickupTime: record.Tick(i), PickupID: uint16(1 + i*37%record.NumLocations), Provider: provider}
			if i%4 == 3 {
				rs[i] = record.NewDummy(provider)
			}
		}
		return rs
	}
	for _, backend := range []struct {
		name   string
		serve  gateway.Config
		direct func() (edb.Database, error)
	}{
		{"ObliDB", gateway.Config{Key: key}, func() (edb.Database, error) { return oblidb.NewWithKey(key) }},
		{"Crypteps", gateway.Config{Key: key, NewBackend: newCrypte}, func() (edb.Database, error) { return newCrypte("") }},
	} {
		gw, _ := startGateway(t, backend.serve)
		conn, err := client.DialGateway(gw.Addr(), key)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, v := range []int{0, 7, 131, 132, 256} {
			served := conn.Owner(fmt.Sprintf("owner-%d", v))
			direct, err := backend.direct()
			if err != nil {
				t.Fatal(err)
			}
			rs := stored(v)
			for _, db := range []edb.Database{served, direct} {
				if err := db.Setup(rs[:v/2]); err != nil {
					t.Fatal(err)
				}
				if err := db.Update(rs[v/2:]); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()} {
				_, want, derr := direct.Query(q)
				_, got, serr := served.Query(q)
				if errors.Is(derr, edb.ErrUnsupportedQuery) {
					if serr == nil {
						t.Errorf("%s %v at V=%d: served, but the backend answers no such query", backend.name, q.Kind, v)
					}
					continue
				}
				if derr != nil || serr != nil {
					t.Fatalf("%s %v at V=%d: direct %v, served %v", backend.name, q.Kind, v, derr, serr)
				}
				if want.Seconds <= 0 || math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds) ||
					got.RecordsScanned != want.RecordsScanned || got.PairsCompared != want.PairsCompared {
					t.Errorf("%s %v at V=%d: served cost %+v (%#x s), the backend's %+v (%#x s)", backend.name, q.Kind, v,
						got, math.Float64bits(got.Seconds), want, math.Float64bits(want.Seconds))
				}
			}
		}
	}
}
