package crypte

import (
	"errors"
	"reflect"
	"testing"

	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// TestSealedIngest: a sealed batch, opened with the DB's own key, answers
// what the same records handed in process answer, counting every record and
// no dummy; a batch with one message the key cannot open is refused whole;
// and the sealed calls keep the lifecycle's order.
func TestSealedIngest(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	s, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *DB {
		db, err := NewWithKey(key, WithNoiseSource(dp.NewSeededSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	setup := []record.Record{yellow(0, 60), yellow(0, 61), record.NewDummy(record.YellowCab)}
	update := []record.Record{yellow(1, 62), record.NewDummy(record.YellowCab)}
	plain, sealed := build(), build()
	if err := sealed.UpdateSealed(nil); !errors.Is(err, edb.ErrNotSetup) {
		t.Fatalf("UpdateSealed before SetupSealed: %v", err)
	}
	for i, rs := range [][]record.Record{setup, update} {
		cts, err := s.SealBatch(rs)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			err = plain.Setup(rs)
			if err == nil {
				err = sealed.SetupSealed(cts)
			}
		} else {
			err = plain.Update(rs)
			if err == nil {
				err = sealed.UpdateSealed(cts)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sealed.SetupSealed(nil); !errors.Is(err, edb.ErrAlreadySetup) {
		t.Fatalf("second SetupSealed: %v", err)
	}
	for _, q := range []query.Query{query.Q1(), query.Q2()} {
		want, _, err := plain.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sealed.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: sealed ingest answers %+v, in-process %+v", q.Kind, got, want)
		}
	}
	st := sealed.Stats()
	if st.Records != 5 || st.DummyRecords != 0 || st.Bytes != 5*EncodingBytes || st.Updates != 2 {
		t.Fatalf("sealed stats = %+v, want 5 records, none counted dummy, in 2 updates", st)
	}
	good, err := s.SealBatch([]record.Record{yellow(2, 63)})
	if err != nil {
		t.Fatal(err)
	}
	forged := append(seal.Sealed(nil), good[0]...)
	forged[len(forged)-1] ^= 1
	if err := sealed.UpdateSealed([]seal.Sealed{good[0], forged}); err == nil {
		t.Fatal("a batch with a forged message was admitted")
	}
	if got := sealed.Stats(); got != st {
		t.Fatalf("a refused batch moved the stats: %+v, was %+v", got, st)
	}
}
