package refdb

import (
	"testing"

	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

func yellow(tick int, id uint16) record.Record {
	return record.Record{PickupTime: record.Tick(tick), PickupID: id, Provider: record.YellowCab}
}

// TestObservesOnlySequenceAndVolume pins what the oracle records: one event
// per upload, indexed by upload sequence, carrying the ciphertext count —
// dummies included, failed uploads excluded — and nothing else.
func TestObservesOnlySequenceAndVolume(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := edb.CheckCompatibility(db); err != nil {
		t.Fatalf("reference should pass the §6 gate: %v", err)
	}
	if err := db.Update([]record.Record{yellow(1, 1)}); err == nil {
		t.Fatal("update before setup accepted")
	}
	if err := db.Setup([]record.Record{yellow(0, 60), yellow(0, 70)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update([]record.Record{yellow(1, 80), record.NewDummy(record.YellowCab), record.NewDummy(record.YellowCab)}); err != nil {
		t.Fatal(err)
	}
	pat := db.ObservedPattern()
	if got, want := pat.String(), "{(1, 2), (2, 3)}"; got != want {
		t.Fatalf("observed pattern = %s, want %s (the refused update must leave no event)", got, want)
	}
	pat.Events[0].Volume = 99 // a copy: the oracle's transcript is not aliased
	if db.ObservedPattern().Events[0].Volume != 2 {
		t.Fatal("ObservedPattern aliases the live transcript")
	}
	ans, cost, err := db.Query(query.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Scalar != 3 || cost.RecordsScanned != 5 {
		t.Errorf("Q1 = %v scanning %d, want 3 real in range over 5 ciphertexts", ans.Scalar, cost.RecordsScanned)
	}
	// The server's view is split-blind.
	if st := db.Stats(); st.Records != 5 || st.DummyRecords != 0 || st.Updates != 2 {
		t.Errorf("stats = %+v", st)
	}
}
