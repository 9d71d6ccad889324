package oblidb

import (
	"errors"
	"testing"

	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// Tests for the sealed ingest path used by the networked deployment, driven
// directly against the package (the server tests exercise it over TCP).

func TestSealedLifecycle(t *testing.T) {
	db := newDB(t)
	if db.Name() != "ObliDB" {
		t.Errorf("name = %q", db.Name())
	}
	cts, err := db.Sealer().SealAll([]record.Record{
		yellow(1, 60),
		record.NewDummy(record.YellowCab),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateSealed(cts); !errors.Is(err, edb.ErrNotSetup) {
		t.Errorf("UpdateSealed before setup: %v", err)
	}
	if err := db.SetupSealed(cts[:1]); err != nil {
		t.Fatal(err)
	}
	if err := db.SetupSealed(nil); !errors.Is(err, edb.ErrAlreadySetup) {
		t.Errorf("double SetupSealed: %v", err)
	}
	if err := db.UpdateSealed(cts[1:]); err != nil {
		t.Fatal(err)
	}
	// Server-side stats cannot see the split: everything counts as records,
	// zero dummies.
	s := db.Stats()
	if s.Records != 2 || s.DummyRecords != 0 {
		t.Errorf("sealed-path stats = %+v", s)
	}
	// The enclave still filters the dummy out of answers.
	ans, _, err := db.Query(query.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Scalar != 1 {
		t.Errorf("Q1 = %v, want 1", ans.Scalar)
	}
}

func TestSealedRejectsForgedLength(t *testing.T) {
	db := newDB(t)
	if err := db.SetupSealed([]seal.Sealed{make(seal.Sealed, 10)}); err == nil {
		t.Error("short ciphertext accepted")
	}
}

func TestGreenTableScanExtent(t *testing.T) {
	db := newDB(t)
	var rs []record.Record
	for i := 0; i < 6; i++ {
		rs = append(rs, yellow(i, 1))
	}
	for i := 0; i < 3; i++ {
		rs = append(rs, green(100+i, 2))
	}
	if err := db.Setup(rs); err != nil {
		t.Fatal(err)
	}
	// A Green-targeted query scans only the 3 Green records.
	_, cost, err := db.Query(query.Query{Kind: query.RangeCount, Provider: record.GreenTaxi, Lo: 1, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if cost.RecordsScanned != 3 {
		t.Errorf("green scan = %d records, want 3", cost.RecordsScanned)
	}
}
