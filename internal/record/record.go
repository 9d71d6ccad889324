// Package record defines the relational record model shared by every layer
// of DP-Sync: the owner's local cache, the synchronization strategies, the
// encrypted-database substrates, and the query engine.
//
// DP-Sync assumes an *atomic* database (paper §4.1): each logical record is
// encrypted independently into one ciphertext, and dummy records — required
// by the Perturb operator and the SET/flush mechanisms — must be
// indistinguishable from real records once sealed. That drives two design
// rules here: every record serializes to the same fixed width, and the
// IsDummy marker lives inside the (to-be-encrypted) payload, never outside.
package record

import (
	"errors"
	"fmt"
)

// Tick is a discrete timestamp. The paper's evaluation uses one-minute time
// units over a month (43,200 ticks); nothing in the system depends on the
// wall-clock meaning of a tick.
type Tick int64

// Record is one relational row of the growing database.
type Record struct {
	// PickupTime is the tick at which the trip (event) occurred. The paper's
	// workloads guarantee at most one real record per tick after dedup.
	PickupTime Tick
	// PickupID is the pickup-location identifier, 1..NumLocations for real
	// records. Q1 range-counts it and Q2 groups by it.
	PickupID uint16
	// Provider distinguishes the two datasets joined by Q3.
	Provider Provider
	// FareCents is an extra numeric attribute so aggregation beyond COUNT is
	// exercisable; it plays no role in the paper's three queries.
	FareCents uint32
	// Dummy marks padding records. Dummy records are filtered out by the
	// query-rewriting layer and never contribute to query answers.
	Dummy bool
}

// Provider identifies which logical table a record belongs to.
type Provider uint8

// Providers used by the paper's evaluation datasets.
const (
	YellowCab Provider = iota + 1
	GreenTaxi
)

// String implements fmt.Stringer.
func (p Provider) String() string {
	switch p {
	case YellowCab:
		return "YellowCab"
	case GreenTaxi:
		return "GreenTaxi"
	default:
		return fmt.Sprintf("Provider(%d)", uint8(p))
	}
}

// NumLocations is the pickup-location domain size. The NYC TLC taxi-zone map
// has 265 zones; Q1's range 50–100 and Q2's group-by both run over this
// domain.
const NumLocations = 265

// MaxFareCents bounds the fare attribute. Differentially private SUM
// releases (the Q4 extension) use it as the query sensitivity, so real
// records must respect it; Validate enforces the bound.
const MaxFareCents = 5000

// Validate checks domain invariants for real records. Dummy records are
// exempt: their attribute bytes are arbitrary padding.
func (r Record) Validate() error {
	if r.Dummy {
		return nil
	}
	if r.PickupTime < 0 {
		return fmt.Errorf("record: negative pickup time %d", r.PickupTime)
	}
	if r.PickupID < 1 || r.PickupID > NumLocations {
		return fmt.Errorf("record: pickup id %d outside 1..%d", r.PickupID, NumLocations)
	}
	if r.Provider != YellowCab && r.Provider != GreenTaxi {
		return fmt.Errorf("record: unknown provider %d", r.Provider)
	}
	if r.FareCents > MaxFareCents {
		return fmt.Errorf("record: fare %d exceeds bound %d", r.FareCents, MaxFareCents)
	}
	return nil
}

// ErrNotDummy is returned when dummy-only operations receive a real record.
var ErrNotDummy = errors.New("record: not a dummy record")

// Dummy returns a padding record for the given provider. The attribute
// fields carry fixed sentinel values; indistinguishability from real records
// is the job of the seal layer (equal-width plaintexts + semantic security),
// not of the plaintext contents.
func NewDummy(p Provider) Record {
	return Record{Provider: p, Dummy: true}
}

// CountReal returns how many of rs are real (non-dummy) records.
func CountReal(rs []Record) int {
	n := 0
	for _, r := range rs {
		if !r.Dummy {
			n++
		}
	}
	return n
}
