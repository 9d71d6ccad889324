package loadgen

import (
	"fmt"

	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/leakage"
	"dpsync/internal/refdb"
	"dpsync/internal/seal"
)

// referenceFleet is the run's fleet with the transport removed: the same
// seeded owners, unpaced and unqueried, each attached to its own refdb. What
// a refdb observes depends only on its owner's seed and tick sequence, so any
// barrier-quiesced concurrent drive of the real fleet is comparable to it.
func referenceFleet(cfg Config) (*fleet, []*refdb.DB, error) {
	key, err := seal.NewRandomKey()
	if err != nil {
		return nil, nil, err
	}
	dbs := make([]*refdb.DB, cfg.Owners)
	for i := range dbs {
		if dbs[i], err = refdb.New(key); err != nil {
			return nil, nil, err
		}
	}
	f := newFleet(Config{Owners: cfg.Owners, Seed: cfg.Seed})
	f.attach(func(i int) edb.Database { return dbs[i] })
	return f, dbs, nil
}

// expectation is what a server must have observed of one owner, twice over:
// the update pattern of the uninterrupted run as the single-owner reference
// database observed it (ref), and the pattern the paper's mechanism computes
// from the owner's data alone (mech, ownerMechanism).
type expectation struct {
	ref, mech leakage.Pattern
}

// reference computes every owner's expectation.
func reference(cfg Config) ([]expectation, error) {
	f, dbs, err := referenceFleet(cfg)
	if err != nil {
		return nil, err
	}
	if err := f.drive(0, cfg.Ticks); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	want := make([]expectation, len(dbs))
	for i, db := range dbs {
		mech, err := ownerMechanism(i, cfg.Seed, cfg.Ticks)
		if err != nil {
			return nil, fmt.Errorf("reference: %s: %w", ownerName(i), err)
		}
		want[i] = expectation{ref: db.ObservedPattern(), mech: *mech}
	}
	return want, nil
}

// observation is what a server holds for one owner: the update pattern it saw
// and the ε ledger it charged.
type observation struct {
	pattern leakage.Pattern
	ledger  *dp.Budget
}

// verifyObserved holds every owner's observation to its expectation (none,
// for an external target: there is nothing to observe).
func verifyObserved(want []expectation, observe func(owner string) observation, eps float64) error {
	for i, w := range want {
		if err := check(ownerName(i), w, observe(ownerName(i)), eps); err != nil {
			return err
		}
	}
	return nil
}

// check is the one verification: the observed event sequence must equal the
// reference's, tick for tick and volume for volume, and the mechanism's,
// volume for volume — a server sees neither the owner's clock nor which sync
// is a flush, so an event's tick is its upload's sequence number — and the
// ledger must hold exactly one m_setup for event 0 and one m_update for every
// further event, each at eps. The error names the owner and the first event
// that is wrong.
func check(owner string, want expectation, got observation, eps float64) error {
	bad := func(event int, format string, args ...any) error {
		return fmt.Errorf("loadgen: %s event %d: %s", owner, event, fmt.Sprintf(format, args...))
	}
	events, ref := got.pattern.Events, want.ref
	for i, want := range ref.Events {
		switch {
		case i >= len(events):
			return bad(i, "missing: observed %d events, the reference has %d", len(events), len(ref.Events))
		case events[i].Tick != want.Tick || events[i].Volume != want.Volume:
			return bad(i, "observed (%d, %d), the reference has (%d, %d)",
				events[i].Tick, events[i].Volume, want.Tick, want.Volume)
		}
	}
	if len(events) > len(ref.Events) {
		return bad(len(ref.Events), "observed (%d, %d), the reference ends at %d events",
			events[len(ref.Events)].Tick, events[len(ref.Events)].Volume, len(ref.Events))
	}
	mech := want.mech.Events
	for i := range max(len(events), len(mech)) {
		switch {
		case i >= len(mech):
			return bad(i, "observed volume %d, the mechanism ends at %d events", events[i].Volume, len(mech))
		case i >= len(events):
			return bad(i, "missing: observed %d events, the mechanism has %d", len(events), len(mech))
		case events[i].Volume != mech[i].Volume:
			return bad(i, "observed volume %d, the mechanism has %d (tick %d, flush %v)",
				events[i].Volume, mech[i].Volume, mech[i].Tick, mech[i].Flush)
		}
	}

	// A ledger refuses a charge whose ε differs from what it recorded under
	// that name: that refusal is the drift check.
	for i, name := range []string{"m_setup", "m_update"} {
		if err := got.ledger.CanCharge(name, eps, dp.Sequential); err != nil {
			return bad(i, "charged at the wrong ε: %v", err)
		}
	}
	ledger := dp.NewBudget()
	for i := range events {
		name := "m_update"
		if i == 0 {
			name = "m_setup"
		}
		if err := ledger.Charge(name, eps, dp.Sequential); err != nil {
			return bad(i, "%v", err)
		}
	}
	if got.ledger.Equal(ledger) {
		return nil
	}
	charged := got.ledger.Uses("m_setup") + got.ledger.Uses("m_update")
	switch {
	case charged > len(events):
		return bad(len(events), "%d charges for %d events (double spend); ledger:\n%s", charged, len(events), got.ledger.Describe())
	case charged < len(events):
		return bad(charged, "never charged (lost charge): %d charges for %d events; ledger:\n%s", charged, len(events), got.ledger.Describe())
	}
	return bad(0, "ledger is not one m_setup plus one m_update per further event:\n%s", got.ledger.Describe())
}
