// Package core wires DP-Sync together: the data owner that buffers arriving
// records in the local cache, consults the synchronization strategy each
// tick, performs dummy-padded uploads through the encrypted database's
// update protocol, and keeps the bookkeeping the paper's metrics need
// (logical database, logical gap, update-pattern transcript).
//
// The architecture follows the paper's Figure 1: records flow
//
//	arrivals → local cache → (Sync says when/how many) → edb.Update
//
// and the only adversary-visible signal added by DP-Sync is the sequence of
// upload times and volumes, captured here as a leakage.Pattern.
package core

import (
	"errors"
	"fmt"

	"dpsync/internal/cache"
	"dpsync/internal/edb"
	"dpsync/internal/leakage"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/strategy"
)

// Config assembles an Owner.
type Config struct {
	// Strategy is the synchronization policy (required).
	Strategy strategy.Strategy
	// Database is the encrypted database (required). It must be DP-Sync
	// compatible (leakage class L-0 or L-DP), the paper's §6 constraint.
	Database edb.Database
	// Order is the local cache discipline; FIFO (default) is required for
	// the strong eventual-consistency property P3.
	Order cache.Order
	// DummyProvider tags padding records; defaults to YellowCab.
	DummyProvider record.Provider
	// Attach marks this owner as a secondary table owner on a shared EDB:
	// another owner already ran the setup protocol, so this owner's initial
	// upload goes through the update protocol instead. Used by the Q3 join
	// deployment where Yellow and Green are synced independently into one
	// ObliDB store.
	Attach bool
}

// Owner is the data owner of the three-party model. Not safe for concurrent
// use: drive it from one goroutine (arrivals and queries are serialized in
// the paper's model too).
type Owner struct {
	strat   strategy.Strategy
	db      edb.Database
	cache   *cache.Cache
	pattern *leakage.Pattern

	// truth incrementally aggregates the logical database D_t, so Truth and
	// QueryError at query cadence cost O(keys) instead of re-evaluating the
	// whole logical history. The answers are bit-identical to naive plan
	// evaluation over the stored records (see query.Aggregates).
	truth        *query.Aggregates
	logicalCount int // |D_t|: real records received so far (incl. D0)
	uploadedReal int // real records outsourced so far
	now          record.Tick
	setupDone    bool
	attach       bool
}

// ErrSetupRequired is returned when Tick or Query run before Setup.
var ErrSetupRequired = errors.New("core: Setup must run first")

// ErrDummyArrival is returned when a dummy record is passed as a logical
// update; owners only ever receive real data.
var ErrDummyArrival = errors.New("core: owners never receive dummy records")

// New validates cfg and builds an Owner.
func New(cfg Config) (*Owner, error) {
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("core: nil strategy")
	}
	if cfg.Database == nil {
		return nil, fmt.Errorf("core: nil database")
	}
	if err := edb.CheckCompatibility(cfg.Database); err != nil {
		return nil, err
	}
	dummyProvider := cfg.DummyProvider
	if dummyProvider == 0 {
		dummyProvider = record.YellowCab
	}
	dummyOf := func() record.Record { return record.NewDummy(dummyProvider) }
	return &Owner{
		strat:   cfg.Strategy,
		db:      cfg.Database,
		attach:  cfg.Attach,
		cache:   cache.New(cfg.Order, dummyOf),
		pattern: &leakage.Pattern{},
		truth:   query.NewAggregates(),
	}, nil
}

// Setup outsources the initial database D0: the strategy decides |γ0|
// (perturbing it for the DP strategies), the cache supplies that many
// records (dummy-padded), and the EDB's setup protocol runs. The observed
// event (0, |γ0|) opens the update-pattern transcript.
func (o *Owner) Setup(d0 []record.Record) error {
	if o.setupDone {
		return edb.ErrAlreadySetup
	}
	for _, r := range d0 {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("core: initial record: %w", err)
		}
		o.cache.Write(r)
		o.appendLogical(r)
	}
	n := o.strat.InitialCount(len(d0))
	batch := o.cache.Read(n)
	var err error
	if o.attach {
		err = o.db.Update(batch)
	} else {
		err = o.db.Setup(batch)
	}
	if err != nil {
		return err
	}
	o.uploadedReal += record.CountReal(batch)
	o.pattern.Record(0, n, false)
	o.setupDone = true
	return nil
}

// Tick advances time by one unit. arrivals carries the tick's logical
// update u_t: empty for ∅, one record in the paper's base model, several
// under the multi-arrival generalization (§4.1). The strategy's
// instructions are executed immediately: records leave the cache in FIFO
// order, padded with dummies up to each op's count, and each upload is
// appended to the update-pattern transcript.
func (o *Owner) Tick(arrivals ...record.Record) error {
	if !o.setupDone {
		return ErrSetupRequired
	}
	o.now++
	for _, r := range arrivals {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("core: tick %d: %w", o.now, err)
		}
		if r.Dummy {
			return fmt.Errorf("core: tick %d: %w", o.now, ErrDummyArrival)
		}
		o.cache.Write(r)
		o.appendLogical(r)
	}
	for _, op := range o.strat.Tick(o.now, len(arrivals)) {
		if op.Count <= 0 {
			continue
		}
		batch := o.cache.Read(op.Count)
		if err := o.db.Update(batch); err != nil {
			return fmt.Errorf("core: update at tick %d: %w", o.now, err)
		}
		o.uploadedReal += record.CountReal(batch)
		o.pattern.Record(o.now, op.Count, op.Flush)
	}
	return nil
}

// RunIdle advances n ticks with no arrivals.
func (o *Owner) RunIdle(n int) error {
	for i := 0; i < n; i++ {
		if err := o.Tick(); err != nil {
			return err
		}
	}
	return nil
}

func (o *Owner) appendLogical(r record.Record) {
	o.truth.Observe(r)
	o.logicalCount++
}

// Query evaluates q over the outsourced database, as the analyst would.
func (o *Owner) Query(q query.Query) (query.Answer, edb.Cost, error) {
	if !o.setupDone {
		return query.Answer{}, edb.Cost{}, ErrSetupRequired
	}
	return o.db.Query(q)
}

// Truth evaluates q over the logical database D_t — the reference answer for
// the paper's L1 query-error metric — from the incrementally maintained
// aggregates.
func (o *Owner) Truth(q query.Query) (query.Answer, error) {
	return o.truth.AnswerFor(q)
}

// QueryError runs q both ways and returns the L1 error QE(q_t) along with
// the outsourced answer's cost.
func (o *Owner) QueryError(q query.Query) (float64, edb.Cost, error) {
	got, cost, err := o.Query(q)
	if err != nil {
		return 0, edb.Cost{}, err
	}
	want, err := o.Truth(q)
	if err != nil {
		return 0, edb.Cost{}, err
	}
	return got.L1(want), cost, nil
}

// LogicalGap returns LG(t) = |D_t| − |D_t ∩ D̂_t|: records received by the
// owner but not yet outsourced (§4.5.2).
func (o *Owner) LogicalGap() int { return o.logicalCount - o.uploadedReal }

// CacheLen returns the local cache's current size (equals LogicalGap under
// FIFO, a relationship the tests pin down).
func (o *Owner) CacheLen() int { return o.cache.Len() }

// Pattern returns the update-pattern transcript observed by the server.
func (o *Owner) Pattern() *leakage.Pattern { return o.pattern }

// Now returns the current tick.
func (o *Owner) Now() record.Tick { return o.now }

// LogicalSize returns |D_t|.
func (o *Owner) LogicalSize() int { return o.logicalCount }

// UploadedReal returns how many real records have reached the server.
func (o *Owner) UploadedReal() int { return o.uploadedReal }

// DB exposes the underlying database (stats, leakage class).
func (o *Owner) DB() edb.Database { return o.db }

// Strategy exposes the synchronization strategy.
func (o *Owner) Strategy() strategy.Strategy { return o.strat }
