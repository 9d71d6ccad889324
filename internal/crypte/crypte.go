// Package crypte implements a Cryptε-style encrypted database substrate
// (Roy Chowdhury et al., SIGMOD 2020): a crypto-assisted differential-privacy
// engine where an untrusted server aggregates per-record encrypted one-hot
// encodings and every released answer carries calibrated Laplace noise — the
// paper's representative of the L-DP leakage group.
//
// The original splits trust between two non-colluding servers evaluating
// linear queries over labeled homomorphic encryptions. This reproduction
// keeps the data layout (each record expands into one-hot encodings of its
// attributes, ≈6.4 KiB of ciphertext per record — which is what makes Cryptε
// storage and QET so much heavier than ObliDB's in Figure 3/Table 5) and the
// privacy interface (ε-DP noisy answers drawn from a per-query analyst
// budget), while evaluating the linear algebra in the clear inside the
// simulated aggregation service and pricing its cryptography with
// edb.CrypteCostModel: Cryptε is modelled here, not computed.
//
// Records reach the aggregation service two ways: in process (Setup/Update),
// already inside it, or sealed (SetupSealed/UpdateSealed), the served path,
// where the service opens the owner's batch with its own key — its transport
// boundary — so nothing in front of it ever does.
//
// Cryptε supports linear queries only: range counts, group-by counts and the
// Q4 fare sum. Joins are rejected, exactly as in the paper's evaluation (Q3 is
// ObliDB-only).
package crypte

import (
	"fmt"
	"sync"

	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// EncodingBytes is the outsourced width of one record: one-hot encodings of
// pickup location (265 slots) and time bucket, each slot an AHE ciphertext.
// 6.4 KiB matches the paper's 943.5 Mb for 18,429 records.
const EncodingBytes = 6400

// DefaultQueryEpsilon is the analyst-side privacy budget spent on each query
// release, the paper's §8 setting ("privacy budget of Cryptε as 3"): every
// release is charged it.
const DefaultQueryEpsilon = 3.0

// DB is the Cryptε simulator. It satisfies edb.Database and is safe for
// concurrent use.
type DB struct {
	mu     sync.Mutex
	sealer *seal.Sealer // opens sealed batches: the transport boundary
	// agg is the aggregation service's incrementally maintained view: each
	// ingested record folds its one-hot encodings into the running linear
	// aggregates (dummies encode all-zero vectors, so Observe skips them).
	// This is exactly how Cryptε's server works — it sums encodings as they
	// arrive rather than keeping rows — and it makes query answering
	// O(keys) instead of an O(n) rescan.
	agg   *query.Aggregates
	stats edb.StorageStats
	model edb.CostModel
	setup bool

	noise *dp.Mechanism
	spent *dp.Budget
}

// Option configures a DB.
type Option func(*DB)

// WithNoiseSource plugs a deterministic noise source in (experiments/tests).
func WithNoiseSource(src dp.Source) Option {
	return func(db *DB) { db.noise = newMechanism(src) }
}

// newMechanism is the release mechanism at DefaultQueryEpsilon over src.
func newMechanism(src dp.Source) *dp.Mechanism {
	m, err := dp.NewMechanism(DefaultQueryEpsilon, src)
	if err != nil {
		panic(fmt.Sprintf("crypte: query epsilon %v: %v", DefaultQueryEpsilon, err))
	}
	return m
}

// New creates a Cryptε instance with a fresh random key.
func New(opts ...Option) (*DB, error) {
	key, err := seal.NewRandomKey()
	if err != nil {
		return nil, err
	}
	return NewWithKey(key, opts...)
}

// NewWithKey creates a Cryptε instance using the given 32-byte key.
func NewWithKey(key []byte, opts ...Option) (*DB, error) {
	s, err := seal.NewSealer(key)
	if err != nil {
		return nil, err
	}
	db := &DB{
		sealer: s,
		agg:    query.NewAggregates(),
		model:  edb.CrypteCostModel(),
		spent:  dp.NewBudget(),
	}
	for _, o := range opts {
		o(db)
	}
	if db.noise == nil {
		db.noise = newMechanism(dp.CryptoSource{})
	}
	return db, nil
}

// Name implements edb.Database.
func (db *DB) Name() string { return "Crypteps" }

// Leakage implements edb.Database.
func (db *DB) Leakage() edb.LeakageClass { return edb.LDP }

// Supports implements edb.Database: linear queries only.
func (db *DB) Supports(q query.Query) bool {
	return q.Validate() == nil && q.Kind != query.JoinCount
}

// Setup implements edb.Database.
func (db *DB) Setup(rs []record.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.setup {
		return edb.ErrAlreadySetup
	}
	db.setup = true
	db.ingest(rs, len(rs)-record.CountReal(rs))
	return nil
}

// Update implements edb.Database.
func (db *DB) Update(rs []record.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.setup {
		return edb.ErrNotSetup
	}
	db.ingest(rs, len(rs)-record.CountReal(rs))
	return nil
}

// SetupSealed initializes the store with sealed messages, opened with the
// key the DB was built with. As at ObliDB's sealed boundary, the real/dummy
// split is not the server's to count: every sealed record counts under
// Records, with DummyRecords = 0.
func (db *DB) SetupSealed(cts []seal.Sealed) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.setup {
		return edb.ErrAlreadySetup
	}
	db.setup = true
	return db.ingestSealed(cts)
}

// UpdateSealed appends sealed messages (see SetupSealed).
func (db *DB) UpdateSealed(cts []seal.Sealed) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.setup {
		return edb.ErrNotSetup
	}
	return db.ingestSealed(cts)
}

// ingestSealed opens a batch whole — one message that does not authenticate
// admits none of it — and ingests its records. Callers hold db.mu.
func (db *DB) ingestSealed(cts []seal.Sealed) error {
	rs, err := db.sealer.OpenAll(cts)
	if err != nil {
		return fmt.Errorf("crypte: ingest: %w", err)
	}
	db.ingest(rs, 0)
	return nil
}

// ingest folds a batch into the incremental aggregates, dummies of its
// records counted as dummy; the storage accounting charges each record its
// full encoding width, and edb.CrypteCostModel prices the answers. Callers
// hold db.mu.
func (db *DB) ingest(rs []record.Record, dummies int) {
	db.agg.ObserveAll(rs)
	db.stats.Add(len(rs), dummies, EncodingBytes)
}

// Query implements edb.Database. Linear queries aggregate the one-hot
// encodings (dummy records encode all-zero vectors, so they drop out exactly
// as the Appendix-B rewrite prescribes) and the release is perturbed with
// Lap(1/ε_q) per output value — scalar answers get one draw, each group-by
// bin gets an independent draw.
func (db *DB) Query(q query.Query) (query.Answer, edb.Cost, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.setup {
		return query.Answer{}, edb.Cost{}, edb.ErrNotSetup
	}
	if !db.Supports(q) {
		return query.Answer{}, edb.Cost{}, fmt.Errorf("%w: %v on %s", edb.ErrUnsupportedQuery, q.Kind, db.Name())
	}
	exact, err := db.agg.AnswerFor(q)
	if err != nil {
		return query.Answer{}, edb.Cost{}, err
	}
	ans := db.perturb(q, exact)
	if err := db.spent.Charge("query-release", DefaultQueryEpsilon, dp.Sequential); err != nil {
		return query.Answer{}, edb.Cost{}, err
	}
	cost := db.model.Of(q.Kind, int64(db.stats.Records), 0)
	return ans, cost, nil
}

// perturb adds the release noise, scaled to the query's L1 sensitivity:
// 1 for counting queries, MaxFareCents for the Q4 SUM extension. Group bins
// are disjoint counting queries, so each bin receives an independent
// Lap(1/ε_q) draw (parallel composition keeps the release at ε_q total).
func (db *DB) perturb(q query.Query, a query.Answer) query.Answer {
	sens := 1.0
	if q.Kind == query.SumFare {
		sens = float64(record.MaxFareCents)
	}
	out := a.Clone()
	if len(out.Groups) == 0 {
		out.Scalar = out.Scalar + sens*db.noise.SampleNoise()
		if out.Scalar < 0 {
			out.Scalar = 0
		}
		return out
	}
	for i := range out.Groups {
		out.Groups[i] += sens * db.noise.SampleNoise()
		if out.Groups[i] < 0 {
			out.Groups[i] = 0
		}
	}
	return out
}

// ReleasesSoFar returns how many noisy releases the engine has produced.
func (db *DB) ReleasesSoFar() int { return db.spent.Uses("query-release") }

// Stats implements edb.Database.
func (db *DB) Stats() edb.StorageStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

var _ edb.Database = (*DB)(nil)
