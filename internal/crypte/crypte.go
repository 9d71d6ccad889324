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
// simulated aggregation service.
//
// Cryptε supports linear queries only: range counts and group-by counts.
// Joins are rejected, exactly as in the paper's evaluation (Q3 is ObliDB-only).
package crypte

import (
	"fmt"
	"sync"

	"dpsync/internal/ahe"
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
// release, the paper's §8 setting ("privacy budget of Cryptε as 3").
const DefaultQueryEpsilon = 3.0

// DB is the Cryptε simulator. It satisfies edb.Database and is safe for
// concurrent use.
type DB struct {
	mu     sync.Mutex
	sealer *seal.Sealer
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

	// real, when non-nil, switches the DB into true-crypto mode: ingest
	// maintains genuine per-provider ciphertext sums through the AHE
	// pipeline and queries decrypt through it (see WithRealAHE).
	real *realAHE

	queryEps float64
	noise    *dp.Mechanism
	spent    *dp.Budget
}

// realAHE is the true-crypto engine state. The incremental design mirrors
// the clear-text query.Aggregates exactly — each ingested encoding folds
// into a running homomorphic sum, O(encWidth) ciphertext multiplications
// per record and O(released slots) decryptions per query — so the
// performance architecture survives the jump from modeled to real crypto.
type realAHE struct {
	pipe *AHEPipeline
	// agg is the per-provider incremental ciphertext aggregate: the
	// homomorphic sum of every encoding ever uploaded for that provider
	// (dummies included — the server cannot tell, their zero vectors just
	// never shift the sums).
	agg map[record.Provider][]ahe.Ciphertext
}

// Option configures a DB.
type Option func(*DB)

// WithQueryEpsilon overrides the per-query release budget.
func WithQueryEpsilon(eps float64) Option {
	return func(db *DB) { db.queryEps = eps }
}

// WithRealAHE switches the DB into true-crypto mode backed by p: every
// ingested record is encoded into encWidth Paillier ciphertexts and folded
// into a genuine per-provider homomorphic aggregate, and every query
// re-randomizes the released slots and decrypts them through the pipeline —
// no plaintext linear algebra anywhere on the answer path. Differential
// tests pin the pre-noise answers bit-identical to the clear-text
// incremental engine.
//
// The caller keeps ownership of p: it may be shared across DBs, and its
// creator releases every background resource (the owner-side and release
// pools both live on the pipeline) with one p.Close.
func WithRealAHE(p *AHEPipeline) Option {
	return func(db *DB) {
		db.real = &realAHE{
			pipe: p,
			agg:  map[record.Provider][]ahe.Ciphertext{},
		}
	}
}

// WithNoiseSource plugs a deterministic noise source in (experiments/tests).
func WithNoiseSource(src dp.Source) Option {
	return func(db *DB) {
		m, err := dp.NewMechanism(db.queryEps, src)
		if err != nil {
			panic(fmt.Sprintf("crypte: invalid query epsilon %v: %v", db.queryEps, err))
		}
		db.noise = m
	}
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
		sealer:   s,
		agg:      query.NewAggregates(),
		model:    edb.CrypteCostModel(),
		queryEps: DefaultQueryEpsilon,
		spent:    dp.NewBudget(),
	}
	for _, o := range opts {
		o(db)
	}
	if db.noise == nil {
		m, err := dp.NewMechanism(db.queryEps, dp.CryptoSource{})
		if err != nil {
			return nil, fmt.Errorf("crypte: query epsilon: %w", err)
		}
		db.noise = m
	}
	return db, nil
}

// Name implements edb.Database.
func (db *DB) Name() string { return "Crypteps" }

// Leakage implements edb.Database.
func (db *DB) Leakage() edb.LeakageClass { return edb.LDP }

// Supports implements edb.Database: linear queries only. True-crypto mode
// additionally restricts queries to what the encoding can express as a
// linear function of the outsourced vectors: range bounds must stay inside
// the 1..NumLocations slot domain (the clear engine's per-ID maps would
// also count out-of-domain IDs from never-validated ingests, which no slot
// exists for), and SumFare must be exactly the full zone range (the
// encoding carries a single total-fare slot).
func (db *DB) Supports(q query.Query) bool {
	if q.Validate() != nil || q.Kind == query.JoinCount {
		return false
	}
	if db.real != nil {
		switch q.Kind {
		case query.RangeCount:
			if q.Lo < 1 || q.Hi > record.NumLocations {
				return false
			}
		case query.SumFare:
			if q.Lo != 1 || q.Hi != record.NumLocations {
				return false
			}
		}
	}
	return true
}

// Sealer exposes the shared record sealer for the owner side.
func (db *DB) Sealer() *seal.Sealer { return db.sealer }

// Setup implements edb.Database.
func (db *DB) Setup(rs []record.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.setup {
		return edb.ErrAlreadySetup
	}
	db.setup = true
	return db.ingest(rs)
}

// Update implements edb.Database.
func (db *DB) Update(rs []record.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.setup {
		return edb.ErrNotSetup
	}
	return db.ingest(rs)
}

// ingest runs the encode-encrypt-upload path. In the fast simulation mode
// records round-trip through the sealer (as they would over the wire) and
// fold into the clear-text incremental aggregates; in true-crypto mode each
// record instead becomes a vector of Paillier ciphertexts folded into the
// provider's homomorphic sum, and the clear aggregates are never touched —
// answers can only come out of the decryption pipeline.
func (db *DB) ingest(rs []record.Record) error {
	if db.real != nil {
		if err := db.real.ingest(rs); err != nil {
			return err
		}
	} else {
		cts, err := db.sealer.SealBatch(rs)
		if err != nil {
			return fmt.Errorf("crypte: sealing batch: %w", err)
		}
		opened, err := db.sealer.OpenAll(cts)
		if err != nil {
			return fmt.Errorf("crypte: ingest: %w", err)
		}
		db.agg.ObserveAll(opened)
	}
	dummies := len(rs) - record.CountReal(rs)
	db.stats.Add(len(rs), dummies, EncodingBytes)
	return nil
}

// ingest encodes a batch and folds it into the running ciphertext sums,
// one SumVector per provider so the homomorphic additions fan out across
// slots on the shared worker pool.
func (ra *realAHE) ingest(rs []record.Record) error {
	byProv := map[record.Provider][][]ahe.Ciphertext{}
	for i, r := range rs {
		enc, err := ra.pipe.EncodeRecord(r)
		if err != nil {
			return fmt.Errorf("crypte: record %d: %w", i, err)
		}
		byProv[r.Provider] = append(byProv[r.Provider], enc)
	}
	pk := ra.pipe.PublicKey()
	for prov, encs := range byProv {
		if acc := ra.agg[prov]; acc != nil {
			encs = append([][]ahe.Ciphertext{acc}, encs...)
		}
		sum, err := pk.SumVector(encs...)
		if err != nil {
			return fmt.Errorf("crypte: aggregating %v: %w", prov, err)
		}
		ra.agg[prov] = sum
	}
	return nil
}

// answer produces the exact (pre-noise) answer of q from the ciphertext
// aggregates: the release boundary re-randomizes exactly the slots the
// query reveals (drawing zero encryptions from the server-side pool), and
// the analyst side decrypts them through the CRT pipeline.
func (ra *realAHE) answer(q query.Query) (query.Answer, error) {
	slots, err := releaseSlots(q)
	if err != nil {
		return query.Answer{}, err
	}
	enc := ra.agg[q.Provider]
	if enc == nil {
		// Nothing outsourced for this provider: the exact answer is zero,
		// in the shape the decryption path (and the clear engine) would use.
		return zeroAnswer(q)
	}
	// Re-randomize the published slots concurrently: like encoding and
	// decryption, the per-slot work fans out over the shared worker pool
	// (the randomizer pool's Get is concurrency-safe), so a wide release
	// does not serialize hundreds of exponentiations on the query path.
	release := append([]ahe.Ciphertext(nil), enc...)
	if err := ahe.ParallelSlotsErr(len(slots), func(lo, hi int) error {
		for _, i := range slots[lo:hi] {
			ct, err := ra.pipe.releasePool.Rerandomize(enc[i])
			if err != nil {
				return err
			}
			release[i] = ct
		}
		return nil
	}); err != nil {
		return query.Answer{}, err
	}
	return ra.pipe.DecryptAnswer(q, release)
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
	var exact query.Answer
	var err error
	if db.real != nil {
		exact, err = db.real.answer(q)
	} else {
		exact, err = db.agg.AnswerFor(q)
	}
	if err != nil {
		return query.Answer{}, edb.Cost{}, err
	}
	ans := db.perturb(q, exact)
	if err := db.spent.Charge("query-release", db.queryEps, dp.Sequential); err != nil {
		return query.Answer{}, edb.Cost{}, err
	}
	cost := db.model.Linear(q.Kind, int64(db.stats.Records))
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

// QueryEpsilon returns the per-release analyst budget.
func (db *DB) QueryEpsilon() float64 { return db.queryEps }

// ReleasesSoFar returns how many noisy releases the engine has produced.
func (db *DB) ReleasesSoFar() int { return db.spent.Uses("query-release") }

// Stats implements edb.Database.
func (db *DB) Stats() edb.StorageStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// RealAHE reports whether the DB runs in true-crypto mode.
func (db *DB) RealAHE() bool { return db.real != nil }

var _ edb.Database = (*DB)(nil)
