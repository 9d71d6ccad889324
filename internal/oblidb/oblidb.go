// Package oblidb implements an ObliDB-style encrypted database substrate
// (Eskandarian & Zaharia): a TEE-hosted query engine over independently
// encrypted records with oblivious, volume-hiding query processing — the
// paper's representative of the L-0 leakage group.
//
// The original runs inside an Intel SGX enclave with ORAM-backed tables.
// This reproduction keeps the architecture but simulates the enclave
// boundary in-process: the *server* side sees only AES-GCM ciphertexts and
// never holds the data key; the *enclave* side (enclave.go) holds the key as
// a seal.Sealer — one per serving node, shared by every tenant's enclave
// (NewWithSealer), since AES-GCM is stateless — opens ciphertexts with it,
// folds them into enclave-resident aggregates, and executes queries as
// oblivious scans whose access extent is a deterministic function of table
// sizes alone — verified by tests. The server side keeps a count of the
// records it was handed sealed, not the ciphertexts: nothing here ever reads
// one back, and in the serving stack the outsourced ciphertext store is the
// gateway's durable history tier (internal/store), so a second copy here
// would only make per-tenant RAM grow with ingest history. The ORAM is not
// simulated block by block: its cost, like the rest of query-execution time,
// is modeled with calibrated constants (see edb.ObliDBCostModel), because
// the cost of an oblivious scan depends only on the record count, which the
// simulation tracks exactly; every DB reads the one process-wide model.
// Admitting a sealed batch therefore fails only on a ciphertext the key
// cannot open or a record that does not decode.
package oblidb

import (
	"sync"

	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// BlockBytes is the outsourced width of one record in the storage model:
// ObliDB pads rows into fixed-size ORAM blocks, so storage accounting
// charges 1 KiB per record regardless of the 16-byte logical payload. No
// block is allocated here; the figure is accounting only.
const BlockBytes = 1024

// DB is the server-visible half of the ObliDB simulator. It satisfies
// edb.Database. All methods are safe for concurrent use. Its memory is the
// enclave's aggregates — of which only the 9-byte join key and weight of a
// record, real or dummy, grows with ingest; no ciphertext is retained, and
// nothing is kept per query.
type DB struct {
	mu      sync.Mutex
	enclave *Enclave
	model   edb.CostModel
	// stats.Records is the count the server keeps of the records it was
	// handed sealed, whatever number of messages sealed them.
	stats edb.StorageStats
	setup bool
}

// New creates an ObliDB instance with a fresh random data key.
func New() (*DB, error) {
	key, err := seal.NewRandomKey()
	if err != nil {
		return nil, err
	}
	return NewWithKey(key)
}

// NewWithKey creates an ObliDB instance with the given 32-byte data key
// (shared with the owner, as in any symmetric outsourced database).
func NewWithKey(key []byte) (*DB, error) {
	s, err := seal.NewSealer(key)
	if err != nil {
		return nil, err
	}
	return NewWithSealer(s), nil
}

// NewWithSealer creates an ObliDB instance whose enclave opens ciphertexts
// with s — the serving node's one sealer for its key, shared by every
// tenant's instance. Answers, stats and modeled cost are those of NewWithKey
// under the same key.
func NewWithSealer(s *seal.Sealer) *DB {
	return &DB{enclave: newEnclave(s), model: edb.ObliDBCostModel()}
}

// Name implements edb.Database.
func (db *DB) Name() string { return "ObliDB" }

// Leakage implements edb.Database: ObliDB is the paper's L-0 exemplar.
func (db *DB) Leakage() edb.LeakageClass { return edb.L0 }

// Supports implements edb.Database; ObliDB evaluates all bundled queries.
func (db *DB) Supports(q query.Query) bool { return q.Validate() == nil }

// Sealer exposes the enclave's sealer so the owner side can encrypt records
// before upload. In the real system the owner provisions the key to the
// enclave via remote attestation; here both ends share the Sealer.
func (db *DB) Sealer() *seal.Sealer { return db.enclave.sealer }

// Setup implements edb.Database.
func (db *DB) Setup(rs []record.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.setup {
		return edb.ErrAlreadySetup
	}
	db.setup = true
	db.ingest(rs)
	return nil
}

// Update implements edb.Database.
func (db *DB) Update(rs []record.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.setup {
		return edb.ErrNotSetup
	}
	db.ingest(rs)
	return nil
}

// ingest folds an in-process batch — records already on the enclave's side
// of the boundary — into the enclave by the step Enclave.Ingest takes after
// it opens a sealed one, and counts its records, dummies of them known to be
// dummy. Callers hold db.mu.
func (db *DB) ingest(rs []record.Record) {
	db.enclave.observe(rs)
	db.stats.Add(len(rs), len(rs)-record.CountReal(rs), BlockBytes)
}

// admit hands a batch of messages to the enclave and counts the records they
// seal. Callers hold db.mu.
func (db *DB) admit(cts []seal.Sealed) error {
	n, err := db.enclave.Ingest(cts)
	if err != nil {
		return err
	}
	db.stats.Add(n, 0, BlockBytes)
	return nil
}

// SetupSealed initializes the store with pre-sealed messages — the
// networked deployment path, where the owner seals client-side and the
// server receives only opaque blobs. The real/dummy split is invisible at
// this boundary (that is the point of dummy records), so server-side stats
// count every sealed record under Records with DummyRecords = 0; the owner
// keeps the true accounting.
func (db *DB) SetupSealed(cts []seal.Sealed) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.setup {
		return edb.ErrAlreadySetup
	}
	db.setup = true
	return db.admit(cts)
}

// UpdateSealed appends pre-sealed messages (see SetupSealed).
func (db *DB) UpdateSealed(cts []seal.Sealed) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.setup {
		return edb.ErrNotSetup
	}
	return db.admit(cts)
}

// Query implements edb.Database: the enclave executes the rewritten plan
// obliviously over its resident tables and returns the exact answer. The
// returned cost follows the calibrated model, and its RecordsScanned is the
// scan's extent: the full target table(s), a function of table sizes alone,
// never of data or predicates.
func (db *DB) Query(q query.Query) (query.Answer, edb.Cost, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.setup {
		return query.Answer{}, edb.Cost{}, edb.ErrNotSetup
	}
	if err := q.Validate(); err != nil {
		return query.Answer{}, edb.Cost{}, err
	}
	ans, err := db.enclave.Execute(q)
	if err != nil {
		return query.Answer{}, edb.Cost{}, err
	}
	return ans, db.cost(q), nil
}

// cost models QET from the current store composition. In the modeled engine
// each table is its own ORAM structure, so a linear query scans only its
// target table (real + dummy ciphertexts tagged with that provider); the
// join compares every Yellow ciphertext against every Green ciphertext.
// Callers hold db.mu.
func (db *DB) cost(q query.Query) edb.Cost {
	ny, ng := db.enclave.tableSizes()
	if q.Kind == query.JoinCount {
		return db.model.Of(q.Kind, ny+ng, ny*ng)
	}
	n := ny
	if q.Provider == record.GreenTaxi {
		n = ng
	}
	return db.model.Of(q.Kind, n, 0)
}

// Stats implements edb.Database.
func (db *DB) Stats() edb.StorageStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

var _ edb.Database = (*DB)(nil)
