// Package oblidb implements an ObliDB-style encrypted database substrate
// (Eskandarian & Zaharia): a TEE-hosted query engine over independently
// encrypted records with oblivious, volume-hiding query processing — the
// paper's representative of the L-0 leakage group.
//
// The original runs inside an Intel SGX enclave with ORAM-backed tables.
// This reproduction keeps the architecture but simulates the enclave
// boundary in-process: the *server* side sees only AES-GCM ciphertexts and
// never holds the data key; the *enclave* side (enclave.go) owns the key,
// admits ciphertexts into enclave-resident tables (the ORAM stand-in), and
// executes queries as oblivious scans whose access extent is a deterministic
// function of table sizes alone — verified by tests. The server side keeps a
// count of the ciphertexts it was handed, not the ciphertexts: nothing here
// ever reads one back, and in the serving stack the outsourced ciphertext
// store is the gateway's durable history tier (internal/store), so a second
// copy here would only make per-tenant RAM grow with ingest history. ORAM
// mode (orambacked.go) is the exception by design — it mirrors every block.
// Query-execution time is modeled with calibrated constants (see
// edb.ObliDBCostModel) because the cost of an oblivious scan depends only on
// the record count, which the simulation tracks exactly.
package oblidb

import (
	"fmt"
	"sync"

	"dpsync/internal/edb"
	"dpsync/internal/oram"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// BlockBytes is the outsourced width of one record: ObliDB pads rows into
// fixed-size ORAM blocks, so storage accounting charges 1 KiB per record
// regardless of the 16-byte logical payload.
const BlockBytes = 1024

// DB is the server-visible half of the ObliDB simulator. It satisfies
// edb.Database. All methods are safe for concurrent use. Its memory is the
// enclave's aggregates — of which only the 8-byte join key a real record
// grows with ingest — plus the access log; no ciphertext is retained unless
// ORAM mode mirrors it.
type DB struct {
	mu      sync.Mutex
	enclave *Enclave
	model   edb.CostModel
	// stats.Records is the count the server keeps of the ciphertexts it was
	// handed — StoreSize, and the ORAM block index of the next one.
	stats edb.StorageStats
	setup bool

	// accessLog records, per query, how many resident records the oblivious
	// scan touched. Obliviousness means every entry is a function of table
	// sizes only, never of data or predicates.
	accessLog []int

	// oram, when non-nil, mirrors every ingested ciphertext into a Path ORAM so
	// the physical block-access pattern is oblivious too (see orambacked.go).
	oram *oram.ORAM
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
	enc, err := NewEnclave(key)
	if err != nil {
		return nil, err
	}
	return &DB{enclave: enc, model: edb.ObliDBCostModel()}, nil
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

// ingest seals the batch (records always cross the owner/server boundary as
// ciphertexts) and admits it. Callers hold db.mu.
func (db *DB) ingest(rs []record.Record) error {
	cts, err := db.enclave.sealer.SealAll(rs)
	if err != nil {
		return fmt.Errorf("oblidb: sealing batch: %w", err)
	}
	return db.admit(cts, len(rs)-record.CountReal(rs))
}

// admit hands a batch of ciphertexts to the enclave, mirrors it into the ORAM
// when that mode is on, and counts it (dummies of them known to be dummy).
// Callers hold db.mu.
func (db *DB) admit(cts []seal.Sealed, dummies int) error {
	if err := db.enclave.Ingest(cts); err != nil {
		return err
	}
	if err := db.mirrorToORAM(cts, db.stats.Records); err != nil {
		return err
	}
	db.stats.Add(len(cts), dummies, BlockBytes)
	return nil
}

// SetupSealed initializes the store with pre-sealed ciphertexts — the
// networked deployment path, where the owner seals client-side and the
// server receives only opaque blobs. The real/dummy split is invisible at
// this boundary (that is the point of dummy records), so server-side stats
// count every ciphertext under Records with DummyRecords = 0; the owner
// keeps the true accounting.
func (db *DB) SetupSealed(cts []seal.Sealed) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.setup {
		return edb.ErrAlreadySetup
	}
	db.setup = true
	return db.admit(cts, 0)
}

// UpdateSealed appends pre-sealed ciphertexts (see SetupSealed).
func (db *DB) UpdateSealed(cts []seal.Sealed) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.setup {
		return edb.ErrNotSetup
	}
	return db.admit(cts, 0)
}

// Query implements edb.Database: the enclave executes the rewritten plan
// obliviously over its resident tables and returns the exact answer. The
// returned cost follows the calibrated model.
func (db *DB) Query(q query.Query) (query.Answer, edb.Cost, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.setup {
		return query.Answer{}, edb.Cost{}, edb.ErrNotSetup
	}
	if err := q.Validate(); err != nil {
		return query.Answer{}, edb.Cost{}, err
	}
	ans, touched, err := db.enclave.Execute(q)
	if err != nil {
		return query.Answer{}, edb.Cost{}, err
	}
	db.accessLog = append(db.accessLog, touched)
	return ans, db.cost(q), nil
}

// cost models QET from the current store composition. Each table is its own
// ORAM structure, so a linear query scans only its target table (real +
// dummy ciphertexts tagged with that provider); the join compares every
// Yellow ciphertext against every Green ciphertext. Callers hold db.mu.
func (db *DB) cost(q query.Query) edb.Cost {
	ny, ng := db.enclave.tableSizes()
	if q.Kind == query.JoinCount {
		return db.model.Join(ny, ng)
	}
	n := ny
	if q.Provider == record.GreenTaxi {
		n = ng
	}
	return db.model.Linear(q.Kind, n)
}

// Stats implements edb.Database.
func (db *DB) Stats() edb.StorageStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// AccessLog returns the per-query touched-record counts. Tests use it to
// assert obliviousness: every entry must equal the scanned table's size when
// the query ran, independent of data and predicates.
func (db *DB) AccessLog() []int {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]int, len(db.accessLog))
	copy(out, db.accessLog)
	return out
}

// StoreSize returns the number of outsourced ciphertexts (adversary-visible).
func (db *DB) StoreSize() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats.Records
}

var _ edb.Database = (*DB)(nil)
