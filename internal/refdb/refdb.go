// Package refdb is the single-owner reference the differential suites
// compare the serving stack against: the paper's one-owner deployment with
// the transport removed. Records are sealed on the owner side of the call,
// admitted to an ObliDB enclave as opaque ciphertexts, and every upload is
// logged as the (sequence, volume) event an honest-but-curious server would
// observe — the update pattern DP-Sync bounds. Its volume is the record
// count.
//
// It deliberately seals one message per record (seal.SealAll), where the
// serving stack's owner seals a batch as one message (seal.SealBatch): every
// differential against it therefore also holds the two shapes to the same
// transcript, stats and answers.
//
// It deliberately imports nothing from the gateway, cluster, client, or wire
// packages: an oracle that shared code with the system under test would
// inherit its bugs.
package refdb

import (
	"sync"

	"dpsync/internal/edb"
	"dpsync/internal/leakage"
	"dpsync/internal/oblidb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// DB is one owner's outsourced database plus the adversary's view of it. It
// implements edb.Database, so a core.Owner drives it exactly as it drives a
// remote session. Safe for concurrent use.
type DB struct {
	db     *oblidb.DB
	sealer *seal.Sealer

	mu       sync.Mutex
	observed leakage.Pattern
}

// New creates a reference database under the 32-byte data key the owner and
// the enclave share.
func New(key []byte) (*DB, error) {
	db, err := oblidb.NewWithKey(key)
	if err != nil {
		return nil, err
	}
	s, err := seal.NewSealer(key)
	if err != nil {
		return nil, err
	}
	return &DB{db: db, sealer: s}, nil
}

// Name implements edb.Database.
func (d *DB) Name() string { return "ObliDB-reference" }

// Leakage implements edb.Database.
func (d *DB) Leakage() edb.LeakageClass { return d.db.Leakage() }

// Supports implements edb.Database.
func (d *DB) Supports(q query.Query) bool { return d.db.Supports(q) }

// Setup implements edb.Database: seal, ingest, observe.
func (d *DB) Setup(rs []record.Record) error { return d.upload(rs, d.db.SetupSealed) }

// Update implements edb.Database: seal, ingest, observe.
func (d *DB) Update(rs []record.Record) error { return d.upload(rs, d.db.UpdateSealed) }

func (d *DB) upload(rs []record.Record, ingest func([]seal.Sealed) error) error {
	cts, err := d.sealer.SealAll(rs)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := ingest(cts); err != nil {
		return err
	}
	// The server has no tick source of its own, so events are indexed by
	// upload sequence; the volume sequence is the leakage that matters.
	d.observed.Record(record.Tick(len(d.observed.Events)+1), len(rs), false)
	return nil
}

// Query implements edb.Database.
func (d *DB) Query(q query.Query) (query.Answer, edb.Cost, error) { return d.db.Query(q) }

// Stats implements edb.Database with the server's split-blind view.
func (d *DB) Stats() edb.StorageStats { return d.db.Stats() }

// ObservedPattern returns a copy of the update-pattern transcript accumulated
// so far.
func (d *DB) ObservedPattern() leakage.Pattern {
	d.mu.Lock()
	defer d.mu.Unlock()
	return leakage.Pattern{Events: append([]leakage.Event(nil), d.observed.Events...)}
}

var _ edb.Database = (*DB)(nil)
