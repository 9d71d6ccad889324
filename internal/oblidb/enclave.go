package oblidb

import (
	"fmt"

	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// Enclave simulates the SGX-resident half of ObliDB: it owns the data key
// and hosts the decrypted tables in enclave-protected memory (ORAM in the
// real system). Ciphertexts are opened exactly once, when they enter the
// enclave; queries then execute oblivious scans over the resident tables.
// The simulation preserves the two properties DP-Sync's analysis needs from
// an L-0 engine:
//
//  1. Query execution touches every resident record of the scanned table,
//     in storage order, no matter what the query or the data says (verified
//     by TestAccessTraceOblivious). Response volumes therefore reveal
//     nothing.
//  2. Dummy records are filtered *inside* the enclave via the Appendix-B
//     query rewrite, so answers are exact over real records while the
//     real/dummy split never crosses the enclave boundary.
//
// Answers are computed from incrementally maintained aggregates (updated at
// ingest) rather than by re-evaluating the relational plan over the resident
// tables on every query — O(1) per ingested record and, per query, a walk of
// the pickupID domain or a merge of the join keys (see query.Aggregates). This
// changes nothing the adversary or the metrics see: the modeled oblivious
// execution still touches the full scan extent (scanExtent, the access log,
// and the calibrated cost model are untouched), and the
// incremental answers are bit-identical to the naive plan evaluation, which
// TestIncrementalMatchesNaive pins. Obliviousness is a property of the
// *modeled* engine; how the simulator computes the (exact) answer is free.
//
// An Enclave has no lock of its own: it is reachable only through its DB,
// which calls every method under DB.mu.
type Enclave struct {
	sealer *seal.Sealer

	// agg holds the incrementally maintained query aggregates over the
	// resident real records (dummies are filtered at Observe, mirroring the
	// Appendix-B rewrite). It is the only per-record state the simulated
	// enclave keeps: the resident table *sizes* below are what drive the
	// modeled oblivious scans, so retaining decrypted rows would only
	// duplicate what the aggregates already answer from.
	agg *query.Aggregates
	// yellow / green count resident records per table, dummies included —
	// they drive the scan extent and the join cost model.
	yellow, green int64

	// Ingest's scratch, reused across batches so a steady-state ingest
	// allocates nothing: plain receives one record's plaintext at a time, and
	// opened holds the batch's decoded records until the whole batch has
	// authenticated. Neither outlives the call that filled it.
	plain  [record.EncodedSize]byte
	opened []record.Record
}

// maxScratchRecords bounds the opened scratch an enclave keeps between
// batches: a batch larger than this is a setup load or a burst, not the
// steady state, and its scratch is released rather than held per tenant.
const maxScratchRecords = 64

// NewEnclave provisions an enclave with the shared data key.
func NewEnclave(key []byte) (*Enclave, error) {
	s, err := seal.NewSealer(key)
	if err != nil {
		return nil, err
	}
	return &Enclave{sealer: s, agg: query.NewAggregates()}, nil
}

// Ingest opens a batch of ciphertexts into the enclave-resident tables.
// A failed authentication aborts the whole batch (nothing is admitted), the
// behaviour of an enclave rejecting forged inputs at the attested boundary.
func (e *Enclave) Ingest(cts []seal.Sealed) error {
	opened := e.opened[:0]
	for i, ct := range cts {
		var r record.Record
		plain, err := e.sealer.AppendOpen(e.plain[:0], ct)
		if err == nil {
			r, err = record.Decode(plain)
		}
		if err != nil {
			return fmt.Errorf("oblidb: ciphertext %d rejected by enclave: %w", i, err)
		}
		opened = append(opened, r)
	}
	for _, r := range opened {
		e.agg.Observe(r)
		if r.Provider == record.GreenTaxi {
			e.green++
		} else {
			e.yellow++
		}
	}
	if cap(opened) > maxScratchRecords {
		opened = nil
	}
	e.opened = opened
	return nil
}

// Execute runs q over the resident store and returns the exact answer plus
// the number of records the oblivious scan touched — the full target
// table(s), independent of data and predicates. The answer comes from the
// ingest-time aggregates and equals the Appendix-B-rewritten plan evaluated
// over the ingested records (TestIncrementalMatchesNaive keeps a mirror of
// every upload and pins exactly that).
func (e *Enclave) Execute(q query.Query) (query.Answer, int, error) {
	ans, err := e.agg.AnswerFor(q)
	if err != nil {
		return query.Answer{}, 0, err
	}
	touched := e.scanExtent(q)
	return ans, touched, nil
}

// scanExtent reports how many resident records the oblivious execution of q
// reads: the target table for linear queries, both tables for joins.
func (e *Enclave) scanExtent(q query.Query) int {
	switch {
	case q.Kind == query.JoinCount:
		return int(e.yellow + e.green)
	case q.Provider == record.GreenTaxi:
		return int(e.green)
	default:
		return int(e.yellow)
	}
}

// tableSizes reports the per-provider resident record counts (dummies
// included) for the cost model.
func (e *Enclave) tableSizes() (yellow, green int64) { return e.yellow, e.green }
