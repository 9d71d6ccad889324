package oblidb

import (
	"fmt"
	"sync"

	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// Enclave simulates the SGX-resident half of ObliDB: it holds the data key
// and keeps what it needs of the decrypted tables in enclave-protected memory
// (ORAM-backed tables in the real system, whose cost edb.ObliDBCostModel
// models rather than simulates). Ciphertexts are opened exactly once, when
// they enter the enclave; queries then execute oblivious scans over the
// resident tables.
// The key is held as a seal.Sealer, which is stateless (AES-GCM): a serving
// node builds one from its key and every tenant's enclave opens ciphertexts
// with it, so an enclave's own state is its aggregates and its table sizes —
// its ingest scratch is the node's too (ingestScratch).
// The simulation preserves the two properties DP-Sync's analysis needs from
// an L-0 engine:
//
//  1. Query execution touches every resident record of the scanned table,
//     in storage order, no matter what the query or the data says (verified
//     by TestAccessTraceOblivious). Response volumes therefore reveal
//     nothing.
//  2. Dummy records are filtered *inside* the enclave via the Appendix-B
//     query rewrite, so answers are exact over real records while the
//     real/dummy split never crosses the enclave boundary. Nor does it show
//     in the enclave's memory: a dummy is folded in as a record of weight 0,
//     at the cost of a real one, so what the enclave holds is sized by the
//     record count (verified by TestFootprintFollowsTheUpdatePattern).
//
// Answers are computed from incrementally maintained aggregates (updated at
// ingest) rather than by re-evaluating the relational plan over the resident
// tables on every query — O(1) per ingested record and, per query, a walk of
// the pickupID domain or a merge of the join keys (see query.Aggregates). This
// changes nothing the adversary or the metrics see: the modeled oblivious
// execution still touches the full scan extent (the calibrated cost model,
// whose RecordsScanned is that extent, is untouched), and the incremental
// answers are bit-identical to the naive plan evaluation, which
// TestIncrementalMatchesNaive pins. Obliviousness is a property of the
// *modeled* engine; how the simulator computes the (exact) answer is free.
//
// An Enclave has no lock of its own: it is reachable only through its DB,
// which calls every method under DB.mu.
type Enclave struct {
	sealer *seal.Sealer

	// agg holds the incrementally maintained query aggregates over every
	// resident record, each weighted by whether it is real (a dummy weighs
	// 0, which is the Appendix-B rewrite). It is the only per-record state
	// the simulated enclave keeps: the resident table *sizes* below are what
	// drive the modeled oblivious scans, so retaining decrypted rows would
	// only duplicate what the aggregates already answer from.
	agg *query.Aggregates
	// yellow / green count resident records per table, dummies included —
	// they drive the scan extent and the join cost model.
	yellow, green int64
}

// maxScratchRecords bounds what a batch decodes into pooled scratch: a batch
// larger than this is a setup load or a burst, not the steady state, and
// opens and decodes into buffers of its own.
const maxScratchRecords = 64

// ingestScratch is Ingest's working memory: the plaintext of the message
// being opened, and the batch's decoded records, held until every message has
// authenticated. It never outlives the call that took it, so the enclaves of
// a process share a pool of them and a tenant holds none between batches.
type ingestScratch struct {
	plain  [maxScratchRecords * record.EncodedSize]byte
	opened [maxScratchRecords]record.Record
}

var scratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// newEnclave provisions an enclave with the data key's sealer.
func newEnclave(s *seal.Sealer) *Enclave {
	return &Enclave{sealer: s, agg: query.NewAggregates()}
}

// Ingest opens a batch of messages into the enclave-resident tables and
// returns how many records they sealed. A batch is one message or one per
// record (seal.SealBatch, seal.SealAll); either way every record of every
// message is decoded before any is observed, so a failed authentication
// aborts the whole batch (nothing is admitted), the behaviour of an enclave
// rejecting forged inputs at the attested boundary.
func (e *Enclave) Ingest(cts []seal.Sealed) (int, error) {
	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)
	opened := sc.opened[:0]
	for i, ct := range cts {
		var buf []byte
		if seal.Records(len(ct)) <= maxScratchRecords {
			buf = sc.plain[:0]
		}
		plain, err := e.sealer.AppendOpen(buf, ct)
		for off := 0; err == nil && off < len(plain); off += record.EncodedSize {
			var r record.Record
			if r, err = record.Decode(plain[off : off+record.EncodedSize]); err == nil {
				opened = append(opened, r)
			}
		}
		if err != nil {
			return 0, fmt.Errorf("oblidb: ciphertext %d rejected by enclave: %w", i, err)
		}
	}
	e.observe(opened)
	return len(opened), nil
}

// observe folds opened records into the enclave-resident tables: the
// aggregates, and the table sizes the modelled scans read.
func (e *Enclave) observe(rs []record.Record) {
	for _, r := range rs {
		e.agg.Observe(r)
		if r.Provider == record.GreenTaxi {
			e.green++
		} else {
			e.yellow++
		}
	}
}

// Execute runs q over the resident store and returns the exact answer. The
// answer comes from the ingest-time aggregates and equals the
// Appendix-B-rewritten plan evaluated over the ingested records
// (TestIncrementalMatchesNaive keeps a mirror of every upload and pins exactly
// that).
func (e *Enclave) Execute(q query.Query) (query.Answer, error) {
	return e.agg.AnswerFor(q)
}

// tableSizes reports the per-provider resident record counts (dummies
// included) for the cost model.
func (e *Enclave) tableSizes() (yellow, green int64) { return e.yellow, e.green }
