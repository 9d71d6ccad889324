package crypte

import (
	"fmt"
	"runtime"

	"dpsync/internal/ahe"
	"dpsync/internal/query"
	"dpsync/internal/record"
)

// encWidth is the slot count of one record encoding: a one-hot histogram
// over the pickup-location domain plus one fare slot for the Q4 extension.
const encWidth = record.NumLocations + 1

// AHEPipeline is the real cryptographic core of Cryptε: records become
// one-hot vectors of Paillier ciphertexts over the pickup-location domain,
// an untrusted aggregator sums them without any key material, and the
// analyst side decrypts aggregate histograms. Dummy records encode the
// all-zero vector, which is why they vanish from every linear query — the
// algebraic counterpart of the Appendix-B rewrite.
//
// The pipeline runs the owner side of the offline/online split: a
// CRT-backed ahe.RandomizerPool pre-generates randomizer powers in the
// background (the owner holds the private key, so each costs two half-size
// exponentiations), and EncodeRecord assembles its 266 ciphertexts with one
// modular multiplication per slot, fanned out across the shared worker
// pool. Call Close when the pipeline is no longer needed to release the
// generator goroutines.
//
// The fast simulation path in DB evaluates the same linear algebra in
// plaintext; TestAHEPipelineMatchesPlaintext pins the two paths to each
// other, so the performance shortcut cannot drift from the construction.
// WithRealAHE (crypte.go) flips a DB onto this pipeline for real.
type AHEPipeline struct {
	sk   *ahe.PrivateKey
	pool *ahe.RandomizerPool
	// releasePool pre-generates the zero encryptions spent re-randomizing
	// released aggregates. It is built from the public key only, because
	// release re-randomization runs on the untrusted aggregation server —
	// the owner-side CRT pool must never cross that boundary. It lives on
	// the pipeline (not per-DB) so the pipeline's creator owns every
	// background goroutine through one Close.
	releasePool *ahe.RandomizerPool
}

// NewAHEPipeline generates a key pair and starts the owner-side randomizer
// pool plus the server-side release pool. 384–512-bit keys keep tests
// fast; production deployments would use ≥2048.
func NewAHEPipeline(bits int) (*AHEPipeline, error) {
	sk, err := ahe.GenerateKey(bits)
	if err != nil {
		return nil, err
	}
	return &AHEPipeline{
		sk:          sk,
		pool:        sk.NewRandomizerPool(runtime.GOMAXPROCS(0), 2*encWidth),
		releasePool: sk.PublicKey.NewRandomizerPool(runtime.GOMAXPROCS(0), 2*encWidth),
	}, nil
}

// Close stops the pipeline's background randomizer generation (both the
// owner-side pool and the release pool). It is idempotent, and the
// pipeline remains usable afterwards — encryption and re-randomization
// fall back to computing randomizers inline.
func (p *AHEPipeline) Close() {
	p.pool.Close()
	p.releasePool.Close()
}

// PublicKey returns the encryption key, the only material the encoder and
// the aggregation server ever need.
func (p *AHEPipeline) PublicKey() *ahe.PublicKey { return &p.sk.PublicKey }

// EncodeRecord produces the one-hot location encoding of r: a vector of
// NumLocations Paillier ciphertexts, all encrypting 0 except a 1 at the
// record's pickup zone. Dummy records encode all zeros. Every vector also
// carries one extra slot encrypting the (bounded) fare, supporting the Q4
// SUM extension. Slots are encrypted concurrently on the shared worker
// pool, each online-assembled from a pooled randomizer power.
func (p *AHEPipeline) EncodeRecord(r record.Record) ([]ahe.Ciphertext, error) {
	out := make([]ahe.Ciphertext, encWidth)
	err := ahe.ParallelSlotsErr(encWidth, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			m := int64(0)
			if !r.Dummy {
				if i == record.NumLocations {
					// The fare is keyed by pickup zone in the clear engine's
					// per-ID totals, so a record whose PickupID falls outside
					// the domain (ingest does not Validate) must contribute
					// nothing here either — otherwise full-range SumFare
					// would diverge from the clear path the differential
					// tests pin against.
					if r.PickupID >= 1 && int(r.PickupID) <= record.NumLocations {
						m = int64(r.FareCents)
					}
				} else if int(r.PickupID) == i+1 {
					m = 1
				}
			}
			ct, err := p.pool.Encrypt(m)
			if err != nil {
				return fmt.Errorf("crypte: encode slot %d: %w", i, err)
			}
			out[i] = ct
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Aggregate blindly sums encoded records — the aggregation server's entire
// job. It needs only the public key. The release is re-randomized once per
// slot (SumVector itself no longer is, trading the per-input zero
// encryptions for plain homomorphic additions), so the published aggregate
// stays unlinkable to the uploaded encodings even for a party that observed
// them — including the degenerate one-record window, where the raw sum
// would alias the upload outright.
func Aggregate(pk *ahe.PublicKey, encodings ...[]ahe.Ciphertext) ([]ahe.Ciphertext, error) {
	sum, err := pk.SumVector(encodings...)
	if err != nil {
		return nil, err
	}
	if err := ahe.ParallelSlotsErr(len(sum), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			z, err := pk.EncryptZero()
			if err != nil {
				return err
			}
			sum[i] = pk.Add(sum[i], z)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return sum, nil
}

// releaseSlots lists the aggregate-vector slots whose plaintexts query q's
// release reveals — the single source of truth shared by DecryptAnswer
// (which decrypts exactly these) and the real-crypto DB's release boundary
// (which re-randomizes exactly these before publishing).
func releaseSlots(q query.Query) ([]int, error) {
	switch q.Kind {
	case query.GroupCount:
		s := make([]int, record.NumLocations)
		for i := range s {
			s[i] = i
		}
		return s, nil
	case query.RangeCount:
		lo := int(q.Lo)
		if lo < 1 {
			lo = 1 // zone IDs are 1-based; bin 0 does not exist
		}
		hi := int(q.Hi)
		if hi > record.NumLocations {
			hi = record.NumLocations
		}
		var s []int
		for i := lo; i <= hi; i++ {
			s = append(s, i-1)
		}
		return s, nil
	case query.SumFare:
		return []int{record.NumLocations}, nil
	default:
		return nil, fmt.Errorf("%w: %v on the AHE pipeline", ErrUnsupportedAHE, q.Kind)
	}
}

// zeroAnswer returns the exact answer of q over an empty table, shaped the
// way DecryptAnswer (and the clear engine) shape it — Groups for histogram
// kinds, Scalar otherwise. It lives next to releaseSlots/DecryptAnswer so
// the per-kind answer shape stays decided in one place.
func zeroAnswer(q query.Query) (query.Answer, error) {
	if _, err := releaseSlots(q); err != nil {
		return query.Answer{}, err
	}
	if q.Kind == query.GroupCount {
		return query.Answer{Groups: make([]float64, record.NumLocations)}, nil
	}
	return query.Answer{}, nil
}

// DecryptAnswer turns an aggregated encoding into the exact answer of q
// (before DP noise): histogram bins for GroupCount, bin-range sums for
// RangeCount, the fare slot for SumFare. Bin decryptions run concurrently
// on the shared worker pool via the CRT fast path.
func (p *AHEPipeline) DecryptAnswer(q query.Query, agg []ahe.Ciphertext) (query.Answer, error) {
	if len(agg) != encWidth {
		return query.Answer{}, fmt.Errorf("crypte: aggregate width %d, want %d", len(agg), encWidth)
	}
	slots, err := releaseSlots(q)
	if err != nil {
		return query.Answer{}, err
	}
	vals := make([]int64, len(slots))
	if err := ahe.ParallelSlotsErr(len(slots), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			v, err := p.sk.Decrypt(agg[slots[i]])
			if err != nil {
				return fmt.Errorf("crypte: slot %d: %w", slots[i], err)
			}
			vals[i] = v
		}
		return nil
	}); err != nil {
		return query.Answer{}, err
	}
	switch q.Kind {
	case query.GroupCount:
		groups := make([]float64, record.NumLocations)
		for i, v := range vals {
			groups[slots[i]] = float64(v)
		}
		return query.Answer{Groups: groups}, nil
	default: // RangeCount sums its bins; SumFare has exactly one slot
		var sum float64
		for _, v := range vals {
			sum += float64(v)
		}
		return query.Answer{Scalar: sum}, nil
	}
}

// ErrUnsupportedAHE marks queries outside the linear repertoire.
var ErrUnsupportedAHE = fmt.Errorf("crypte: query not expressible as a linear aggregate")
