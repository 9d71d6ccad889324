package ahe

import (
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
)

// RandomizerPool is the offline half of the standard Paillier offline/online
// split: encryption cost is dominated by the randomizer power r^n mod n²,
// which depends on nothing but the key, so background generators precompute
// a buffer of them and the online Encrypt collapses to a single modular
// multiplication g^m · r^n. Real deployments run exactly this split — the
// owner's idle cycles fill the pool between upload bursts, and the
// aggregation service pre-generates the zero-encryptions it spends
// re-randomizing each released aggregate.
//
// A pool built from a PublicKey generates randomizers with the textbook
// full-width exponentiation; one built from a PrivateKey (the data owner's
// own pool) uses the ~2× CRT path. Both produce identically distributed
// values, so which side filled the pool is invisible in the ciphertexts.
//
// All methods are safe for concurrent use. Close the pool when done to
// release the generator goroutines; a drained or closed pool transparently
// falls back to computing randomizers inline, so correctness never depends
// on the pool being warm — only latency does.
type RandomizerPool struct {
	pk       *PublicKey
	powN     func(*big.Int) *big.Int // textbook or CRT, fixed at construction
	ch       chan *big.Int
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	hits, misses atomic.Int64
}

// NewRandomizerPool starts a pool over pk with the given number of
// background generator goroutines and buffer capacity. workers is clamped
// to [0, GOMAXPROCS]; 0 disables background generation entirely, leaving a
// purely manual pool (Prefill + inline fallback) — useful for deterministic
// measurements. capacity ≤ 0 picks a default of 256.
func (pk *PublicKey) NewRandomizerPool(workers, capacity int) *RandomizerPool {
	return newPool(pk, pk.powN, workers, capacity)
}

// NewRandomizerPool starts the owner-side pool: same semantics as the
// PublicKey variant, but randomizer powers are generated via the CRT path.
func (sk *PrivateKey) NewRandomizerPool(workers, capacity int) *RandomizerPool {
	return newPool(&sk.PublicKey, sk.powN, workers, capacity)
}

func newPool(pk *PublicKey, powN func(*big.Int) *big.Int, workers, capacity int) *RandomizerPool {
	if capacity <= 0 {
		capacity = 256
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	p := &RandomizerPool{
		pk:   pk,
		powN: powN,
		ch:   make(chan *big.Int, capacity),
		stop: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.generate()
	}
	return p
}

// generate fills the buffer until the pool is closed. The channel send
// blocks once the buffer is full, so a warm pool consumes no CPU.
func (p *RandomizerPool) generate() {
	defer p.wg.Done()
	for {
		rn, err := p.fresh()
		if err != nil {
			return // crypto/rand failure; Get's inline fallback will surface it
		}
		select {
		case p.ch <- rn:
		case <-p.stop:
			return
		}
	}
}

// fresh computes one randomizer power r^n mod n² from scratch.
func (p *RandomizerPool) fresh() (*big.Int, error) {
	r, err := p.pk.sampleR()
	if err != nil {
		return nil, err
	}
	return p.powN(r), nil
}

// Get returns a precomputed randomizer power r^n mod n², computing one
// inline when the buffer is empty. Each returned value is fresh and must be
// used for at most one ciphertext.
func (p *RandomizerPool) Get() (*big.Int, error) {
	select {
	case rn := <-p.ch:
		p.hits.Add(1)
		return rn, nil
	default:
		p.misses.Add(1)
		return p.fresh()
	}
}

// Encrypt is the online-path encryption: one modular multiplication when
// the pool is warm. It produces ciphertexts identically distributed to
// PublicKey.Encrypt.
func (p *RandomizerPool) Encrypt(m int64) (Ciphertext, error) {
	rn, err := p.Get()
	if err != nil {
		return Ciphertext{}, err
	}
	return p.pk.EncryptPrecomputed(m, rn)
}

// EncryptZero returns a fresh zero encryption, which is the randomizer
// power itself (g^0 = 1) — a pool hit costs no arithmetic at all.
func (p *RandomizerPool) EncryptZero() (Ciphertext, error) {
	rn, err := p.Get()
	if err != nil {
		return Ciphertext{}, err
	}
	return Ciphertext{C: rn}, nil
}

// Rerandomize multiplies ct by a fresh zero encryption, producing a
// ciphertext of the same plaintext that is unlinkable to ct. This is the
// operation a release boundary (the real-AHE crypte DB's query release)
// spends per published slot.
func (p *RandomizerPool) Rerandomize(ct Ciphertext) (Ciphertext, error) {
	z, err := p.EncryptZero()
	if err != nil {
		return Ciphertext{}, err
	}
	return p.pk.Add(ct, z), nil
}

// Prefill synchronously generates up to k randomizers into the buffer,
// stopping early if the buffer fills. It returns how many were added.
// Benchmarks use it to measure the online path in isolation; servers can
// use it to warm a pool before opening for traffic.
func (p *RandomizerPool) Prefill(k int) (int, error) {
	for i := 0; i < k; i++ {
		rn, err := p.fresh()
		if err != nil {
			return i, err
		}
		select {
		case p.ch <- rn:
		default:
			return i, nil
		}
	}
	return k, nil
}

// Hits and Misses report how many Gets were served from the buffer versus
// computed inline — the observable measure of whether offline capacity is
// keeping up with online demand.
func (p *RandomizerPool) Hits() int64   { return p.hits.Load() }
func (p *RandomizerPool) Misses() int64 { return p.misses.Load() }

// Close stops the background generators and waits for them to exit. It is
// idempotent. Outstanding buffered randomizers remain usable; Get keeps
// working via the inline fallback once the buffer drains.
func (p *RandomizerPool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}
