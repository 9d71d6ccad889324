// Package ahe implements the Paillier additively homomorphic cryptosystem,
// the primitive behind Cryptε's crypto-assisted pipeline: records are
// encoded as one-hot vectors of AHE ciphertexts, the untrusted aggregation
// server sums them without ever holding a decryption key, and the analyst
// side decrypts only noisy aggregates.
//
// The package implements the standard Paillier fast paths so the real
// construction can run at meaningful scale rather than only inside a small
// integration test:
//
//   - CRT decryption (crt.go): decrypt mod p² and q² and recombine, ~3–4×
//     over the textbook L(c^λ mod n²)·μ path. DecryptTextbook is retained
//     as the reference implementation and pinned bit-identical by tests.
//   - Owner-side CRT encryption (crt.go): when the encryptor holds the
//     private key — the dominant case, since the data owner encodes its own
//     records — r^n mod n² is computed as two half-size exponentiations.
//   - An offline/online split (pool.go): RandomizerPool precomputes r^n
//     values in the background so the online Encrypt is a single modular
//     multiplication, the classic trick real Paillier deployments use.
//   - Parallel vector ops (workers.go): SumVector and the crypte encoders
//     fan slots out over a shared GOMAXPROCS-bounded worker pool.
package ahe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
)

// PublicKey holds the Paillier encryption key.
type PublicKey struct {
	N  *big.Int // modulus n = p·q
	N2 *big.Int // n²
	G  *big.Int // generator, fixed to n+1
}

// PrivateKey holds the decryption key.
type PrivateKey struct {
	PublicKey
	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // (L(g^λ mod n²))⁻¹ mod n
	crt    *crtKey  // factor-based fast paths (always set by GenerateKey)
}

// Ciphertext is one Paillier ciphertext (an element of Z*_{n²}).
type Ciphertext struct {
	C *big.Int
}

// ErrBadBits rejects undersized keys.
var ErrBadBits = errors.New("ahe: key size must be at least 256 bits")

// ErrDecrypt is returned for malformed ciphertexts.
var ErrDecrypt = errors.New("ahe: decryption failed")

// ErrPlaintextRange is returned when a plaintext falls outside [0, n).
var ErrPlaintextRange = errors.New("ahe: plaintext outside [0, n)")

var one = big.NewInt(1)

// GenerateKey creates a Paillier key pair with an n of about `bits` bits.
// Tests use 384–1024; production would use ≥2048.
func GenerateKey(bits int) (*PrivateKey, error) {
	if bits < 256 {
		return nil, ErrBadBits
	}
	for {
		p, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, fmt.Errorf("ahe: prime: %w", err)
		}
		q, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, fmt.Errorf("ahe: prime: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		n2 := new(big.Int).Mul(n, n)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Div(new(big.Int).Mul(pm1, qm1), gcd)

		pk := PublicKey{N: n, N2: n2, G: new(big.Int).Add(n, one)}
		// μ = (L(g^λ mod n²))⁻¹ mod n; with g = n+1, g^λ = 1 + λ·n (mod n²),
		// so L(g^λ) = λ mod n, and μ = λ⁻¹ mod n.
		mu := new(big.Int).ModInverse(new(big.Int).Mod(lambda, n), n)
		if mu == nil {
			continue // λ not invertible mod n (p-1 or q-1 shares a factor with n); redraw
		}
		crt := newCRTKey(p, q, &pk)
		if crt == nil {
			continue // a CRT constant not invertible; possible only for degenerate draws
		}
		return &PrivateKey{PublicKey: pk, lambda: lambda, mu: mu, crt: crt}, nil
	}
}

// checkPlaintext validates m ∈ [0, n) and returns it as a big.Int.
func (pk *PublicKey) checkPlaintext(m int64) (*big.Int, error) {
	if m < 0 {
		return nil, fmt.Errorf("%w: %d is negative", ErrPlaintextRange, m)
	}
	mBig := big.NewInt(m)
	if mBig.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("%w: %d exceeds the modulus", ErrPlaintextRange, m)
	}
	return mBig, nil
}

// sampleR draws the encryption randomizer r uniform in [1, n). The textbook
// algorithm additionally requires gcd(r, n) = 1, but r shares a factor with
// n only when p | r or q | r — an event of probability (p+q-1)/n < 2^-126
// even for the smallest permitted keys, and one that would factor n outright.
// Rejecting r = 0 is the single cheap check that matters; the old
// per-iteration GCD allocation bought nothing.
func (pk *PublicKey) sampleR() (*big.Int, error) {
	for {
		r, err := rand.Int(rand.Reader, pk.N)
		if err != nil {
			return nil, fmt.Errorf("ahe: rand: %w", err)
		}
		if r.Sign() > 0 {
			return r, nil
		}
	}
}

// gPow returns g^m mod n² for the fixed generator g = n+1, which collapses
// to 1 + m·n (mod n²) — no exponentiation needed.
func (pk *PublicKey) gPow(mBig *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Add(one, new(big.Int).Mul(mBig, pk.N)), pk.N2)
}

// powN computes r^n mod n², the expensive half of encryption. Public-key
// holders pay one full-width exponentiation; PrivateKey.powN (crt.go) does
// it as two half-size exponentiations.
func (pk *PublicKey) powN(r *big.Int) *big.Int {
	return new(big.Int).Exp(r, pk.N, pk.N2)
}

// encryptWith is the one encryption body: c = g^m · r^n mod n², with the
// r^n computation injected (textbook for public-key holders, CRT for the
// owner — the same dispatch shape RandomizerPool uses).
func encryptWith(pk *PublicKey, powN func(*big.Int) *big.Int, m int64) (Ciphertext, error) {
	mBig, err := pk.checkPlaintext(m)
	if err != nil {
		return Ciphertext{}, err
	}
	r, err := pk.sampleR()
	if err != nil {
		return Ciphertext{}, err
	}
	rn := powN(r)
	c := rn.Mul(pk.gPow(mBig), rn)
	return Ciphertext{C: c.Mod(c, pk.N2)}, nil
}

// Encrypt encrypts the non-negative integer m < n: c = g^m · r^n mod n².
func (pk *PublicKey) Encrypt(m int64) (Ciphertext, error) {
	return encryptWith(pk, pk.powN, m)
}

// EncryptPrecomputed assembles a ciphertext from m and a precomputed
// randomizer power rn = r^n mod n² (as produced by a RandomizerPool): a
// single modular multiplication, the online half of the offline/online
// split. rn is consumed: the caller must not reuse it — reusing a
// randomizer across two ciphertexts links them and voids semantic security.
func (pk *PublicKey) EncryptPrecomputed(m int64, rn *big.Int) (Ciphertext, error) {
	mBig, err := pk.checkPlaintext(m)
	if err != nil {
		return Ciphertext{}, err
	}
	c := new(big.Int).Mul(pk.gPow(mBig), rn)
	return Ciphertext{C: c.Mod(c, pk.N2)}, nil
}

// EncryptOwner is the owner-side fast path: it produces ciphertexts with
// exactly the same distribution as PublicKey.Encrypt, but computes r^n via
// the key's CRT representation (two half-size exponentiations, crt.go).
// Only the data owner — who generated the key and encodes its own records —
// can use it; the aggregation server never holds a PrivateKey.
func (sk *PrivateKey) EncryptOwner(m int64) (Ciphertext, error) {
	return encryptWith(&sk.PublicKey, sk.powN, m)
}

// Decrypt recovers the plaintext via the CRT fast path (crt.go): the
// exponentiation is split across the half-size moduli p² and q², ~3–4×
// faster than DecryptTextbook, to which tests pin it bit-identical.
func (sk *PrivateKey) Decrypt(ct Ciphertext) (int64, error) {
	if err := sk.checkCiphertext(ct); err != nil {
		return 0, err
	}
	return sk.decryptCRT(ct)
}

// DecryptTextbook is the reference decryption m = L(c^λ mod n²)·μ mod n,
// with L(x) = (x-1)/n. It is retained (and exported) as the differential
// reference for Decrypt and as the slow side of BenchmarkDecryptTextbook vs
// BenchmarkDecryptCRT.
func (sk *PrivateKey) DecryptTextbook(ct Ciphertext) (int64, error) {
	if err := sk.checkCiphertext(ct); err != nil {
		return 0, err
	}
	u := new(big.Int).Exp(ct.C, sk.lambda, sk.N2)
	l := new(big.Int).Div(new(big.Int).Sub(u, one), sk.N)
	m := new(big.Int).Mod(new(big.Int).Mul(l, sk.mu), sk.N)
	if !m.IsInt64() {
		return 0, ErrDecrypt
	}
	return m.Int64(), nil
}

func (sk *PrivateKey) checkCiphertext(ct Ciphertext) error {
	if ct.C == nil || ct.C.Sign() <= 0 || ct.C.Cmp(sk.N2) >= 0 {
		return ErrDecrypt
	}
	return nil
}

// Add homomorphically adds two ciphertexts: Dec(Add(a,b)) = Dec(a)+Dec(b).
func (pk *PublicKey) Add(a, b Ciphertext) Ciphertext {
	return Ciphertext{C: new(big.Int).Mod(new(big.Int).Mul(a.C, b.C), pk.N2)}
}

// AddPlain adds a plaintext constant: Dec(AddPlain(a, k)) = Dec(a)+k.
func (pk *PublicKey) AddPlain(a Ciphertext, k int64) Ciphertext {
	gm := new(big.Int).Mod(new(big.Int).Add(one, new(big.Int).Mul(big.NewInt(k), pk.N)), pk.N2)
	return Ciphertext{C: new(big.Int).Mod(new(big.Int).Mul(a.C, gm), pk.N2)}
}

// MulPlain multiplies by a plaintext scalar: Dec(MulPlain(a, k)) = k·Dec(a).
func (pk *PublicKey) MulPlain(a Ciphertext, k int64) Ciphertext {
	return Ciphertext{C: new(big.Int).Exp(a.C, big.NewInt(k), pk.N2)}
}

// EncryptZero returns a fresh encryption of 0 (used to initialize
// accumulators and to re-randomize): with g^0 = 1 it is just r^n mod n².
func (pk *PublicKey) EncryptZero() (Ciphertext, error) {
	r, err := pk.sampleR()
	if err != nil {
		return Ciphertext{}, err
	}
	return Ciphertext{C: pk.powN(r)}, nil
}

// SumVector homomorphically sums ciphertext vectors element-wise. All
// vectors must share a length; the result has that length. Aggregating
// one-hot record encodings this way is exactly Cryptε's server-side
// evaluation of a histogram query.
//
// Slots are independent, so wide sums fan out across the package's shared
// worker pool (workers.go); within a slot the accumulator chain reuses one
// scratch big.Int instead of allocating two per addition. The accumulator is
// seeded from the first vector rather than from a fresh EncryptZero per
// slot, because the zero encryptions cost one n-bit modular exponentiation
// each and width× of them dominated every call (BenchmarkSumVector pins the
// win for direct callers). This moves re-randomization from every sum to the
// trust boundary: chained or batched sums pay no zero encryptions here, and
// a release point that needs unlinkability (crypte.Aggregate) re-randomizes
// once per published slot — so a multi-sum pipeline pays the exponentiations
// once per release instead of once per SumVector call. The trade-off: no
// fresh randomness enters this function, so the result is the deterministic
// slot-wise product of the inputs — semantically secure against outsiders
// (every input carried fresh randomness at encryption time) but *linkable*
// by a party who saw the input ciphertexts, and with a single input vector
// the result aliases that vector's *big.Int values outright. Callers
// releasing the aggregate to such a party must re-randomize it themselves by
// Adding an EncryptZero per slot, and must treat Ciphertexts as immutable
// (this API never mutates them in place).
func (pk *PublicKey) SumVector(vecs ...[]Ciphertext) ([]Ciphertext, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("ahe: no vectors")
	}
	width := len(vecs[0])
	for vi, v := range vecs[1:] {
		if len(v) != width {
			return nil, fmt.Errorf("ahe: vector %d has width %d, want %d", vi+1, len(v), width)
		}
	}
	if len(vecs) == 1 {
		return append([]Ciphertext(nil), vecs[0]...), nil
	}
	acc := make([]Ciphertext, width)
	ParallelSlots(width, func(lo, hi int) {
		scratch := new(big.Int)
		for i := lo; i < hi; i++ {
			z := new(big.Int).Mul(vecs[0][i].C, vecs[1][i].C)
			z.Mod(z, pk.N2)
			for _, v := range vecs[2:] {
				scratch.Mul(z, v[i].C)
				z.Mod(scratch, pk.N2)
			}
			acc[i] = Ciphertext{C: z}
		}
	})
	return acc, nil
}
