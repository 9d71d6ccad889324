package ahe

import (
	"errors"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"
)

// testKey generates one shared small-modulus key for the whole test file;
// keygen is the slow part.
var testKey = mustKey()

func mustKey() *PrivateKey {
	k, err := GenerateKey(512)
	if err != nil {
		panic(err)
	}
	return k
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for _, m := range []int64{0, 1, 42, 1_000_000, 1 << 40} {
		ct, err := testKey.Encrypt(m)
		if err != nil {
			t.Fatalf("encrypt %d: %v", m, err)
		}
		got, err := testKey.Decrypt(ct)
		if err != nil {
			t.Fatalf("decrypt %d: %v", m, err)
		}
		if got != m {
			t.Errorf("round trip %d -> %d", m, got)
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	a, err := testKey.Encrypt(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testKey.Encrypt(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.C.Cmp(b.C) == 0 {
		t.Error("two encryptions of 7 are identical (no semantic security)")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	a, _ := testKey.Encrypt(15)
	b, _ := testKey.Encrypt(27)
	sum := testKey.Add(a, b)
	got, err := testKey.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("Dec(Add) = %d, want 42", got)
	}
}

func TestAddPlainAndMulPlain(t *testing.T) {
	a, _ := testKey.Encrypt(10)
	if got, _ := testKey.Decrypt(testKey.AddPlain(a, 5)); got != 15 {
		t.Errorf("AddPlain = %d", got)
	}
	if got, _ := testKey.Decrypt(testKey.MulPlain(a, 6)); got != 60 {
		t.Errorf("MulPlain = %d", got)
	}
}

func TestSumVectorActsLikeHistogram(t *testing.T) {
	// Three one-hot "records" over a 5-bin domain: bins 1, 3, 3.
	oneHot := func(bin int) []Ciphertext {
		v := make([]Ciphertext, 5)
		for i := range v {
			m := int64(0)
			if i == bin {
				m = 1
			}
			ct, err := testKey.Encrypt(m)
			if err != nil {
				t.Fatal(err)
			}
			v[i] = ct
		}
		return v
	}
	agg, err := testKey.SumVector(oneHot(1), oneHot(3), oneHot(3))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 0, 2, 0}
	for i, ct := range agg {
		got, err := testKey.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Errorf("bin %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestSumVectorErrors(t *testing.T) {
	if _, err := testKey.SumVector(); err == nil {
		t.Error("empty sum accepted")
	}
	a, _ := testKey.Encrypt(1)
	if _, err := testKey.SumVector([]Ciphertext{a}, []Ciphertext{a, a}); err == nil {
		t.Error("ragged vectors accepted")
	}
}

func TestDecryptRejectsGarbage(t *testing.T) {
	if _, err := testKey.Decrypt(Ciphertext{}); err == nil {
		t.Error("nil ciphertext accepted")
	}
	bad := Ciphertext{C: testKey.N2} // out of range
	if _, err := testKey.Decrypt(bad); err == nil {
		t.Error("out-of-range ciphertext accepted")
	}
}

func TestEncryptRejectsBadPlaintext(t *testing.T) {
	if _, err := testKey.Encrypt(-1); !errors.Is(err, ErrPlaintextRange) {
		t.Errorf("negative plaintext: err = %v, want ErrPlaintextRange", err)
	}
	if _, err := testKey.EncryptOwner(-7); !errors.Is(err, ErrPlaintextRange) {
		t.Errorf("negative owner-side plaintext: err = %v, want ErrPlaintextRange", err)
	}
	rn := testKey.powN(big.NewInt(12345))
	if _, err := testKey.EncryptPrecomputed(-1, rn); !errors.Is(err, ErrPlaintextRange) {
		t.Errorf("negative precomputed plaintext: err = %v, want ErrPlaintextRange", err)
	}
}

func TestGenerateKeyRejectsTinyBits(t *testing.T) {
	if _, err := GenerateKey(128); err == nil {
		t.Error("128-bit key accepted")
	}
}

// Property: additivity holds for arbitrary small plaintexts.
func TestQuickAdditivity(t *testing.T) {
	f := func(a, b uint16) bool {
		ca, err1 := testKey.Encrypt(int64(a))
		cb, err2 := testKey.Encrypt(int64(b))
		if err1 != nil || err2 != nil {
			return false
		}
		got, err := testKey.Decrypt(testKey.Add(ca, cb))
		return err == nil && got == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// benchKeys caches one key per benchmarked size; keygen is the slow part and
// a benchmark body runs several times.
var benchKeys = map[int]*PrivateKey{512: testKey}

// benchSizes runs one micro-operation at the test key size and at the two
// production-representative sizes, where the CRT advantage grows with the
// operand width (at bits=2048 DecryptCRT must beat DecryptTextbook by ≥ 3×).
// -short keeps bits=512 only: the large keys take seconds to generate.
func benchSizes(b *testing.B, op func(b *testing.B, key *PrivateKey)) {
	for _, bits := range []int{512, 1024, 2048} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			key := benchKeys[bits]
			if key == nil {
				if testing.Short() {
					b.Skip("large key sizes are skipped under -short")
				}
				var err error
				if key, err = GenerateKey(bits); err != nil {
					b.Fatal(err)
				}
				benchKeys[bits] = key
			}
			b.ResetTimer()
			op(b, key)
		})
	}
}

func BenchmarkEncrypt(b *testing.B) {
	benchSizes(b, func(b *testing.B, key *PrivateKey) {
		for i := 0; i < b.N; i++ {
			if _, err := key.Encrypt(int64(i % 1000)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncryptOwner pins the owner-side CRT win for r^n (~2×: the
// half-width moduli make each of the two exponentiations ~4× cheaper).
func BenchmarkEncryptOwner(b *testing.B) {
	benchSizes(b, func(b *testing.B, key *PrivateKey) {
		for i := 0; i < b.N; i++ {
			if _, err := key.EncryptOwner(int64(i % 1000)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncryptPooledOnline measures the online half of the
// offline/online split in isolation: assembling a ciphertext from a
// precomputed randomizer power is a single modular multiplication. The
// randomizer is reused across iterations — cryptographically forbidden, but
// exactly the right measurement of the online arithmetic.
func BenchmarkEncryptPooledOnline(b *testing.B) {
	benchSizes(b, func(b *testing.B, key *PrivateKey) {
		rn, err := key.EncryptZero()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := key.EncryptPrecomputed(int64(i%1000), rn.C); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecryptTextbook(b *testing.B) {
	benchSizes(b, func(b *testing.B, key *PrivateKey) {
		ct, _ := key.Encrypt(123456789)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := key.DecryptTextbook(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecryptCRT(b *testing.B) {
	benchSizes(b, func(b *testing.B, key *PrivateKey) {
		ct, _ := key.Encrypt(123456789)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := key.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAdd(b *testing.B) {
	x, _ := testKey.Encrypt(1)
	y, _ := testKey.Encrypt(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = testKey.Add(x, y)
	}
}
