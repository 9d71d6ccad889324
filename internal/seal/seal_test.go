package seal

import (
	"bytes"
	"testing"
	"testing/quick"

	"dpsync/internal/record"
)

func newTestSealer(t *testing.T) *Sealer {
	t.Helper()
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSealOpenRoundTrip(t *testing.T) {
	s := newTestSealer(t)
	rs := []record.Record{
		{PickupTime: 42, PickupID: 101, Provider: record.YellowCab, FareCents: 1775},
		record.NewDummy(record.GreenTaxi),
	}
	for _, r := range rs {
		ct, err := s.Seal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Open(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Errorf("round trip %+v != %+v", got, r)
		}
	}
}

func TestSealedSizeUniform(t *testing.T) {
	// The core indistinguishability property: real and dummy ciphertexts
	// have identical length.
	s := newTestSealer(t)
	real, err := s.Seal(record.Record{PickupTime: 1, PickupID: 2, Provider: record.YellowCab})
	if err != nil {
		t.Fatal(err)
	}
	dummy, err := s.Seal(record.NewDummy(record.YellowCab))
	if err != nil {
		t.Fatal(err)
	}
	if len(real) != SealedSize || len(dummy) != SealedSize {
		t.Errorf("sizes real=%d dummy=%d, want %d", len(real), len(dummy), SealedSize)
	}
}

func TestSealIsRandomized(t *testing.T) {
	s := newTestSealer(t)
	r := record.Record{PickupTime: 5, PickupID: 5, Provider: record.YellowCab}
	a, _ := s.Seal(r)
	b, _ := s.Seal(r)
	if bytes.Equal(a, b) {
		t.Error("two seals of the same record produced identical ciphertexts")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	s := newTestSealer(t)
	ct, err := s.Seal(record.Record{PickupTime: 9, PickupID: 9, Provider: record.GreenTaxi})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, nonceSize, len(ct) - 1} {
		bad := append(Sealed(nil), ct...)
		bad[idx] ^= 0x80
		if _, err := s.Open(bad); err == nil {
			t.Errorf("tampered byte %d accepted", idx)
		}
	}
	if _, err := s.Open(ct[:len(ct)-1]); err == nil {
		t.Error("truncated ciphertext accepted")
	}
	if _, err := s.Open(nil); err == nil {
		t.Error("nil ciphertext accepted")
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	s1 := newTestSealer(t)
	s2 := newTestSealer(t)
	ct, err := s1.Seal(record.NewDummy(record.YellowCab))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Open(ct); err == nil {
		t.Error("ciphertext opened under a different key")
	}
}

func TestNewSealerRejectsBadKeys(t *testing.T) {
	for _, n := range []int{0, 16, 31, 33} {
		if _, err := NewSealer(make([]byte, n)); err == nil {
			t.Errorf("key length %d accepted", n)
		}
	}
}

func TestSealAllOpenAll(t *testing.T) {
	s := newTestSealer(t)
	rs := make([]record.Record, 50)
	for i := range rs {
		if i%3 == 0 {
			rs[i] = record.NewDummy(record.YellowCab)
		} else {
			rs[i] = record.Record{PickupTime: record.Tick(i), PickupID: uint16(i%record.NumLocations + 1), Provider: record.YellowCab}
		}
	}
	cts, err := s.SealAll(rs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.OpenAll(cts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if got[i] != rs[i] {
			t.Errorf("record %d mismatch", i)
		}
	}
	// OpenAll surfaces per-record errors with position info.
	cts[7][3] ^= 1
	if _, err := s.OpenAll(cts); err == nil {
		t.Error("OpenAll accepted corrupted batch")
	}
}

// Property: round trip holds for arbitrary records.
func TestQuickSealRoundTrip(t *testing.T) {
	s := newTestSealer(t)
	f := func(tick uint32, id uint16, fare uint32, dummy bool) bool {
		r := record.Record{
			PickupTime: record.Tick(tick),
			PickupID:   id,
			Provider:   record.GreenTaxi,
			FareCents:  fare,
			Dummy:      dummy,
		}
		ct, err := s.Seal(r)
		if err != nil {
			return false
		}
		got, err := s.Open(ct)
		return err == nil && got == r && len(ct) == SealedSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestAppendOpen pins the append-style open: the plaintext lands behind what
// dst already holds, a rejected ciphertext appends nothing, and a caller that
// hands in a buffer with room allocates nothing.
func TestAppendOpen(t *testing.T) {
	s := newTestSealer(t)
	r := record.Record{PickupTime: -3, PickupID: 65535, Provider: record.GreenTaxi, FareCents: 1 << 31}
	ct, err := s.Seal(r)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.AppendOpen([]byte("pre"), ct)
	if err != nil {
		t.Fatal(err)
	}
	want := record.Encode(r)
	if !bytes.Equal(out, append([]byte("pre"), want[:]...)) {
		t.Fatalf("AppendOpen = %x", out)
	}
	bad := append(Sealed(nil), ct...)
	bad[len(bad)-1] ^= 1
	for _, forged := range []Sealed{bad, ct[:SealedSize-1], nil} {
		if out, err := s.AppendOpen([]byte("pre"), forged); err != ErrCorrupt || string(out) != "pre" {
			t.Fatalf("forged ciphertext: %q, %v", out, err)
		}
	}
	var buf [record.EncodedSize]byte
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.AppendOpen(buf[:0], ct); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendOpen into a sized buffer allocates %v times, want 0", n)
	}
}

func BenchmarkSeal(b *testing.B) {
	key, _ := NewRandomKey()
	s, _ := NewSealer(key)
	r := record.Record{PickupTime: 1, PickupID: 100, Provider: record.YellowCab}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen(b *testing.B) {
	key, _ := NewRandomKey()
	s, _ := NewSealer(key)
	ct, _ := s.Seal(record.Record{PickupTime: 1, PickupID: 100, Provider: record.YellowCab})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Open(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendOpen(b *testing.B) {
	key, _ := NewRandomKey()
	s, _ := NewSealer(key)
	ct, _ := s.Seal(record.Record{PickupTime: 1, PickupID: 100, Provider: record.YellowCab})
	var buf [record.EncodedSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.AppendOpen(buf[:0], ct); err != nil {
			b.Fatal(err)
		}
	}
}
