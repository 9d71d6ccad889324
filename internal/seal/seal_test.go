package seal

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"dpsync/internal/record"
)

// TestKeyFileRoundTrip pins the shared key file: WriteKeyFile's file reads
// back as the same key, owner-only, and ReadKeyFile takes a hand-written
// file with surrounding whitespace but refuses one that is not hex.
func TestKeyFileRoundTrip(t *testing.T) {
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shared.key")
	if err := WriteKeyFile(path, key); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("key file mode %v (%v), want 0600", fi.Mode().Perm(), err)
	}
	if got, err := ReadKeyFile(path); err != nil || !bytes.Equal(got, key) {
		t.Fatalf("read back %x (%v), want %x", got, err, key)
	}
	if err := os.WriteFile(path, []byte("  0102ff\n\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadKeyFile(path); err != nil || !bytes.Equal(got, []byte{1, 2, 0xff}) {
		t.Fatalf("padded file read as %x (%v)", got, err)
	}
	if err := os.WriteFile(path, []byte("not hex"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadKeyFile(path); err == nil {
		t.Fatal("a key file that is not hex was accepted")
	}
	if _, err := ReadKeyFile(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing key file: %v, want ErrNotExist", err)
	}
}

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

// mixedBatch is n records, every third a dummy.
func mixedBatch(n int) []record.Record {
	rs := make([]record.Record, n)
	for i := range rs {
		if i%3 == 0 {
			rs[i] = record.NewDummy(record.GreenTaxi)
		} else {
			rs[i] = record.Record{PickupTime: record.Tick(i), PickupID: uint16(i%record.NumLocations + 1), Provider: record.YellowCab, FareCents: uint32(100 * i)}
		}
	}
	return rs
}

// sealOne seals a non-empty batch, which must be exactly one message.
func sealOne(t *testing.T, s *Sealer, rs []record.Record) Sealed {
	t.Helper()
	cts, err := s.SealBatch(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cts) != 1 {
		t.Fatalf("%d records sealed to %d messages, want one", len(rs), len(cts))
	}
	return cts[0]
}

// TestSealBatchLengthIsTheCount pins the batch message's length: n real
// records and n dummies seal to the same 16n + 28 bytes, Size and Records
// agree with it, and the message opens to the batch in order.
func TestSealBatchLengthIsTheCount(t *testing.T) {
	s := newTestSealer(t)
	for _, n := range []int{1, 2, 8, 65, 300} {
		rs, dummies := make([]record.Record, n), make([]record.Record, n)
		for i := range rs {
			rs[i] = record.Record{PickupTime: record.Tick(i), PickupID: uint16(i%record.NumLocations + 1), Provider: record.YellowCab}
			dummies[i] = record.NewDummy(record.YellowCab)
		}
		real, dummy := sealOne(t, s, rs), sealOne(t, s, dummies)
		if len(real) != 16*n+28 || len(dummy) != 16*n+28 || Size(n) != 16*n+28 || Records(16*n+28) != n {
			t.Fatalf("n=%d: real %d B, dummies %d B, Size %d, Records %d; want %d B", n, len(real), len(dummy), Size(n), Records(16*n+28), 16*n+28)
		}
		got, err := s.OpenAll([]Sealed{real})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(rs) {
			t.Fatalf("n=%d: opened %v, sealed %v", n, got, rs)
		}
	}
	for _, l := range []int{0, 1, 27, 28, 43, 45, 59, 61} {
		if m := Records(l); m != 0 {
			t.Errorf("Records(%d) = %d, want 0: no message is %d bytes long", l, m, l)
		}
	}
}

// TestOpenRefusesAnyAlteredMessage flips every byte of an 8-record message
// in turn, cuts a record's worth off its end and grows it by one: each is
// ErrCorrupt, from AppendOpen and OpenAll alike, and appends nothing.
func TestOpenRefusesAnyAlteredMessage(t *testing.T) {
	s := newTestSealer(t)
	ct := sealOne(t, s, mixedBatch(8))
	forged := []Sealed{ct[:len(ct)-16], append(append(Sealed(nil), ct...), make([]byte, 16)...)}
	for i := range ct {
		bad := append(Sealed(nil), ct...)
		bad[i] ^= 0x01
		forged = append(forged, bad)
	}
	for i, f := range forged {
		if out, err := s.AppendOpen([]byte("pre"), f); err != ErrCorrupt || string(out) != "pre" {
			t.Fatalf("forgery %d: %q, %v", i, out, err)
		}
		if _, err := s.OpenAll([]Sealed{ct, f}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("forgery %d behind a good message: OpenAll gave %v", i, err)
		}
	}
}

// countingReader counts the reads a Sealer makes of its randomness.
type countingReader struct{ reads int }

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return rand.Read(p)
}

// TestSealBatchEmptyIsNoMessage: an empty batch seals to nil without drawing
// a nonce, and a batch of any size draws exactly one.
func TestSealBatchEmptyIsNoMessage(t *testing.T) {
	s := newTestSealer(t)
	var r countingReader
	s.rand = &r
	for _, rs := range [][]record.Record{nil, {}} {
		if cts, err := s.SealBatch(rs); cts != nil || err != nil {
			t.Fatalf("empty batch sealed to %x, %v", cts, err)
		}
	}
	if r.reads != 0 {
		t.Fatalf("an empty batch drew %d nonces", r.reads)
	}
	if _, err := s.SealBatch(mixedBatch(300)); err != nil || r.reads != 1 {
		t.Fatalf("a 300-record batch drew %d nonces (%v), want one", r.reads, err)
	}
	s.rand = io.LimitReader(nil, 0)
	if _, err := s.SealBatch(mixedBatch(1)); err == nil {
		t.Fatal("a batch sealed without a nonce")
	}
}

// TestOpenAllBothShapes opens one batch sealed as one message and as one
// message per record, and a mix of the two, to the same records.
func TestOpenAllBothShapes(t *testing.T) {
	s := newTestSealer(t)
	rs := mixedBatch(20)
	one, head := sealOne(t, s, rs), sealOne(t, s, rs[:7])
	each, err := s.SealAll(rs)
	if err != nil {
		t.Fatal(err)
	}
	for name, cts := range map[string][]Sealed{
		"one message":            {one},
		"one message per record": each,
		"mixed":                  append([]Sealed{head}, each[7:]...),
	} {
		got, err := s.OpenAll(cts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(rs) {
			t.Fatalf("%s: opened %v", name, got)
		}
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

// BenchmarkAppendOpen opens one message of 1 and of 8 records — the
// sync-durable shape's batch, which took eight opens when each record was a
// message of its own.
func BenchmarkAppendOpen(b *testing.B) {
	key, _ := NewRandomKey()
	s, _ := NewSealer(key)
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			cts, _ := s.SealBatch(mixedBatch(n))
			ct := cts[0]
			buf := make([]byte, 0, n*record.EncodedSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.AppendOpen(buf, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSealBatch(b *testing.B) {
	key, _ := NewRandomKey()
	s, _ := NewSealer(key)
	rs := mixedBatch(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.SealBatch(rs); err != nil {
			b.Fatal(err)
		}
	}
}
