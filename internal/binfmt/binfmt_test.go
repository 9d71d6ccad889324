package binfmt

import (
	"errors"
	"testing"
)

var errSentinel = errors.New("test: bad payload")

func TestReaderRoundTripAndErrors(t *testing.T) {
	b := AppendU16(nil, 0xBEEF)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 1<<63|7)
	b = AppendF64(b, -2.5)
	b = append(b, 9, 'a', 'b')

	r := NewReader(b, errSentinel)
	if r.U16("a") != 0xBEEF || r.U32("b") != 0xDEADBEEF || r.U64("c") != 1<<63|7 || r.F64("d") != -2.5 || r.U8("e") != 9 {
		t.Fatal("fields did not round-trip")
	}
	if r.Remaining() != 2 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
	if err := r.Done("msg"); !errors.Is(err, errSentinel) || err.Error() != "test: bad payload: 2 trailing bytes after msg" {
		t.Fatalf("trailing bytes: %v", err)
	}
	if got := r.Bytes(2, "tail"); string(got) != "ab" || cap(got) != 2 {
		t.Fatalf("bytes = %q cap %d", got, cap(got))
	}
	if err := r.Done("msg"); err != nil {
		t.Fatalf("fully consumed payload: %v", err)
	}

	// The first failure latches and names its field; later reads return
	// zeros and cannot overwrite it, whatever they are.
	r = NewReader([]byte{1}, errSentinel)
	if r.U32("count") != 0 || r.U8("flag") != 0 || r.Bytes(-1, "blob") != nil {
		t.Fatal("reads past a failure returned data")
	}
	r.Reject("never recorded %d", 1)
	r.Fail("nor this")
	if err := r.Err(); !errors.Is(err, errSentinel) || err.Error() != "test: bad payload: truncated count" {
		t.Fatalf("latched error = %v", err)
	}
	if err := r.Done("msg"); err != r.Err() {
		t.Fatalf("Done = %v, want the latched error", err)
	}

	r = NewReader(nil, errSentinel)
	r.Reject("unknown kind %d", 7)
	if err := r.Err(); !errors.Is(err, errSentinel) || err.Error() != "test: bad payload: unknown kind 7" {
		t.Fatalf("rejected = %v", err)
	}
}

// TestUvarintIsMinimalForm pins the varint pair: every value round-trips in
// one to ten bytes, and the reader accepts only the shortest spelling — the
// property a canonical format is built on.
func TestUvarintIsMinimalForm(t *testing.T) {
	for _, tc := range []struct {
		v    uint64
		size int
	}{{0, 1}, {1, 1}, {127, 1}, {128, 2}, {16383, 2}, {16384, 3}, {1<<32 - 1, 5}, {1 << 32, 5}, {1<<63 - 1, 9}, {1 << 63, 10}, {1<<64 - 1, 10}} {
		b := append(AppendUvarint(nil, tc.v), 0xAB)
		if len(b) != tc.size+1 {
			t.Errorf("%d: %d bytes, want %d", tc.v, len(b)-1, tc.size)
		}
		r := NewReader(b, errSentinel)
		if got := r.Uvarint("v"); got != tc.v || r.Remaining() != 1 || r.Err() != nil {
			t.Errorf("%d: read %d, %d bytes left, err %v", tc.v, got, r.Remaining(), r.Err())
		}
	}
	ff9 := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	for name, tc := range map[string]struct {
		in   []byte
		want string
	}{
		"empty":              {nil, "truncated count"},
		"cut mid-value":      {[]byte{0x80}, "truncated count"},
		"zero in two bytes":  {[]byte{0x80, 0x00}, "count is a padded varint"},
		"one in three bytes": {[]byte{0x81, 0x80, 0x00}, "count is a padded varint"},
		"65 bits":            {append(append([]byte{}, ff9...), 0x02), "count overflows 64 bits"},
		"eleven bytes":       {append(append([]byte{}, ff9...), 0x81, 0x00), "count overflows 64 bits"},
	} {
		r := NewReader(tc.in, errSentinel)
		if got := r.Uvarint("count"); got != 0 || !errors.Is(r.Err(), errSentinel) || r.Err().Error() != "test: bad payload: "+tc.want {
			t.Errorf("%s: read %d, err %v; want %q", name, got, r.Err(), tc.want)
		}
		if r.U8("next") != 0 || r.Err().Error() != "test: bad payload: "+tc.want {
			t.Errorf("%s: the failure did not latch", name)
		}
	}
}
