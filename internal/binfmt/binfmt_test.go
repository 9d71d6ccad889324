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
