// Package binfmt is the one big-endian field codec under every hand-rolled
// binary format in the system: the client/gateway frame payloads and the
// replication stream (internal/wire), and the WAL, history-segment, and
// snapshot payloads (internal/store). Encoders append fixed-width fields,
// and minimal-form varints where a counter is usually small (the client/
// gateway payloads only); decoders walk a bounds-checked Reader that wraps
// every failure in the caller's own sentinel, so errors.Is keeps telling a
// malformed wire frame (wire.ErrBadFrame) from a corrupt segment
// (store.ErrCorruptSegment).
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader is a bounds-checked cursor over a payload. The first failed read
// latches the error; subsequent reads return zero values, so decoders read a
// whole struct and check Err (or Done) once.
type Reader struct {
	b        []byte
	err      error
	sentinel error
}

// NewReader returns a cursor over b whose failures wrap sentinel.
func NewReader(b []byte, sentinel error) Reader {
	return Reader{b: b, sentinel: sentinel}
}

// Fail latches a truncation error naming what, unless one is latched
// already — for decoders that detect a lying element count themselves.
func (r *Reader) Fail(what string) { r.Reject("truncated %s", what) }

// Reject latches a semantic decoding error (a field that parsed but holds a
// value the format forbids), unless an error is latched already.
func (r *Reader) Reject(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.sentinel, fmt.Sprintf(format, args...))
	}
}

// U8 reads one byte; what names the field in the truncation error.
func (r *Reader) U8(what string) byte {
	if r.err != nil || len(r.b) < 1 {
		r.Fail(what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16(what string) uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.Fail(what)
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32(what string) uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.Fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64(what string) uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.Fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// F64 reads a float64 stored as its IEEE-754 bits.
func (r *Reader) F64(what string) float64 { return math.Float64frombits(r.U64(what)) }

// Uvarint reads a base-128 varint (encoding/binary's layout) and accepts
// only the one shortest encoding of its value: a varint padded with a zero
// final byte, or one running past 64 bits, is rejected, so a format built on
// it keeps one byte string per message.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) > 0 && r.b[0] < 0x80 { // one byte, the common case
		v := r.b[0]
		r.b = r.b[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.Fail(what)
		return 0
	case n < 0:
		r.Reject("%s overflows 64 bits", what)
		return 0
	case r.b[n-1] == 0: // n > 1 here: a longer spelling of a smaller value
		r.Reject("%s is a padded varint", what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Bytes returns the next n bytes, aliasing the payload (capacity clipped so
// an append cannot scribble over what follows).
func (r *Reader) Bytes(n int, what string) []byte {
	if r.err != nil || n < 0 || len(r.b) < n {
		r.Fail(what)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Remaining returns how many bytes are left — decoders use it to sanity-
// check claimed element counts before allocating.
func (r *Reader) Remaining() int { return len(r.b) }

// Err returns the latched truncation error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or an error if bytes trail the message
// named by what.
func (r *Reader) Done(what string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %s", r.sentinel, len(r.b), what)
	}
	return nil
}

// AppendU16 appends v big-endian.
func AppendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// AppendU32 appends v big-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends v big-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendUvarint appends v as a base-128 varint in its shortest form, one to
// ten bytes (Reader.Uvarint accepts no other).
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendF64 appends v as its IEEE-754 bits, big-endian.
func AppendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}
