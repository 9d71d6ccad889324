package dp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Budget serialization: the gateway's durability subsystem (internal/store)
// persists per-tenant ledgers inside snapshots, and crash recovery must
// reconstruct a ledger bit-identical to the one an uninterrupted run would
// hold. The encoding is therefore deterministic — charges are emitted in
// sorted name order, never map order — so two ledgers with the same charges
// marshal to the same bytes and equality can be checked on the wire form.
//
// Format (big-endian, version-prefixed):
//
//	u8  version (ledgerVersion)
//	u32 charge count
//	per charge, sorted by name:
//	  u16 name length, name bytes
//	  f64 epsilon
//	  u8  composition rule
//	  u64 uses
//
// The decoder is strict: truncated input, trailing bytes, invalid rules,
// duplicate names, and non-finite epsilons are all rejected with errors
// wrapping ErrBadLedger, so a corrupted snapshot cannot silently load as an
// emptier (i.e. privacy-underreporting) ledger.

// ledgerVersion is the current binary-encoding version byte.
const ledgerVersion = 1

// maxLedgerCharges bounds the decoded charge count so a corrupted length
// field cannot drive a huge allocation (each charge costs ≥ 19 bytes on the
// wire — enforced against the input length below — and real ledgers hold a
// handful of named mechanisms).
const maxLedgerCharges = 1 << 20

// ErrBadLedger wraps every Budget deserialization failure.
var ErrBadLedger = errors.New("dp: malformed budget ledger")

// MarshalBinary implements encoding.BinaryMarshaler with a deterministic
// byte encoding: equal ledgers (same charges, epsilons, rules, use counts)
// always produce equal bytes.
func (b *Budget) MarshalBinary() ([]byte, error) { return b.AppendBinary(nil) }

// AppendBinary implements encoding.BinaryAppender: it appends exactly the
// bytes MarshalBinary returns to dst. A snapshot encoder writes every
// tenant's ledger straight into its image this way; into a buffer with room,
// a ledger of up to eight charges (real ones hold two or three named
// mechanisms) allocates nothing.
func (b *Budget) AppendBinary(dst []byte) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var few [8]string
	names := few[:0]
	for n := range b.charges {
		if len(n) > math.MaxUint16 {
			return nil, fmt.Errorf("dp: budget charge name %d bytes exceeds %d", len(n), math.MaxUint16)
		}
		names = append(names, n)
	}
	slices.Sort(names)
	dst = append(dst, ledgerVersion)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(names)))
	for _, n := range names {
		c := b.charges[n]
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(n)))
		dst = append(dst, n...)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.eps))
		dst = append(dst, byte(c.rule))
		dst = binary.BigEndian.AppendUint64(dst, uint64(c.uses))
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It replaces the
// receiver's charges wholesale; on error the receiver is left unchanged.
func (b *Budget) UnmarshalBinary(data []byte) error {
	fail := func(what string) error {
		return fmt.Errorf("%w: %s", ErrBadLedger, what)
	}
	if len(data) < 5 {
		return fail("truncated header")
	}
	if data[0] != ledgerVersion {
		return fmt.Errorf("%w: unknown version %d", ErrBadLedger, data[0])
	}
	count := binary.BigEndian.Uint32(data[1:5])
	if count > maxLedgerCharges {
		return fmt.Errorf("%w: charge count %d exceeds bound", ErrBadLedger, count)
	}
	rest := data[5:]
	// Each charge costs at least 19 bytes on the wire (2-byte name length +
	// 8-byte epsilon + 1-byte rule + 8-byte uses): a count claiming more is
	// a lie — reject before sizing the map by it.
	if int(count) > len(rest)/19 {
		return fmt.Errorf("%w: charge count %d exceeds input", ErrBadLedger, count)
	}
	charges := make(map[string]*charge, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 2 {
			return fail("truncated charge name length")
		}
		nameLen := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < nameLen+17 {
			return fail("truncated charge")
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		eps := math.Float64frombits(binary.BigEndian.Uint64(rest))
		rule := CompositionRule(rest[8])
		uses := binary.BigEndian.Uint64(rest[9:17])
		rest = rest[17:]
		if !(eps >= 0) || math.IsInf(eps, 1) {
			return fmt.Errorf("%w: charge %q: invalid epsilon", ErrBadLedger, name)
		}
		if rule != Sequential && rule != Parallel {
			return fmt.Errorf("%w: charge %q: unknown rule %d", ErrBadLedger, name, int(rule))
		}
		if uses == 0 || uses > math.MaxInt32 {
			return fmt.Errorf("%w: charge %q: implausible use count %d", ErrBadLedger, name, uses)
		}
		if _, dup := charges[name]; dup {
			return fmt.Errorf("%w: duplicate charge %q", ErrBadLedger, name)
		}
		charges[name] = &charge{eps: eps, rule: rule, uses: int(uses)}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadLedger, len(rest))
	}
	b.mu.Lock()
	b.charges = charges
	b.mu.Unlock()
	return nil
}

// Clone returns an independent copy of the ledger.
func (b *Budget) Clone() *Budget {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := NewBudget()
	for n, c := range b.charges {
		cc := *c
		out.charges[n] = &cc
	}
	return out
}

// Equal reports whether two ledgers record exactly the same charges with the
// same epsilons, rules, and use counts — the no-double-spend check the
// crash-recovery differential tests pin. Each ledger is snapshotted under
// its own lock (never both at once), so Equal is deadlock-free in either
// call direction.
func (b *Budget) Equal(o *Budget) bool {
	if b == nil || o == nil {
		return b == o
	}
	if b == o {
		return true
	}
	bc, oc := b.snapshotCharges(), o.snapshotCharges()
	if len(bc) != len(oc) {
		return false
	}
	for n, c := range bc {
		other, ok := oc[n]
		if !ok || other != c {
			return false
		}
	}
	return true
}

// snapshotCharges copies the ledger contents by value under the lock.
func (b *Budget) snapshotCharges() map[string]charge {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]charge, len(b.charges))
	for n, c := range b.charges {
		out[n] = *c
	}
	return out
}
