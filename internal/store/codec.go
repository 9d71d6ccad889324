package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"

	"dpsync/internal/binfmt"
	"dpsync/internal/dp"
	"dpsync/internal/leakage"
	"dpsync/internal/record"
)

// On-disk formats. All three file kinds open with a 5-byte header (magic +
// version); every payload after the header travels in a CRC-checked frame:
//
//	WAL segment:     "DPSW" ver ( [u32 len][u32 crc32c][entry payload] )*
//	History segment: "DPSH" ver ( [u32 len][u32 crc32c][entry payload] )*
//	Snapshot file:   "DPSS" ver   [u32 len][u32 crc32c][snapshot payload]
//
// The frame layout deliberately mirrors internal/wire's length-prefixed
// binary codec (bounds-checked cursor, typed errors, count-vs-remaining
// sanity checks before allocation); the added CRC is what lets recovery
// tell a torn tail from silent corruption.
//
// History segments carry the same entry frames the WAL does, but they are
// the *cold tier*: committed batches spilled out of gateway RAM, referenced
// by snapshots through SegmentRef manifests (segment id, byte offset, run
// length, run CRC) instead of being re-serialized into every snapshot.

const (
	// walVersion / histVersion / snapVersion are the current on-disk version
	// bytes. The snapshot format moved to v2 when it became a manifest
	// (tiered history: segment refs + inline tail) instead of an inline
	// re-serialization of the whole ingest history; v1 snapshots are still
	// readable (everything loads as tail) so existing stores upgrade in
	// place — the first compaction rewrites them as v2.
	walVersion    = 1
	histVersion   = 1
	snapVersion   = 2
	snapVersionV1 = 1
	// maxEntrySize bounds one WAL entry frame. A sync batch is bounded by
	// the wire layer's 16 MiB frame cap; the entry adds small metadata.
	maxEntrySize = 20 << 20
	// maxSnapshotSize bounds one snapshot payload (a whole shard's tenants).
	maxSnapshotSize = 1 << 30
	// maxOwnerLen mirrors wire.MaxOwnerLen: owner IDs are one-byte-length
	// routing keys everywhere in the system.
	maxOwnerLen = 255
	// segmentRefSize is the encoded size of one SegmentRef (seg + off + len
	// + crc + firstTick + count).
	segmentRefSize = 8 + 8 + 4 + 4 + 8 + 4
)

var (
	walMagic  = [4]byte{'D', 'P', 'S', 'W'}
	histMagic = [4]byte{'D', 'P', 'S', 'H'}
	snapMagic = [4]byte{'D', 'P', 'S', 'S'}
)

// crcTable is Castagnoli, the polynomial with hardware support on the
// platforms this serves from.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptSegment wraps every decoding failure that is *not* a plain torn
// tail: CRC mismatches, impossible lengths, malformed payloads. Recovery
// stops at the longest valid prefix and reports the segment.
var ErrCorruptSegment = errors.New("store: corrupt segment")

// ErrTornTail marks a segment that ends mid-frame — the expected shape of a
// crash during an uncommitted write. Recovery treats it as a clean end of
// log (the lost suffix was never acknowledged to any client).
var ErrTornTail = errors.New("store: torn segment tail")

// ErrStoreClosed is returned for appends and rotations against a closed (or
// killed) store; pending entries abandoned by Kill report it too.
var ErrStoreClosed = errors.New("store: closed")

// Charge names one dp.Budget expenditure carried by a sync entry, so crash
// recovery can re-spend exactly what the original run spent — never what a
// later configuration would charge.
type Charge struct {
	Name string
	Eps  float64
	Rule dp.CompositionRule
}

// Batch is one durable ingest: the sealed ciphertexts an owner uploaded at
// logical tick Tick (the owner's upload sequence number), plus the budget
// charge the sync incurred. Batches are the unit of both WAL entries and
// snapshot history — replaying them in tick order reconstructs the tenant's
// sealed store, transcript, clock, and ledger.
//
// One encoding per entry: the CRC frame encodeEntryFrame builds is an entry's
// canonical form on the WAL, in history segments and on the replication stream
// alike, so a batch carries that frame by reference once it exists and every
// later writer wraps it instead of encoding again (Entry.Frame). Two places
// set it: SyncEntry, where the gateway's connection reader decodes a live
// sync straight into its frame — the only encode that sync ever gets — and
// the frame decoders (DecodeEntryFrame, segment scans, StreamHistory), which
// have just CRC-verified the bytes they parsed. In both cases Sealed aliases
// the frame, so carrying it pins nothing beside it. A hand-built batch, or
// one decoded from a snapshot's inline tail,
// carries none and is encoded when first written. A batch
// is immutable once it carries a frame: derive a different one by building a
// fresh literal, which carries nothing.
type Batch struct {
	Tick   uint64
	Setup  bool
	Flush  bool
	Sealed [][]byte
	Charge Charge

	frame []byte
}

// Entry is one WAL record: a batch tagged with its owner namespace.
type Entry struct {
	Owner string
	Batch Batch
}

// Frame returns e's canonical CRC frame — byte for byte what EncodeEntryFrame
// renders: the frame its batch carries, wrapped without touching a
// ciphertext, or a fresh encoding for a batch that carries none. The carried
// frame is never trusted blindly: unless its length is exactly what e encodes
// to and it names e's owner and tick, it is ignored and e is encoded. Only an
// encode can fail.
func (e Entry) Frame() ([]byte, error) {
	f, _, err := e.canonical()
	return f, err
}

// canonical is Frame, also reporting whether the frame is the carried one.
func (e Entry) canonical() (frame []byte, carried bool, err error) {
	f, at := e.Batch.frame, 8+2+len(e.Owner)
	if len(f) == at+batchSize(e.Batch) && string(f[10:at]) == e.Owner && binary.BigEndian.Uint64(f[at:]) == e.Batch.Tick {
		return f, true, nil
	}
	f, err = encodeEntryFrame(e)
	return f, false, err
}

// SegmentRef names one contiguous run of an owner's batches inside a sealed
// history segment: snapshots carry these instead of re-serializing spilled
// history — 36 bytes a run, every rotation, where the batches would be their
// whole size — and recovery can stream the run back without materializing
// it. Off/Len bound the exact byte range of the run's
// frames; CRC is Castagnoli over that whole range (frame headers included),
// so a manifest that points at the wrong bytes is caught before replay
// trusts them. FirstTick/Count pin the run's position in the owner's
// contiguous tick sequence.
type SegmentRef struct {
	Seg       uint64
	Off       uint64
	Len       uint32
	CRC       uint32
	FirstTick uint64
	Count     uint32
}

// lastTick returns the tick of the run's final batch.
func (r SegmentRef) lastTick() uint64 { return r.FirstTick + uint64(r.Count) - 1 }

// OwnerState is one tenant's recovered (or snapshot-bound) durable state.
// The ingest history is tiered: Spilled references runs of committed batches
// living in sealed history segments on disk (tick order, contiguous from
// tick 1), and Tail holds the most recent batches inline (the in-RAM
// window). Together they cover ticks 1..Clock exactly; iterate them with
// Store.StreamHistory, which never materializes the spilled tier.
type OwnerState struct {
	Owner string
	// Clock is the committed logical clock: the tick of the last applied
	// batch, equal to the total history length (spilled + tail).
	Clock uint64
	// Events is the committed adversary-view transcript.
	Events []leakage.Event
	// Budget is the committed privacy ledger.
	Budget *dp.Budget
	// Spilled references the cold history runs, in tick order.
	Spilled []SegmentRef
	// Tail is the hot history suffix, inline and in tick order.
	Tail []Batch
}

// Batch flag bits.
const (
	batchFlagSetup = 1 << iota
	batchFlagFlush
)

// appendBatch serializes a batch (shared by entries and snapshots).
func appendBatch(b []byte, bt Batch) ([]byte, error) {
	b, err := appendBatchHead(b, bt, len(bt.Sealed))
	if err != nil {
		return nil, err
	}
	for _, ct := range bt.Sealed {
		b = binfmt.AppendU32(b, uint32(len(ct)))
		b = append(b, ct...)
	}
	return b, nil
}

// appendBatchHead serializes everything of a batch that precedes its
// ciphertexts — tick, flags, charge, and n, the count of ciphertexts that
// follow, each behind its 4-byte length.
func appendBatchHead(b []byte, bt Batch, n int) ([]byte, error) {
	if len(bt.Charge.Name) > math.MaxUint16 {
		return nil, fmt.Errorf("store: charge name %d bytes exceeds %d", len(bt.Charge.Name), math.MaxUint16)
	}
	var flags byte
	if bt.Setup {
		flags |= batchFlagSetup
	}
	if bt.Flush {
		flags |= batchFlagFlush
	}
	b = binfmt.AppendU64(b, bt.Tick)
	b = append(b, flags)
	b = binfmt.AppendU16(b, uint16(len(bt.Charge.Name)))
	b = append(b, bt.Charge.Name...)
	b = binfmt.AppendF64(b, bt.Charge.Eps)
	b = append(b, byte(bt.Charge.Rule))
	return binfmt.AppendU32(b, uint32(n)), nil
}

func readBatch(r *binfmt.Reader) Batch {
	var bt Batch
	bt.Tick = r.U64("batch tick")
	flags := r.U8("batch flags")
	if flags&^(batchFlagSetup|batchFlagFlush) != 0 {
		r.Reject("unknown batch flag bits %#x", flags)
	}
	bt.Setup = flags&batchFlagSetup != 0
	bt.Flush = flags&batchFlagFlush != 0
	nameLen := int(r.U16("charge name length"))
	bt.Charge.Name = string(r.Bytes(nameLen, "charge name"))
	bt.Charge.Eps = r.F64("charge epsilon")
	if !(bt.Charge.Eps >= 0) || math.IsInf(bt.Charge.Eps, 1) {
		// A charge the ledger would refuse is corruption, not data: reject
		// here so recovery never fails halfway through a replay.
		r.Reject("invalid charge epsilon")
	}
	bt.Charge.Rule = dp.CompositionRule(r.U8("charge rule"))
	if bt.Charge.Rule != dp.Sequential && bt.Charge.Rule != dp.Parallel {
		r.Reject("unknown composition rule %d", int(bt.Charge.Rule))
	}
	n := int(r.U32("sealed count"))
	// Each ciphertext costs at least its 4-byte length prefix: a claimed
	// count larger than remaining/4 is a lie — reject before allocating.
	if n > r.Remaining()/4 {
		r.Fail("sealed count")
		return bt
	}
	if n > 0 {
		bt.Sealed = make([][]byte, n)
		for i := 0; i < n; i++ {
			ctLen := int(r.U32("ciphertext length"))
			bt.Sealed[i] = r.Bytes(ctLen, "ciphertext")
		}
	}
	return bt
}

// entryKind bytes. 0 is deliberately unused so an all-zero frame cannot
// decode as a valid entry.
const entryKindSync = 1

// encodeEntryFrame renders one WAL entry as a complete CRC frame, ready to
// append to a segment. It always encodes — Entry.Frame is the caller-facing
// form that wraps a carried frame instead — and the frame is built in place:
// one allocation of exactly the frame's size, the 8-byte header reserved up
// front and patched once the payload behind it is written.
func encodeEntryFrame(e Entry) ([]byte, error) {
	frame, err := beginEntryFrame(e.Owner, batchSize(e.Batch))
	if err != nil {
		return nil, err
	}
	if frame, err = appendBatch(frame, e.Batch); err != nil {
		return nil, err
	}
	return endEntryFrame(frame), nil
}

// beginEntryFrame allocates the frame of an entry of owner whose batch
// encodes to batchBytes — exactly its size, the 8-byte header reserved — and
// writes the entry kind and the owner.
func beginEntryFrame(owner string, batchBytes int) ([]byte, error) {
	if len(owner) == 0 || len(owner) > maxOwnerLen {
		return nil, fmt.Errorf("store: owner id length %d outside [1, %d]", len(owner), maxOwnerLen)
	}
	size := 2 + len(owner) + batchBytes
	if size > maxEntrySize {
		return nil, fmt.Errorf("store: entry payload %d bytes exceeds %d", size, maxEntrySize)
	}
	frame := make([]byte, 8, 8+size)
	frame = append(frame, entryKindSync, byte(len(owner)))
	return append(frame, owner...), nil
}

// endEntryFrame patches the header of a frame whose payload is written: its
// length and its CRC.
func endEntryFrame(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-8))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], crcTable))
	return frame
}

// SyncEntry is a live sync's entry, built where the sync is decoded: owner's
// batch at tick, with its setup flag and charge, holding the ciphertexts
// block carries back to back, width bytes each (a request's uniform-width
// block; width 0 and an empty block for a batch of none). The entry's
// canonical frame is written straight from block — one allocation of exactly
// the frame's size, and one for the ciphertext headers — and the batch
// carries it with Sealed pointing into it, so block may be reused once
// SyncEntry returns and every later writer (the WAL append, the spill, the
// replication hub) wraps the frame instead of encoding the entry again.
func SyncEntry(owner string, tick uint64, setup bool, charge Charge, width int, block []byte) (Entry, error) {
	n := 0
	if width > 0 {
		n = len(block) / width
	}
	if width < 0 || n*width != len(block) {
		return Entry{}, fmt.Errorf("store: a %d-byte block is no whole number of %d-byte ciphertexts", len(block), width)
	}
	bt := Batch{Tick: tick, Setup: setup, Charge: charge}
	frame, err := beginEntryFrame(owner, batchSize(bt)+n*(4+width))
	if err != nil {
		return Entry{}, err
	}
	if frame, err = appendBatchHead(frame, bt, n); err != nil {
		return Entry{}, err
	}
	if n > 0 {
		bt.Sealed = make([][]byte, n)
		for i := range bt.Sealed {
			frame = binfmt.AppendU32(frame, uint32(width))
			at := len(frame)
			frame = append(frame, block[i*width:(i+1)*width]...)
			bt.Sealed[i] = frame[at:len(frame):len(frame)]
		}
	}
	bt.frame = endEntryFrame(frame)
	return Entry{Owner: owner, Batch: bt}, nil
}

// EncodeEntryFrame renders one entry as a complete CRC frame — the exact
// bytes Append would write to a WAL segment, encoded from e's fields whatever
// its batch carries. The serving stack calls Entry.Frame instead (a CI guard
// keeps it that way); this is for tools and tests that want an encoding.
func EncodeEntryFrame(e Entry) ([]byte, error) { return encodeEntryFrame(e) }

// DecodeEntryFrame parses one complete CRC frame ([u32 len][u32 crc]
// [payload]) back into its entry, rejecting truncated or trailing bytes,
// CRC mismatches, and malformed payloads with ErrCorruptSegment. It is the
// receiving half of EncodeEntryFrame: a replication follower verifies every
// shipped frame with it before appending the same bytes to its own log — the
// returned entry's batch carries frame, so that append wraps it.
func DecodeEntryFrame(frame []byte) (Entry, error) {
	if len(frame) < 8 {
		return Entry{}, fmt.Errorf("%w: short entry frame header", ErrCorruptSegment)
	}
	n := binary.BigEndian.Uint32(frame)
	crc := binary.BigEndian.Uint32(frame[4:])
	if n == 0 || n > maxEntrySize {
		return Entry{}, fmt.Errorf("%w: frame length %d outside (0, %d]", ErrCorruptSegment, n, maxEntrySize)
	}
	if len(frame) != 8+int(n) {
		return Entry{}, fmt.Errorf("%w: frame claims %d payload bytes, has %d", ErrCorruptSegment, n, len(frame)-8)
	}
	if crc32.Checksum(frame[8:], crcTable) != crc {
		return Entry{}, fmt.Errorf("%w: frame CRC mismatch", ErrCorruptSegment)
	}
	return decodeFramed(frame)
}

// batchSize is the exact number of bytes appendBatch writes for bt.
func batchSize(bt Batch) int {
	n := 8 + 1 + 2 + len(bt.Charge.Name) + 8 + 1 + 4
	for _, ct := range bt.Sealed {
		n += 4 + len(ct)
	}
	return n
}

// decodeFramed parses one whole frame whose length and CRC the caller has
// checked; the entry's batch carries frame from then on.
func decodeFramed(frame []byte) (Entry, error) {
	e, err := decodeEntry(frame[8:])
	if err != nil {
		return Entry{}, err
	}
	e.Batch.frame = frame
	return e, nil
}

// decodeEntry parses one entry payload. Malformed input returns an error
// wrapping ErrCorruptSegment and never panics or over-allocates.
func decodeEntry(payload []byte) (Entry, error) {
	if len(payload) == 0 {
		return Entry{}, fmt.Errorf("%w: empty entry payload", ErrCorruptSegment)
	}
	r := binfmt.NewReader(payload, ErrCorruptSegment)
	kind := r.U8("entry kind")
	if r.Err() == nil && kind != entryKindSync {
		return Entry{}, fmt.Errorf("%w: unknown entry kind %d", ErrCorruptSegment, kind)
	}
	var e Entry
	ownerLen := int(r.U8("owner length"))
	e.Owner = string(r.Bytes(ownerLen, "owner id"))
	e.Batch = readBatch(&r)
	if err := r.Done("wal entry"); err != nil {
		return Entry{}, err
	}
	if e.Owner == "" {
		return Entry{}, fmt.Errorf("%w: empty owner id", ErrCorruptSegment)
	}
	if e.Batch.Tick == 0 {
		return Entry{}, fmt.Errorf("%w: zero batch tick", ErrCorruptSegment)
	}
	return e, nil
}

// scanFrames walks CRC frames until the bytes run out, returning the
// longest valid prefix of entries; err is nil for a clean end, ErrTornTail
// for a mid-frame end (the normal post-crash shape), and ErrCorruptSegment
// for a CRC mismatch or malformed payload. Shared by the WAL and history
// segment decoders; it never panics, whatever the bytes claim.
func scanFrames(rest []byte) (entries []Entry, err error) {
	for len(rest) > 0 {
		if len(rest) < 8 {
			return entries, fmt.Errorf("%w: %d trailing bytes", ErrTornTail, len(rest))
		}
		n := binary.BigEndian.Uint32(rest)
		crc := binary.BigEndian.Uint32(rest[4:])
		if n == 0 || n > maxEntrySize {
			return entries, fmt.Errorf("%w: frame length %d outside (0, %d]", ErrCorruptSegment, n, maxEntrySize)
		}
		if len(rest) < 8+int(n) {
			return entries, fmt.Errorf("%w: frame claims %d bytes, %d remain", ErrTornTail, n, len(rest)-8)
		}
		frame := rest[: 8+int(n) : 8+int(n)]
		if crc32.Checksum(frame[8:], crcTable) != crc {
			return entries, fmt.Errorf("%w: frame CRC mismatch", ErrCorruptSegment)
		}
		e, derr := decodeFramed(frame)
		if derr != nil {
			return entries, derr
		}
		entries = append(entries, e)
		rest = rest[8+int(n):]
	}
	return entries, nil
}

// checkSegmentHeader validates a 5-byte magic+version header. A zero-byte
// image is a file created but never written — a crash between create and
// header flush — and reports ok=false with a nil error (treat as empty).
func checkSegmentHeader(data []byte, magic [4]byte, version byte, kind string) (ok bool, err error) {
	if len(data) < len(magic)+1 {
		if len(data) == 0 {
			return false, nil
		}
		return false, fmt.Errorf("%w: short %s header", ErrTornTail, kind)
	}
	if string(data[:4]) != string(magic[:]) {
		return false, fmt.Errorf("%w: bad %s magic %q", ErrCorruptSegment, kind, data[:4])
	}
	if data[4] != version {
		return false, fmt.Errorf("%w: unknown %s version %d", ErrCorruptSegment, kind, data[4])
	}
	return true, nil
}

// decodeSegment parses a whole WAL segment image: header, then frames until
// the bytes run out (longest-valid-prefix semantics, see scanFrames).
func decodeSegment(data []byte) ([]Entry, error) {
	ok, err := checkSegmentHeader(data, walMagic, walVersion, "segment")
	if !ok || err != nil {
		return nil, err
	}
	return scanFrames(data[5:])
}

// decodeHistorySegment parses a whole history segment image with the same
// longest-valid-prefix semantics as the WAL decoder. Recovery proper reads
// history by SegmentRef ranges (streamRun), not by scanning; this decoder is
// the salvage/inspection path and the fuzz surface for the shared frame
// layout under the history header.
func decodeHistorySegment(data []byte) ([]Entry, error) {
	ok, err := checkSegmentHeader(data, histMagic, histVersion, "history segment")
	if !ok || err != nil {
		return nil, err
	}
	return scanFrames(data[5:])
}

// segmentHeader returns the 5-byte header opening every WAL segment.
func segmentHeader() []byte {
	return append(append([]byte(nil), walMagic[:]...), walVersion)
}

// historyHeader returns the 5-byte header opening every history segment.
func historyHeader() []byte {
	return append(append([]byte(nil), histMagic[:]...), histVersion)
}

// validateHistoryShape checks the tiered-history invariant one OwnerState
// must satisfy: spilled runs chain contiguously from tick 1, the tail
// continues where they end, and the clock equals the final tick. Both the
// encoder (catching gateway bookkeeping bugs before they reach disk) and
// the decoder (rejecting manifests that would replay an impossible history)
// enforce it.
func validateHistoryShape(st *OwnerState) error {
	next := uint64(1)
	for i, ref := range st.Spilled {
		if ref.Count == 0 || ref.Len == 0 {
			return fmt.Errorf("empty segment ref %d", i)
		}
		if ref.FirstTick != next {
			return fmt.Errorf("segment ref %d starts at tick %d, want %d", i, ref.FirstTick, next)
		}
		next += uint64(ref.Count)
	}
	for i, bt := range st.Tail {
		if bt.Tick != next {
			return fmt.Errorf("tail batch %d at tick %d, want %d", i, bt.Tick, next)
		}
		next++
	}
	if st.Clock != next-1 {
		return fmt.Errorf("clock %d does not match history end %d", st.Clock, next-1)
	}
	return nil
}

// snapHeaderSize is the snapshot file header: magic, version, payload length
// and payload CRC.
const snapHeaderSize = 4 + 1 + 4 + 4

// encodeSnapshot renders a shard's tenants as one snapshot file image
// (header + single CRC frame) appended to dst[:0] — Rotate hands in the
// buffer its shard keeps between rotations, so a steady-state image is
// written in one pass with no growth and no second copy. Owners are emitted
// in sorted order so equal states produce equal bytes. History travels as a
// manifest: segment refs for the spilled tier, never the spilled batches —
// but every owner's clock, ledger, whole transcript, refs and inline tail are
// written every time, so an image costs O(owners × (tail + transcript +
// refs)) however little changed since the last one. That is why rotations
// are spaced by bytes (Store.RotateDue), not by a fixed entry count.
func encodeSnapshot(dst []byte, owners []OwnerState) ([]byte, error) {
	sorted := make([]*OwnerState, len(owners))
	for i := range owners {
		sorted[i] = &owners[i]
	}
	slices.SortFunc(sorted, func(a, b *OwnerState) int { return strings.Compare(a.Owner, b.Owner) })
	// The header's length and CRC are patched in once the payload is behind it.
	out := append(dst[:0], snapMagic[:]...)
	out = append(out, snapVersion, 0, 0, 0, 0, 0, 0, 0, 0)
	out = binfmt.AppendU32(out, uint32(len(sorted)))
	for _, st := range sorted {
		if len(st.Owner) == 0 || len(st.Owner) > maxOwnerLen {
			return nil, fmt.Errorf("store: owner id length %d outside [1, %d]", len(st.Owner), maxOwnerLen)
		}
		if err := validateHistoryShape(st); err != nil {
			return nil, fmt.Errorf("store: snapshot history for %q: %v", st.Owner, err)
		}
		out = append(out, byte(len(st.Owner)))
		out = append(out, st.Owner...)
		out = binfmt.AppendU64(out, st.Clock)
		ledgerAt := len(out)
		out = append(out, 0, 0, 0, 0)
		budget := st.Budget
		if budget == nil {
			budget = dp.NewBudget()
		}
		var err error
		if out, err = budget.AppendBinary(out); err != nil {
			return nil, fmt.Errorf("store: snapshot ledger for %q: %w", st.Owner, err)
		}
		binary.BigEndian.PutUint32(out[ledgerAt:], uint32(len(out)-ledgerAt-4))
		out = binfmt.AppendU32(out, uint32(len(st.Events)))
		for _, ev := range st.Events {
			out = binfmt.AppendU64(out, uint64(ev.Tick))
			out = binfmt.AppendU32(out, uint32(ev.Volume))
			var f byte
			if ev.Flush {
				f = 1
			}
			out = append(out, f)
		}
		out = binfmt.AppendU32(out, uint32(len(st.Spilled)))
		for _, ref := range st.Spilled {
			out = binfmt.AppendU64(out, ref.Seg)
			out = binfmt.AppendU64(out, ref.Off)
			out = binfmt.AppendU32(out, ref.Len)
			out = binfmt.AppendU32(out, ref.CRC)
			out = binfmt.AppendU64(out, ref.FirstTick)
			out = binfmt.AppendU32(out, ref.Count)
		}
		out = binfmt.AppendU32(out, uint32(len(st.Tail)))
		for _, bt := range st.Tail {
			if out, err = appendBatch(out, bt); err != nil {
				return nil, err
			}
		}
	}
	payload := out[snapHeaderSize:]
	if len(payload) > maxSnapshotSize {
		return nil, fmt.Errorf("store: snapshot payload %d bytes exceeds %d", len(payload), maxSnapshotSize)
	}
	binary.BigEndian.PutUint32(out[5:], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[9:], crc32.Checksum(payload, crcTable))
	return out, nil
}

// decodeSnapshot parses a snapshot file image — the current v2 manifest
// format, or the legacy v1 format (no spill tier: the whole history loads
// as tail, and the next compaction rewrites the file as v2). Any
// malformation — including a CRC mismatch from a torn snapshot write that
// escaped the tmp+rename discipline, or a manifest whose history shape
// could not have been written by a correct run — rejects the whole file
// (snapshots are atomic units; a half snapshot must not load as a smaller
// state).
func decodeSnapshot(data []byte) ([]OwnerState, error) {
	if len(data) < snapHeaderSize {
		return nil, fmt.Errorf("%w: short snapshot header", ErrCorruptSegment)
	}
	if string(data[:4]) != string(snapMagic[:]) {
		return nil, fmt.Errorf("%w: bad snapshot magic %q", ErrCorruptSegment, data[:4])
	}
	version := data[4]
	if version != snapVersion && version != snapVersionV1 {
		return nil, fmt.Errorf("%w: unknown snapshot version %d", ErrCorruptSegment, version)
	}
	n := binary.BigEndian.Uint32(data[5:9])
	crc := binary.BigEndian.Uint32(data[9:snapHeaderSize])
	if int(n) != len(data)-snapHeaderSize {
		return nil, fmt.Errorf("%w: snapshot claims %d payload bytes, has %d", ErrCorruptSegment, n, len(data)-snapHeaderSize)
	}
	payload := data[snapHeaderSize:]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorruptSegment)
	}
	r := binfmt.NewReader(payload, ErrCorruptSegment)
	count := int(r.U32("owner count"))
	// Each owner costs ≥ 22 bytes (v1) / 26 bytes (v2): lengths + clock +
	// empty sections.
	minOwner := 26
	if version == snapVersionV1 {
		minOwner = 22
	}
	if count > r.Remaining()/minOwner {
		return nil, fmt.Errorf("%w: owner count %d exceeds snapshot", ErrCorruptSegment, count)
	}
	out := make([]OwnerState, 0, count)
	for i := 0; i < count; i++ {
		var st OwnerState
		ownerLen := int(r.U8("owner length"))
		st.Owner = string(r.Bytes(ownerLen, "owner id"))
		st.Clock = r.U64("owner clock")
		ledgerLen := int(r.U32("ledger length"))
		ledger := r.Bytes(ledgerLen, "ledger")
		nEvents := int(r.U32("event count"))
		if nEvents > r.Remaining()/13 {
			r.Fail("event count")
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		st.Budget = dp.NewBudget()
		if err := st.Budget.UnmarshalBinary(ledger); err != nil {
			return nil, fmt.Errorf("%w: owner %q ledger: %v", ErrCorruptSegment, st.Owner, err)
		}
		if nEvents > 0 {
			st.Events = make([]leakage.Event, nEvents)
			for j := range st.Events {
				st.Events[j] = leakage.Event{
					Tick:   record.Tick(r.U64("event tick")),
					Volume: int(r.U32("event volume")),
					Flush:  r.U8("event flush") != 0,
				}
			}
		}
		if version >= snapVersion {
			nRefs := int(r.U32("segment ref count"))
			if nRefs > r.Remaining()/segmentRefSize {
				r.Fail("segment ref count")
			}
			if r.Err() != nil {
				return nil, r.Err()
			}
			if nRefs > 0 {
				st.Spilled = make([]SegmentRef, nRefs)
				for j := range st.Spilled {
					st.Spilled[j] = SegmentRef{
						Seg:       r.U64("ref segment"),
						Off:       r.U64("ref offset"),
						Len:       r.U32("ref length"),
						CRC:       r.U32("ref crc"),
						FirstTick: r.U64("ref first tick"),
						Count:     r.U32("ref batch count"),
					}
				}
			}
		}
		nTail := int(r.U32("tail batch count"))
		if nTail > r.Remaining()/18 {
			r.Fail("tail batch count")
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if nTail > 0 {
			st.Tail = make([]Batch, nTail)
			for j := range st.Tail {
				st.Tail[j] = readBatch(&r)
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if st.Owner == "" {
			return nil, fmt.Errorf("%w: empty owner id in snapshot", ErrCorruptSegment)
		}
		if err := validateHistoryShape(&st); err != nil {
			return nil, fmt.Errorf("%w: owner %q manifest: %v", ErrCorruptSegment, st.Owner, err)
		}
		out = append(out, st)
	}
	if err := r.Done("snapshot"); err != nil {
		return nil, err
	}
	return out, nil
}
