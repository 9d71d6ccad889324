package store

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// The tiered history layer: committed batches past the caller's in-RAM
// window are spilled to append-only, CRC-framed history segments —
// "hist-<seq>.seg" files shared by all shards, globally numbered so
// manifests stay valid across shard-count changes. A spill appends one
// contiguous run of an owner's batches and returns SegmentRefs; snapshots
// persist the refs (plus the inline tail), so a rotation never rewrites a
// spilled batch and recovery streams runs back frame by frame without ever
// materializing the spilled tier. What a rotation still writes — per owner,
// clock, the refs and up to two windows of tail — is why rotations
// are spaced by bytes (Store.RotateDue), not by a fixed entry count.
//
// Durability contract: spilled bytes are buffered. They are flushed (and in
// fsync mode fsynced, with the directory) by Rotate — or, for compaction's
// spills, by Open — *before* the snapshot manifest that references them is
// written, so a manifest on disk never points at bytes a crash could have
// lost. Between rotations the same batches are still covered by the WAL, so
// losing an un-manifested spill costs nothing.

const (
	// maxHistSegmentBytes rolls the open history segment once it grows past
	// this size, bounding single-file loss domains and keeping segment ids
	// advancing for GC.
	maxHistSegmentBytes = 64 << 20
	// maxRunBytes splits one spill into multiple refs once a run grows past
	// this size, so a streaming validator can bound how much one damaged
	// run invalidates.
	maxRunBytes = 8 << 20
)

func historySegPath(dir string, seg uint64) string {
	return filepath.Join(dir, fmt.Sprintf("hist-%08d.seg", seg))
}

// isHistoryName matches history segment file names from any era.
func isHistoryName(name string) bool {
	return strings.HasPrefix(name, "hist-") && strings.HasSuffix(name, ".seg")
}

// historySegID parses the segment sequence number out of a file name.
func historySegID(name string) (uint64, bool) {
	if !isHistoryName(name) {
		return 0, false
	}
	id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "hist-"), ".seg"), 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// histWriter is one append cursor over the store's history tier, one per
// shard, written only through Store.Spill: by compaction at Open, then by the
// shard's worker (single-producer, like WAL appends). The mutex only guards
// against the store's Kill/Close racing a late append — normal operation is
// uncontended.
type histWriter struct {
	store *Store
	mu    sync.Mutex

	seg    uint64
	f      *os.File
	w      *bufio.Writer
	off    uint64
	closed bool
	// fail latches when bytes behind an already-issued ref may have been
	// lost (a failed flush/seal). A failed writer refuses further spills
	// and — critically — fails Rotate's flush, so no manifest can ever
	// persist a ref whose bytes did not reach the file; the WAL keeps
	// covering everything until a restart.
	fail error
}

// roll seals the current segment (flush + optional fsync + close) and opens
// a fresh one under the next global sequence number.
func (hw *histWriter) roll() error {
	if hw.f != nil {
		if err := hw.seal(); err != nil {
			return err
		}
	}
	seg := hw.store.histSeq.Add(1)
	f, err := os.OpenFile(historySegPath(hw.store.dir, seg), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: history segment: %w", err)
	}
	hw.seg, hw.f, hw.off = seg, f, uint64(len(histMagic)+1)
	if hw.w == nil {
		hw.w = bufio.NewWriterSize(f, 1<<16)
	} else {
		hw.w.Reset(f)
	}
	if _, err := hw.w.Write(historyHeader()); err != nil {
		return fmt.Errorf("store: history header: %w", err)
	}
	hw.store.histSegments.Add(1)
	return nil
}

// seal flushes and closes the current segment. Sealed segments are
// immutable; their refs stay valid forever. A seal failure latches the
// writer: issued refs may name lost bytes, so nothing may persist them.
func (hw *histWriter) seal() error {
	if err := hw.w.Flush(); err != nil {
		hw.fail = fmt.Errorf("store: history flush: %w", err)
		return hw.fail
	}
	if hw.store.fsync {
		if err := hw.f.Sync(); err != nil {
			hw.fail = fmt.Errorf("store: history fsync: %w", err)
			return hw.fail
		}
	}
	if err := hw.f.Close(); err != nil {
		hw.fail = fmt.Errorf("store: history close: %w", err)
		return hw.fail
	}
	hw.f = nil
	return nil
}

// appendHistory writes one owner's contiguous batch run to the open history
// segment, splitting into multiple refs at run/segment size boundaries.
// Each ref's CRC covers its exact byte range (frame headers included).
//
// Ref coalescing: when prev (the owner's most recent ref) ends exactly at
// the writer's cursor in the current segment and the new batches continue
// its tick chain, the first run *extends* prev instead of opening a new ref
// — refs[0] is the widened replacement and extended reports it. Without
// this, a steady-state spill of one batch per commit would mint one ref
// per tick and the manifest would quietly grow O(total history) again; the
// run CRC extends incrementally (crc32.Update over the appended frames
// equals a fresh checksum of the whole widened range), and any manifest
// already holding the narrower prev stays valid because the bytes it names
// are immutable.
func (hw *histWriter) appendHistory(owner string, prev *SegmentRef, batches []Batch) (refs []SegmentRef, extended bool, err error) {
	if hw.closed {
		return nil, false, ErrStoreClosed
	}
	if hw.fail != nil {
		return nil, false, hw.fail
	}
	if len(batches) == 0 {
		return nil, false, fmt.Errorf("store: empty history spill")
	}
	for j := 1; j < len(batches); j++ {
		if batches[j].Tick != batches[j-1].Tick+1 {
			return nil, false, fmt.Errorf("store: non-contiguous spill: tick %d after %d", batches[j].Tick, batches[j-1].Tick)
		}
	}
	canExtend := prev != nil && hw.f != nil &&
		prev.Seg == hw.seg &&
		prev.Off+uint64(prev.Len) == hw.off &&
		prev.lastTick()+1 == batches[0].Tick &&
		uint64(prev.Len) < maxRunBytes
	i := 0
	for i < len(batches) {
		var ref SegmentRef
		var crc uint32
		var runBytes uint64
		if canExtend {
			ref, crc, runBytes = *prev, prev.CRC, uint64(prev.Len)
		} else {
			if hw.f == nil || hw.off >= maxHistSegmentBytes {
				if err := hw.roll(); err != nil {
					return refs, extended, err
				}
			}
			ref = SegmentRef{Seg: hw.seg, Off: hw.off, FirstTick: batches[i].Tick}
		}
		var newBytes uint64
		var newBatches int64
		for i < len(batches) && runBytes < maxRunBytes {
			frame, err := Entry{Owner: owner, Batch: batches[i]}.Frame()
			if err == nil {
				_, werr := hw.w.Write(frame)
				if werr != nil {
					err = fmt.Errorf("store: history append: %w", werr)
				}
			}
			if err != nil {
				// The run is torn mid-write: the cursor no longer knows the
				// file's true length, so abandon this segment and let the
				// next spill roll a fresh one. Earlier refs into it are
				// only safe if their buffered bytes reach the file — seal
				// attempts that and latches the writer if it cannot.
				_ = hw.seal()
				return refs, extended, err
			}
			crc = crc32.Update(crc, crcTable, frame)
			runBytes += uint64(len(frame))
			newBytes += uint64(len(frame))
			ref.Count++
			newBatches++
			i++
		}
		ref.Len = uint32(runBytes)
		ref.CRC = crc
		hw.off = ref.Off + runBytes
		if canExtend {
			extended = true
			canExtend = false
		}
		refs = append(refs, ref)
		hw.store.spillBatches.Add(newBatches)
		hw.store.spillBytes.Add(int64(newBytes))
	}
	return refs, extended, nil
}

// flush pushes buffered spill bytes to the OS (and in fsync mode to the
// platter), making every issued ref's range durable. Rotate calls it before
// writing the manifest that references those ranges; a latched failure
// fails every flush, so a lossy writer can never feed a manifest.
func (hw *histWriter) flush() error {
	if hw.fail != nil {
		return hw.fail
	}
	if hw.closed || hw.f == nil {
		return nil
	}
	if err := hw.w.Flush(); err != nil {
		hw.fail = fmt.Errorf("store: history flush: %w", err)
		return hw.fail
	}
	if hw.store.fsync {
		if err := hw.f.Sync(); err != nil {
			hw.fail = fmt.Errorf("store: history fsync: %w", err)
			return hw.fail
		}
	}
	return nil
}

// close ends the writer: graceful (flush everything) or kill (abandon
// buffered bytes the way a crash would — the WAL still covers them).
func (hw *histWriter) close(kill bool) error {
	if hw.closed {
		return nil
	}
	hw.closed = true
	if hw.f == nil {
		return nil
	}
	if kill {
		return hw.f.Close()
	}
	return hw.seal()
}

// Spill appends one contiguous run of owner's committed batches to shard
// sid's history cursor and returns the refs to persist in the next
// snapshot. prev may name the owner's most recent ref: when the new run
// lands immediately after it, refs[0] is that ref widened in place
// (extended=true) and the caller replaces rather than appends — the
// coalescing that keeps per-owner ref counts sublinear in history. Same
// concurrency contract as Append: one producer goroutine per shard (the
// gateway's shard worker). The returned refs point at buffered bytes —
// they become durable at the next Rotate, and until then the WAL still
// covers every spilled batch, so a crash loses nothing.
func (s *Store) Spill(sid int, owner string, prev *SegmentRef, batches []Batch) ([]SegmentRef, bool, error) {
	if len(owner) == 0 || len(owner) > maxOwnerLen {
		return nil, false, fmt.Errorf("store: owner id length %d outside [1, %d]", len(owner), maxOwnerLen)
	}
	hw := s.hist[sid]
	hw.mu.Lock()
	defer hw.mu.Unlock()
	return hw.appendHistory(owner, prev, batches)
}

// EnforceWindow keeps an owner's in-RAM history tail bounded after a commit:
// once the tail reaches twice the window, everything past the window moves
// to shard sid's history segment and only SegmentRefs stay in st. The 2×
// hysteresis spills ≥window batches at a time, and Spill coalesces a run
// that lands right after the owner's previous ref into that ref — together
// they keep per-owner ref counts sublinear in history (a spill on every
// commit would mint one 36-byte ref per tick and sneak O(total-ingest) state
// back into RAM and manifests). The window is the one Open resolved from
// Options.HistoryWindow. It is the one spill policy: the gateway calls it after every commit, and
// compaction at Open calls it on every recovered owner, so a recovered tail
// obeys the bound a live one does. An error is survivable — the batches it
// could not move stay in the tail (still correct, just not bounded) and the
// next commit retries; a partial failure keeps the refs of the runs that
// completed (their bytes are written; Rotate refuses to manifest them unless
// they flush) and drops exactly the batches they cover, so a retry never
// re-spills — and double-counts — a written run. Same single-producer
// contract as Spill.
func (s *Store) EnforceWindow(sid int, st *OwnerState) error {
	window := s.window
	if len(st.Tail) < 2*window {
		return nil
	}
	var prev *SegmentRef
	prevCount := 0
	if len(st.Spilled) > 0 {
		prev = &st.Spilled[len(st.Spilled)-1]
		prevCount = int(prev.Count)
	}
	refs, extended, err := s.Spill(sid, st.Owner, prev, st.Tail[:len(st.Tail)-window])
	if len(refs) > 0 {
		done := 0
		for _, r := range refs {
			done += int(r.Count)
		}
		if extended {
			done -= prevCount // the widened ref re-counts prev's batches
			st.Spilled[len(st.Spilled)-1] = refs[0]
			refs = refs[1:]
		}
		st.Spilled = append(st.Spilled, refs...)
		// Shift the kept batches down in place and clear the vacated slots, so
		// the tail's array is reused from one spill to the next and the spilled
		// batches' frames are released. Nothing reads a Tail concurrently with
		// its owner: every reader on another goroutine (a snapshot transfer's
		// cut, the debug plane) works on an OwnerState.Clone, which copies the
		// slice, and Rotate encodes its image before the shard worker moves on.
		kept := copy(st.Tail, st.Tail[done:])
		clear(st.Tail[kept:])
		st.Tail = st.Tail[:kept]
	}
	return err
}

// FlushHistory pushes shard sid's buffered spill bytes to the OS (and in
// fsync mode to the platter) without rotating. Rotate does this implicitly
// before writing a manifest; the replication hub calls it explicitly before
// streaming a snapshot transfer, because StreamHistory reads spilled runs
// from the segment files and a ref issued since the last rotation may still
// point at bytes sitting in the writer's buffer.
func (s *Store) FlushHistory(sid int) error {
	hw := s.hist[sid]
	hw.mu.Lock()
	defer hw.mu.Unlock()
	return hw.flush()
}

// StreamHistory replays one owner's full committed ingest history —
// spilled runs streamed frame by frame from their segments, then the inline
// tail — through fn, in tick order. Memory stays bounded by one frame
// regardless of history size. Any mismatch between a manifest ref and the
// bytes it names (missing segment, CRC damage, wrong owner, broken tick
// chain) returns an error wrapping ErrCorruptSegment.
func (s *Store) StreamHistory(st *OwnerState, fn func(Batch) error) error {
	if len(st.Spilled) > 0 {
		files := map[uint64]*os.File{}
		defer func() {
			for _, f := range files {
				f.Close()
			}
		}()
		for _, ref := range st.Spilled {
			f, ok := files[ref.Seg]
			if !ok {
				var err error
				f, err = os.Open(historySegPath(s.dir, ref.Seg))
				if err != nil {
					return fmt.Errorf("%w: owner %q history segment %d: %v", ErrCorruptSegment, st.Owner, ref.Seg, err)
				}
				files[ref.Seg] = f
			}
			if err := streamRun(io.NewSectionReader(f, int64(ref.Off), int64(ref.Len)), st.Owner, ref, fn); err != nil {
				return fmt.Errorf("owner %q segment %d offset %d: %w", st.Owner, ref.Seg, ref.Off, err)
			}
		}
	}
	for i := range st.Tail {
		if err := fn(st.Tail[i]); err != nil {
			return err
		}
	}
	return nil
}

// streamRun decodes exactly one SegmentRef's byte range: Count frames over
// Len bytes, each frame CRC-checked individually and the whole range
// checked against the ref's run CRC, every batch validated against the
// owner and the run's tick chain. fn sees batches as they decode; a
// violation anywhere fails the run (the caller treats the owner's recovery
// as unprovable rather than guessing).
func streamRun(r io.Reader, owner string, ref SegmentRef, fn func(Batch) error) error {
	var hdr [8]byte
	var runCRC uint32
	remain := int64(ref.Len)
	tick := ref.FirstTick
	for i := uint32(0); i < ref.Count; i++ {
		if remain < 8 {
			return fmt.Errorf("%w: run ends mid-frame with %d batches missing", ErrCorruptSegment, ref.Count-i)
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("%w: reading frame header: %v", ErrCorruptSegment, err)
		}
		n, err := payloadLen(hdr[:])
		if err != nil {
			return err
		}
		if int64(n) > remain-8 {
			return fmt.Errorf("%w: frame length %d outside run bounds", ErrCorruptSegment, n)
		}
		frame := make([]byte, 8+n)
		copy(frame, hdr[:])
		if _, err := io.ReadFull(r, frame[8:]); err != nil {
			return fmt.Errorf("%w: reading frame payload: %v", ErrCorruptSegment, err)
		}
		e, err := decodeFrame(frame)
		if err != nil {
			return err
		}
		if e.Owner != owner {
			return fmt.Errorf("%w: run holds owner %q, manifest says %q", ErrCorruptSegment, e.Owner, owner)
		}
		if e.Batch.Tick != tick {
			return fmt.Errorf("%w: run tick %d, want %d", ErrCorruptSegment, e.Batch.Tick, tick)
		}
		tick++
		runCRC = crc32.Update(runCRC, crcTable, frame)
		remain -= 8 + int64(n)
		if err := fn(e.Batch); err != nil {
			return err
		}
	}
	if remain != 0 {
		return fmt.Errorf("%w: %d bytes beyond the run's last frame", ErrCorruptSegment, remain)
	}
	if runCRC != ref.CRC {
		return fmt.Errorf("%w: run CRC mismatch", ErrCorruptSegment)
	}
	return nil
}
