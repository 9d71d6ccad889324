// Package store is the durability subsystem under the multi-tenant gateway:
// a per-shard, length-prefixed, CRC-checked write-ahead log with group
// commit on the hot path, periodic per-shard snapshots with log truncation,
// and crash recovery that reconstructs every tenant's batch history and
// logical clock — all the gateway needs to rebuild the sealed store, the
// leakage transcript (one event per batch) and the dp.Budget ledger (one
// charge per batch).
//
// # Why the WAL guards the privacy guarantee
//
// DP-Sync's ε accounting is only meaningful if it survives the server: a
// crash that loses the ledger forgets spend, and a naive replay that
// re-applies syncs double-spends it and re-emits transcript events that
// distort the very update pattern the mechanism hides. The store pins the
// spend-before-sync invariant: a sync's WAL entry — ciphertexts (which fix
// its transcript event) and budget charge together — is appended and group-committed
// *before* the sync is acknowledged or becomes observable in the tenant's
// transcript. Recovery replay is therefore idempotent: every entry carries
// the owner's upload tick, snapshots carry the committed clock, and replay
// applies exactly the entries past the clock, once. The ledger is not stored
// beside the history: the logged charges are the spend, and the gateway
// re-spends exactly them as it replays the history (Tenants.Replay).
//
// # Write path
//
// Each shard owns one segment file and one writer goroutine. Appends from
// the shard worker are enqueued without blocking; the writer drains the
// queue in batches — one buffered write + flush (+ optional fsync) commits
// every entry that accumulated while the previous batch was in flight
// (classic pipelined group commit), then reports the outcome: to the
// entry's own callback (Append), or once for the whole group to the shard's
// commit hook (AppendAt, OnCommit) — the gateway shard worker's path, which
// builds nothing per append and defers acknowledgment and transcript
// observation until the hook reports the group.
//
// # Tiered history
//
// A tenant's ingest history is two tiers: a bounded in-RAM tail (the
// caller's HistoryWindow) and append-only history segments on disk holding
// everything older. Committed batches past the window are spilled —
// appended to the shard's current history segment as the same CRC frames
// the WAL uses — and only a SegmentRef (segment id, byte offset, run
// length, run CRC, tick range) stays in memory. Spilled bytes are made
// durable by Rotate (or by Open, for compaction's) before any manifest
// references them; until then the WAL covers every spilled batch, so an
// un-manifested spill lost to a crash costs nothing. This is what keeps
// caller RSS proportional to the live window rather than total bytes ever
// ingested.
//
// # Snapshots and truncation
//
// A rotation replaces a shard's log with a snapshot: the caller quiesces
// (waits for its in-flight appends to commit) and calls Rotate with the
// shard's tenant states; the image is streamed to a file and installed beside
// the standing one (installImage, shared with compaction), then the segment
// is truncated. Snapshots are *manifests* — segment refs for the spilled tier
// plus the inline tail — but every owner's clock, refs and tail are
// rewritten each time, so RotateDue spaces rotations by bytes: at
// least Options.SnapshotEvery entries and at least as many log bytes as the
// last image (Rotate's, or compaction's at Open). Every image but the latest
// is paid for by the log written after it, the log between rotations (and
// recovery's replay of it) stays within one image, and with no history window
// the same comparison spaces rotations geometrically. A failed rotation
// doubles the bytes required, so a shard cannot hot-loop one that keeps
// failing. Replay skips entries a snapshot covers by the clock rule, so a
// crash anywhere in the rotate sequence stays recoverable.
//
// # Recovery
//
// Open scans the whole directory — all snapshot and segment files, from any
// previous shard count — merges snapshots per owner (highest clock whose
// manifest still checks out against the on-disk history segments wins),
// replays WAL entries in tick order onto the tail, then compacts: tails are
// re-spilled by the live bound (EnforceWindow), fresh manifest snapshots are
// written under the current shard mapping, superseded files are removed
// (orphan history segments collected; possibly-salvageable ones
// quarantined), and new empty segments are opened. The spilled tier is never
// loaded — StreamHistory hands it to the caller frame by frame. Torn segment
// tails (the normal post-crash shape) end replay silently; CRC mismatches stop
// a segment at its longest valid prefix and are reported in RecoveryInfo.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpsync/internal/telemetry"
)

// Options configures Open.
type Options struct {
	// Dir is the durability directory (created if absent).
	Dir string
	// Shards is the number of segment files / writer goroutines. It should
	// match the caller's shard-worker count; recovery accepts directories
	// written under any other value.
	Shards int
	// Fsync makes every group commit fsync the segment (crash-safe against
	// machine failure). Off, commits are flushed to the OS (crash-safe
	// against process failure) — the mode benchmarks and tests use.
	Fsync bool
	// HistoryWindow bounds the inline ingest-history tail kept per owner:
	// compaction brings every recovered tail inside it the way a live commit
	// does (EnforceWindow), and callers pass the same window to EnforceWindow
	// after each commit. 0 disables compaction re-spill (full history stays
	// inline in snapshots — the legacy small-deployment mode).
	HistoryWindow int
	// SnapshotEvery is the fewest entries a shard appends between two
	// rotations (0 = DefaultSnapshotEvery). It is a floor, not a cadence:
	// RotateDue also waits for the log to outweigh the last image.
	SnapshotEvery int
	// Telemetry receives the store's runtime metrics (group-commit size and
	// flush latency histograms on the writer hot path; cumulative counters
	// exported at scrape time). Nil disables export; the atomic Metrics
	// counters are maintained either way.
	Telemetry *telemetry.Registry
}

// DefaultSnapshotEvery is the default Options.SnapshotEvery.
const DefaultSnapshotEvery = 1024

// Metrics is the store's cumulative instrumentation.
type Metrics struct {
	// Appends counts committed WAL entries; Commits counts group-commit
	// batches (flush/fsync rounds). Appends/Commits is the group factor.
	Appends int64
	Commits int64
	// Bytes is total segment bytes written (excluding snapshots).
	Bytes int64
	// AppendNs is cumulative append→commit latency over all entries.
	AppendNs int64
	// Snapshots counts rotate operations and SnapshotBytes the image bytes
	// they wrote; SnapshotBytes/Bytes is the checkpoint write amplification.
	Snapshots     int64
	SnapshotBytes int64
	// SpillBatches / SpillBytes count committed batches (and their encoded
	// bytes) moved from RAM to history segments; HistorySegments counts
	// segment files created. The spill tier is what keeps caller memory
	// bounded by the history window instead of total ingest.
	SpillBatches    int64
	SpillBytes      int64
	HistorySegments int64
}

// AvgAppendUs returns the mean append→commit latency in microseconds.
func (m Metrics) AvgAppendUs() float64 {
	if m.Appends == 0 {
		return 0
	}
	return float64(m.AppendNs) / float64(m.Appends) / 1e3
}

// RecoveryInfo summarizes what Open reconstructed.
type RecoveryInfo struct {
	// Owners is the number of tenant namespaces recovered.
	Owners int
	// Snapshots is the number of snapshot files merged; Entries the number
	// of WAL entries applied on top of them; SkippedEntries the duplicates
	// ignored by the clock rule (the idempotence counter).
	Snapshots      int
	Entries        int
	SkippedEntries int
	// TornTails counts segments ending mid-frame (normal after a crash);
	// CorruptSegments counts segments or snapshots stopped by CRC or
	// format damage; GapOwners counts owners whose replay stopped early at
	// a missing tick.
	TornTails       int
	CorruptSegments int
	GapOwners       int
	// SpilledRefs counts manifest segment refs carried by the recovered
	// states (the cold history runs recovery will stream, not load);
	// DamagedHistory counts snapshot candidates dropped because a ref
	// named a missing or too-short history segment — recovery fell back to
	// an older snapshot or the WAL for those owners.
	SpilledRefs    int
	DamagedHistory int
}

// Store is an open durability directory. Create with Open, append from
// exactly one goroutine per shard, stop with Close (graceful: flush
// everything) or Kill (crash simulation: abandon pending work).
type Store struct {
	dir       string
	fsync     bool
	window    int
	snapEvery int64
	shards    []*walShard
	// hist holds one history-tier append cursor per shard (the spill
	// target); histSeq allocates globally unique segment numbers across
	// shards, compaction, and process restarts.
	hist    []*histWriter
	histSeq atomic.Uint64
	info    RecoveryInfo

	appends      atomic.Int64
	commits      atomic.Int64
	bytes        atomic.Int64
	appendNs     atomic.Int64
	snapshots    atomic.Int64
	snapBytes    atomic.Int64
	spillBatches atomic.Int64
	spillBytes   atomic.Int64
	histSegments atomic.Int64
	commitErrs   atomic.Int64
	// failCommits is the fault-injection hook: while set, every group commit
	// fails (and counts a commit error) without touching the segment —
	// exactly the observable shape of a dying device, minus the device.
	failCommits atomic.Bool
	// snapAtNs holds each shard's last snapshot-rotation time (UnixNano; 0 =
	// none since Open), written by doRotate, read by the status plane.
	snapAtNs []atomic.Int64

	// Telemetry handles (nil no-ops without a registry): the group-commit
	// writer observes its batch size and flush+fsync latency per commit;
	// the cumulative counters above are exported by a scrape-time collector
	// so the hot path pays nothing twice.
	groupSizeHist *telemetry.Histogram
	flushHist     *telemetry.Histogram
	rotateHist    *telemetry.Histogram
	unregister    func()

	mu     sync.Mutex
	closed bool
}

// walShard is one segment file plus its writer goroutine.
type walShard struct {
	id       int
	path     string // the segment
	snapPath string // the snapshot, named once: a rotation formats no path
	store    *Store

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []pendingEntry
	hook    func(Group) // OnCommit's; nil until installed
	rotate  *rotateReq
	closing bool
	killing bool

	f          *os.File
	w          *bufio.Writer
	writerDone chan struct{}

	// The rotation policy's inputs (RotateDue), written only by the shard's
	// one producer — Append counts, Rotate resets — and atomic only so the
	// status plane can read them. logEntries and logBytes are what the
	// segment has taken since its last rotation; imageBytes is the size of
	// the shard's current snapshot file; dueBytes is the log size the next
	// rotation waits for: imageBytes, until a failed rotation doubles it.
	logEntries atomic.Int64
	logBytes   atomic.Int64
	imageBytes atomic.Int64
	dueBytes   int64
	image      imageWriter // the writer goroutine's
}

// pendingEntry is one append waiting for its group commit: the frame to
// write, when it was appended (UnixNano), and its own callback — nil for an
// AppendAt entry, which the shard's commit hook reports with its group.
type pendingEntry struct {
	frame []byte
	at    int64
	done  func(error)
}

// Group is one group commit as a shard's commit hook (OnCommit) sees it.
type Group struct {
	// N is how many AppendAt entries the group completes: the shard's N
	// oldest not yet reported, in append order.
	N int
	// Err is nil when they are durable; otherwise they failed together — a
	// failed write, flush or fsync, the commit failpoint, or Kill.
	Err error
	// Start and End bound the group's write (UnixNano): End is when its
	// entries became durable. Both are 0 when Err is set.
	Start, End int64
}

// rotateReq is a Rotate waiting on the writer goroutine: the states to image,
// and the size of the image it installed, set before done reports success.
type rotateReq struct {
	owners []OwnerState
	size   int64
	done   chan error
}

// ShardFor maps an owner ID onto one of n shards with the FNV-1a hash the
// gateway routes by. Store and gateway must agree so compaction groups each
// owner's state with the shard worker that will serve it.
func ShardFor(owner string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(owner); i++ {
		h ^= uint32(owner[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Open recovers dir and prepares it for appends: every tenant's durable
// state — clock and history — is reconstructed (returned for the caller to
// rebuild backends from, and to derive the ledger from: no state carries a
// Budget), the directory is compacted under the current shard mapping, and
// fresh segments are opened.
func Open(opts Options) (*Store, map[string]*OwnerState, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("store: empty directory")
	}
	if opts.Shards <= 0 {
		return nil, nil, fmt.Errorf("store: shard count %d must be positive", opts.Shards)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	states, rec, err := recoverDir(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	s := &Store{dir: opts.Dir, fsync: opts.Fsync, window: opts.HistoryWindow, snapEvery: int64(opts.SnapshotEvery), info: rec.info}
	if reg := opts.Telemetry; reg != nil {
		s.groupSizeHist = reg.Histogram("store_commit_group_size",
			"WAL entries per group commit (flush/fsync round)", telemetry.GroupSizeBuckets)
		s.flushHist = reg.Histogram("store_commit_flush_us",
			"group-commit write+flush(+fsync) latency in microseconds", telemetry.LatencyBucketsUs)
		s.rotateHist = reg.Histogram("store_rotate_us",
			"snapshot rotation, image encode start to rotation durable, microseconds", telemetry.LatencyBucketsUs)
		s.unregister = reg.RegisterCollector(func(emit func(sm telemetry.Sample)) {
			counter := func(name, help string, v int64) {
				emit(telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindCounter, Value: float64(v)})
			}
			counter("store_wal_appends_total", "committed WAL entries", s.appends.Load())
			counter("store_wal_commits_total", "group-commit batches", s.commits.Load())
			counter("store_wal_bytes_total", "segment bytes written", s.bytes.Load())
			counter("store_wal_append_ns_total", "cumulative append-to-commit latency in nanoseconds", s.appendNs.Load())
			counter("store_snapshots_total", "snapshot rotations", s.snapshots.Load())
			counter("store_snapshot_bytes_total", "snapshot image bytes written by rotations", s.snapBytes.Load())
			counter("store_spill_batches_total", "history batches spilled from RAM to segments", s.spillBatches.Load())
			counter("store_spill_bytes_total", "encoded bytes spilled to history segments", s.spillBytes.Load())
			counter("store_history_segments_total", "history segment files created", s.histSegments.Load())
			counter("store_commit_errors_total", "failed group commits (WAL writer health)", s.commitErrs.Load())
		})
	}
	// Segment numbering continues past every file on disk, referenced or
	// not, so a new spill can never collide with (or resurrect) an old id.
	s.histSeq.Store(rec.maxHistSeg)
	s.hist = make([]*histWriter, opts.Shards)
	for i := range s.hist {
		s.hist[i] = &histWriter{store: s}
	}
	opened := false
	defer func() { // tear down a failed Open
		if opened {
			return
		}
		for _, sh := range s.shards {
			if sh != nil {
				sh.f.Close()
			}
		}
		for _, hw := range s.hist {
			_ = hw.close(true)
		}
	}()
	if err := s.compact(states, rec); err != nil {
		return nil, nil, err
	}
	s.snapAtNs = make([]atomic.Int64, opts.Shards)
	s.shards = make([]*walShard, opts.Shards)
	for i := range s.shards {
		sh := &walShard{
			id:         i,
			path:       segmentPath(opts.Dir, i),
			snapPath:   snapshotPath(opts.Dir, i),
			store:      s,
			writerDone: make(chan struct{}),
		}
		// The image compaction just wrote for this shard (none for a shard
		// without owners) is what its log must outweigh before the first
		// rotation is due.
		if fi, err := os.Stat(sh.snapPath); err == nil {
			sh.dueBytes = fi.Size()
			sh.imageBytes.Store(fi.Size())
		}
		sh.cond = sync.NewCond(&sh.mu)
		if err := sh.openSegment(); err != nil {
			return nil, nil, err
		}
		s.shards[i] = sh
	}
	if opts.Fsync {
		// The fresh segments' directory entries must survive power loss
		// before any commit is acknowledged out of them.
		if err := syncDir(opts.Dir); err != nil {
			return nil, nil, err
		}
	}
	for _, sh := range s.shards {
		go sh.run()
	}
	opened = true
	return s, states, nil
}

func segmentPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", id))
}

func snapshotPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.snap", id))
}

// compact rewrites the recovered state as fresh snapshots under the current
// shard mapping and removes every superseded file. Crash-safe by the clock
// rule: new snapshots are installed first (installImage), so any old file
// that survives an interrupted removal only contributes already-covered state.
// Files recovery found damaged are quarantined (renamed aside), never
// deleted — a corrupt frame truncates replay at its position, but the
// bytes after it may hold committed entries an operator can still salvage.
//
// Tiered history: each recovered tail is first brought inside the live bound
// by the live path, EnforceWindow on its shard's own history writer (so a
// mature store reopens within its memory budget), and those writers are
// flushed before the fresh snapshots carry the combined manifests.
// Compaction never re-reads or rewrites already-spilled runs — its I/O is
// O(tails + manifests), not O(total history). History segments referenced
// by no fresh snapshot are orphans (spilled but never manifested — their
// batches are fully covered by the WAL) and are removed, unless an old
// decodable snapshot referenced them, in which case they are quarantined
// like any other possibly-salvageable bytes.
func (s *Store) compact(states map[string]*OwnerState, rec *recovery) error {
	shards := len(s.hist)
	if s.window > 0 {
		owners := make([]string, 0, len(states))
		for owner := range states {
			owners = append(owners, owner)
		}
		sort.Strings(owners) // deterministic spill order
		for _, owner := range owners {
			st := states[owner]
			if err := s.EnforceWindow(ShardFor(owner, shards), st, s.window); err != nil {
				return fmt.Errorf("store: compaction spill for %q: %w", owner, err)
			}
			// A recovered tail can be many windows long: keep a right-sized
			// copy rather than the window at the front of that array.
			if cap(st.Tail) > 2*s.window {
				st.Tail = slices.Clone(st.Tail)
			}
		}
		// Spilled bytes must be durable before any manifest names them.
		for sid := range s.hist {
			if err := s.FlushHistory(sid); err != nil {
				return err
			}
		}
		if s.fsync {
			if err := syncDir(s.dir); err != nil {
				return err
			}
		}
	}
	// Preserve damaged and salvage-relevant files aside *before* fresh
	// snapshots land: an install moves the standing image aside and the sweep
	// below deletes it — the very bytes the quarantine promises to keep (the
	// dropped candidate's tail and the SegmentRef offsets that make a
	// quarantined history segment interpretable).
	maps.Copy(rec.corrupt, rec.salvage) // each file moves once
	for name := range rec.corrupt {
		if err := quarantinePath(filepath.Join(s.dir, name)); err != nil {
			return err
		}
	}
	byShard := make([][]OwnerState, shards)
	for owner, st := range states {
		sid := ShardFor(owner, shards)
		byShard[sid] = append(byShard[sid], *st)
	}
	written := make(map[string]bool, shards)
	referenced := make(map[uint64]bool)
	for _, st := range states {
		for _, ref := range st.Spilled {
			referenced[ref.Seg] = true
		}
	}
	var image imageWriter
	for sid, owners := range byShard {
		path := snapshotPath(s.dir, sid)
		if len(owners) == 0 {
			continue
		}
		if _, err := installImage(&image, path, owners, s.fsync); err != nil {
			return err
		}
		written[filepath.Base(path)] = true
	}
	// Remove everything the compaction superseded: all WAL segments, any
	// snapshot not just written (the installs' aside copies stay until now:
	// after a shard-count change one can hold owners of a later shard), and
	// unreferenced history segments.
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range dirents {
		name := de.Name()
		if written[name] {
			continue
		}
		// Corrupt and salvage-marked files were renamed aside above, so
		// everything still matching the is*Name matchers here is either
		// superseded (delete) or a history segment to triage.
		quarantineWorthy := false
		switch {
		case isSegmentName(name) || isSnapshotName(name) || filepath.Ext(name) == ".tmp":
		case isHistoryName(name):
			id, ok := historySegID(name)
			if !ok || referenced[id] {
				continue
			}
			// Referenced by an old snapshot but not by the fresh ones (the
			// fresh manifests dropped it — damaged-history fallback), so it
			// may hold the only copy of batches: keep it inspectable. The
			// same caution applies when any snapshot failed to decode —
			// its unreadable manifest may name this segment, so deleting
			// would destroy the salvage copy the quarantine promises.
			quarantineWorthy = rec.snapRefs[id] || rec.corruptSnapshots > 0
		default:
			continue
		}
		path := filepath.Join(s.dir, name)
		if quarantineWorthy {
			if err := quarantinePath(path); err != nil {
				return err
			}
			continue
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	return nil
}

// quarantinePath renames a file aside so it stops matching the store's
// file-name matchers (later opens ignore it) while its bytes stay
// available for manual salvage. Never overwrites an earlier quarantine of
// the same name.
func quarantinePath(path string) error {
	q := path + ".quarantined"
	for i := 1; ; i++ {
		if _, err := os.Stat(q); os.IsNotExist(err) {
			break
		}
		q = fmt.Sprintf("%s.quarantined-%d", path, i)
	}
	if err := os.Rename(path, q); err != nil {
		return fmt.Errorf("store: quarantine: %w", err)
	}
	return nil
}

// installImage streams owners' image to path+".tmp" — the header reserved,
// then filled by one WriteAt — and installs it at path without renaming over
// the standing image (on ext4 that rename flushes the file, a stall a fresh
// name avoids). The standing image first moves to asidePath(path), which
// recovery merges like any snapshot, so a crash at any step recovers the same
// tenants. Files and directory are synced in fsync mode; the caller removes
// the aside copy. It returns the image's size.
func installImage(iw *imageWriter, path string, owners []OwnerState, fsync bool) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	n, crc, err := iw.stream(io.NewOffsetWriter(f, snapHeaderSize), owners)
	if err == nil {
		_, err = f.WriteAt(appendSnapHeader(iw.scratch[:0], n, crc), 0)
	}
	if err == nil && fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if err = os.Rename(path, asidePath(path)); errors.Is(err, fs.ErrNotExist) {
			err = nil
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: snapshot %s: %w", filepath.Base(path), err)
	}
	if fsync {
		if err := syncDir(filepath.Dir(path)); err != nil {
			return 0, err
		}
	}
	return snapHeaderSize + n, nil
}

// asidePath is where installImage moves the image standing at path.
func asidePath(path string) string {
	return strings.TrimSuffix(path, ".snap") + ".prev.snap"
}

// syncDir fsyncs a directory, making recent renames/creates in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("store: fsync %s: %w", dir, serr)
	}
	if cerr != nil {
		return fmt.Errorf("store: %w", cerr)
	}
	return nil
}

// openSegment creates a fresh segment with its header.
func (sh *walShard) openSegment() error {
	f, err := os.OpenFile(sh.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sh.f, sh.w = f, bufio.NewWriterSize(f, 1<<16)
	if err := sh.startSegment(); err != nil {
		f.Close()
		return err
	}
	return nil
}

// startSegment empties the segment back to its header, synced in fsync mode.
func (sh *walShard) startSegment() error {
	hdr := segmentHeader()
	err := sh.f.Truncate(0)
	if err == nil {
		_, err = sh.f.WriteAt(hdr, 0)
	}
	if err == nil {
		_, err = sh.f.Seek(int64(len(hdr)), io.SeekStart)
	}
	if err == nil && sh.store.fsync {
		err = sh.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("store: shard %d segment: %w", sh.id, err)
	}
	sh.w.Reset(sh.f)
	return nil
}

// Append enqueues one entry on shard sid. It returns immediately; done is
// invoked exactly once — from the shard's writer goroutine — after the
// entry's group commit (nil) or its failure. A non-nil return means the
// entry was never enqueued and done will not be called. The frame written is
// e.Frame(): an entry that carries its frame (a live sync's, a replica's
// shipped entry) is wrapped, not encoded again.
//
// Concurrency contract: one producer goroutine per shard (the gateway's
// shard worker); done must be non-nil and must not block the writer
// indefinitely.
func (s *Store) Append(sid int, e Entry, done func(error)) error {
	frame, err := e.Frame()
	if err != nil {
		return err
	}
	return s.enqueue(sid, pendingEntry{frame: frame, at: time.Now().UnixNano(), done: done})
}

// AppendAt is Append for a shard whose outcomes go to its commit hook
// (OnCommit) rather than to a callback per entry: the entry is reported with
// its group, so an append builds nothing. at is when the caller appended
// (UnixNano) — what the store's append-to-commit latency is measured from —
// or 0 for the store to read the clock. The frame written is e.Frame(), as
// for Append; a live sync's entry (SyncEntry) carries it. Same contract as
// Append otherwise.
func (s *Store) AppendAt(sid int, e Entry, at int64) error {
	frame, err := e.Frame()
	if err != nil {
		return err
	}
	if at == 0 {
		at = time.Now().UnixNano()
	}
	return s.enqueue(sid, pendingEntry{frame: frame, at: at})
}

// OnCommit installs shard sid's commit hook: fn runs on the shard's writer
// goroutine once per group commit that completes AppendAt entries, after the
// group is durable or has failed, in commit order — which is append order,
// so the producer keeps its own queue of what it has in flight and takes a
// Group's N entries off its head. fn must not block the writer for long.
// Install it before the shard's first AppendAt.
func (s *Store) OnCommit(sid int, fn func(Group)) {
	sh := s.shards[sid]
	sh.mu.Lock()
	sh.hook = fn
	sh.mu.Unlock()
}

// enqueue hands one entry to shard sid's writer and counts it toward the
// shard's next rotation.
func (s *Store) enqueue(sid int, p pendingEntry) error {
	sh := s.shards[sid]
	sh.mu.Lock()
	switch {
	case sh.closing:
		sh.mu.Unlock()
		return ErrStoreClosed
	case p.done == nil && sh.hook == nil:
		sh.mu.Unlock()
		return fmt.Errorf("store: AppendAt on shard %d, which has no commit hook", sid)
	}
	sh.queue = append(sh.queue, p)
	sh.cond.Signal()
	sh.mu.Unlock()
	sh.logEntries.Add(1)
	sh.logBytes.Add(int64(len(p.frame)))
	return nil
}

// RotateDue reports whether shard sid's log has grown enough to be worth
// replacing with a snapshot: at least Options.SnapshotEvery entries and at
// least the last image's bytes appended since the last rotation (twice that
// after a rotation failed, and doubling again each time it fails). It is the
// only rotation trigger: the gateway's shard worker and the follower's fold
// both ask it after an append, then quiesce and call Rotate. Same
// single-producer contract as Append.
func (s *Store) RotateDue(sid int) bool {
	sh := s.shards[sid]
	return sh.logEntries.Load() >= s.snapEvery && sh.logBytes.Load() >= sh.dueBytes
}

// Rotate snapshots shard sid's tenants and truncates its segment. The
// caller must be quiesced: no in-flight appends on this shard (the write
// queue may only contain entries the snapshot already covers — they would
// be skipped on replay, but the entries' durability window would silently
// widen, so the contract forbids it). Blocks until the rotation is durable.
//
// Ordering: the shard's history cursor is flushed (and in fsync mode
// fsynced, with the directory) *before* the snapshot manifest is written,
// so every SegmentRef the manifest carries points at bytes that are at
// least as durable as the manifest itself.
//
// Success restarts the shard's RotateDue accounting against the new image;
// failure doubles the log bytes the next attempt waits for.
func (s *Store) Rotate(sid int, owners []OwnerState) (err error) {
	sh := s.shards[sid]
	start := time.Now()
	req := &rotateReq{owners: owners, done: make(chan error, 1)}
	defer func() {
		if err != nil {
			sh.dueBytes = 2 * max(sh.dueBytes, sh.logBytes.Load())
			return
		}
		sh.logEntries.Store(0)
		sh.logBytes.Store(0)
		sh.imageBytes.Store(req.size)
		sh.dueBytes = req.size
		s.snapBytes.Add(req.size)
		s.rotateHist.ObserveNs(time.Since(start).Nanoseconds())
	}()
	hw := s.hist[sid]
	hw.mu.Lock()
	err = hw.flush()
	hw.mu.Unlock()
	if err != nil {
		return err
	}
	if s.fsync {
		// Make any segment files created since the last rotation durable
		// directory entries before a manifest names them.
		if err := syncDir(s.dir); err != nil {
			return err
		}
	}
	sh.mu.Lock()
	if sh.closing {
		sh.mu.Unlock()
		return ErrStoreClosed
	}
	if sh.rotate != nil {
		sh.mu.Unlock()
		return fmt.Errorf("store: concurrent rotate on shard %d", sid)
	}
	sh.rotate = req
	sh.cond.Signal()
	sh.mu.Unlock()
	return <-req.done
}

// run is the writer loop: batch, commit, notify, repeat. The queue array it
// drains goes back to the producer emptied, so the queue keeps its capacity
// from group to group instead of regrowing from nil.
func (sh *walShard) run() {
	defer close(sh.writerDone)
	var spare []pendingEntry
	for {
		sh.mu.Lock()
		for len(sh.queue) == 0 && sh.rotate == nil && !sh.closing {
			sh.cond.Wait()
		}
		batch, rot, hook := sh.queue, sh.rotate, sh.hook
		sh.queue, sh.rotate = spare, nil
		closing, killing := sh.closing, sh.killing
		sh.mu.Unlock()

		if killing {
			// Crash simulation: abandon everything un-committed. Entries
			// already committed were flushed by their own batch; nothing
			// here reached an acknowledgment.
			report(batch, hook, Group{Err: ErrStoreClosed})
			if rot != nil {
				rot.done <- ErrStoreClosed
			}
			return
		}
		if len(batch) > 0 {
			report(batch, hook, sh.commit(batch))
		}
		clear(batch)
		spare = batch[:0]
		if rot != nil {
			rot.done <- sh.doRotate(rot)
		}
		if closing && len(batch) == 0 && rot == nil {
			return
		}
	}
}

// report hands a group's outcome to whoever waits for it: each Append entry
// to its own callback, then every AppendAt entry, together, to the shard's
// hook.
func report(batch []pendingEntry, hook func(Group), g Group) {
	for _, p := range batch {
		if p.done != nil {
			p.done(g.Err)
		} else {
			g.N++
		}
	}
	if g.N > 0 {
		hook(g)
	}
}

// commit writes one group of entries and makes them durable: buffered
// writes, one flush, one optional fsync — the group-commit hot path. Its two
// clock reads bound the write, and the second is every entry's commit time.
func (sh *walShard) commit(batch []pendingEntry) Group {
	fail := func(err error) Group {
		sh.store.commitErrs.Add(1)
		return Group{Err: err}
	}
	if sh.store.failCommits.Load() {
		// Test failpoint: the group fails as if the device had, exercising
		// the commit-error latch (Healthy, tenant suspension, readiness).
		return fail(fmt.Errorf("store: shard %d commit failpoint", sh.id))
	}
	start := time.Now().UnixNano()
	var n int64
	for _, p := range batch {
		if _, err := sh.w.Write(p.frame); err != nil {
			return fail(fmt.Errorf("store: shard %d append: %w", sh.id, err))
		}
		n += int64(len(p.frame))
	}
	if err := sh.w.Flush(); err != nil {
		return fail(fmt.Errorf("store: shard %d flush: %w", sh.id, err))
	}
	if sh.store.fsync {
		if err := sh.f.Sync(); err != nil {
			return fail(fmt.Errorf("store: shard %d fsync: %w", sh.id, err))
		}
	}
	end := time.Now().UnixNano()
	var lat int64
	for _, p := range batch {
		lat += end - p.at
	}
	sh.store.appends.Add(int64(len(batch)))
	sh.store.commits.Add(1)
	sh.store.bytes.Add(n)
	sh.store.appendNs.Add(lat)
	sh.store.groupSizeHist.Observe(float64(len(batch)))
	sh.store.flushHist.ObserveNs(end - start)
	return Group{Start: start, End: end}
}

// doRotate installs the snapshot, removes the image it replaced, then
// truncates the segment back to its header. Runs on the writer goroutine,
// serialized with commits — so once Kill returns, no rotation touches the
// directory.
func (sh *walShard) doRotate(req *rotateReq) (err error) {
	if req.size, err = installImage(&sh.image, sh.snapPath, req.owners, sh.store.fsync); err != nil {
		return err
	}
	if err := os.Remove(asidePath(sh.snapPath)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	if err := sh.startSegment(); err != nil {
		return err
	}
	sh.store.snapshots.Add(1)
	sh.store.snapAtNs[sh.id].Store(time.Now().UnixNano())
	return nil
}

// Close drains every shard's queue, commits it, and closes the files — the
// graceful-shutdown path. Safe to call twice.
func (s *Store) Close() error {
	return s.shutdown(false)
}

// Kill abandons the store the way a crash would: pending (un-committed)
// entries fail with ErrStoreClosed and nothing further is flushed. Entries
// whose commit already completed remain durable. Tests use it to exercise
// recovery; production code wants Close.
func (s *Store) Kill() {
	_ = s.shutdown(true)
}

func (s *Store) shutdown(kill bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.unregister != nil {
		s.unregister()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closing = true
		if kill {
			sh.killing = true
		}
		sh.cond.Signal()
		sh.mu.Unlock()
	}
	var firstErr error
	for _, sh := range s.shards {
		<-sh.writerDone
		if err := sh.f.Close(); err != nil && firstErr == nil && !kill {
			firstErr = fmt.Errorf("store: shard %d close: %w", sh.id, err)
		}
	}
	for _, hw := range s.hist {
		hw.mu.Lock()
		err := hw.close(kill)
		hw.mu.Unlock()
		if err != nil && firstErr == nil && !kill {
			firstErr = err
		}
	}
	return firstErr
}

// Metrics returns the cumulative instrumentation counters.
func (s *Store) Metrics() Metrics {
	return Metrics{
		Appends:         s.appends.Load(),
		Commits:         s.commits.Load(),
		Bytes:           s.bytes.Load(),
		AppendNs:        s.appendNs.Load(),
		Snapshots:       s.snapshots.Load(),
		SnapshotBytes:   s.snapBytes.Load(),
		SpillBatches:    s.spillBatches.Load(),
		SpillBytes:      s.spillBytes.Load(),
		HistorySegments: s.histSegments.Load(),
	}
}

// Info returns what Open's recovery pass reconstructed.
func (s *Store) Info() RecoveryInfo { return s.info }

// Healthy reports whether the WAL writers have committed every group they
// attempted — the "WAL writer healthy" half of a primary's readiness. A
// single failed group commit latches false: the affected tenants are
// suspended until a restart re-proves their state, so the node should stop
// advertising ready.
func (s *Store) Healthy() bool {
	return s.commitErrs.Load() == 0
}

// SetCommitFailpoint toggles the group-commit failure injection (tests
// only): while on, every commit fails and latches Healthy false, without
// writing to the segment.
func (s *Store) SetCommitFailpoint(on bool) {
	s.failCommits.Store(on)
}

// RotationStatus is one shard's checkpoint state for the status plane.
type RotationStatus struct {
	// Age is the time since the shard's last rotation in this process; -1
	// means none since Open (the WAL alone carries the shard so far — normal
	// for a young or lightly loaded shard).
	Age time.Duration
	// ImageBytes is the size of the shard's current snapshot file and
	// LogBytes what its segment has taken since: the two numbers RotateDue
	// compares.
	ImageBytes, LogBytes int64
}

// RotationStatuses reports every shard's checkpoint state.
func (s *Store) RotationStatuses() []RotationStatus {
	out := make([]RotationStatus, len(s.shards))
	now := time.Now().UnixNano()
	for i, sh := range s.shards {
		out[i] = RotationStatus{Age: -1, ImageBytes: sh.imageBytes.Load(), LogBytes: sh.logBytes.Load()}
		if at := s.snapAtNs[i].Load(); at != 0 {
			out[i].Age = time.Duration(now - at)
		}
	}
	return out
}
