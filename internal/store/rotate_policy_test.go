package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
)

// policyRig drives one shard the way the gateway's shard worker and the
// follower's fold do — append, apply, enforce the window, ask RotateDue,
// quiesce, Rotate — and keeps its own books on what the log and the images
// weigh, so the policy is checked against numbers it did not produce.
type policyRig struct {
	t      *testing.T
	s      *Store
	window int
	states map[string]*OwnerState
	wg     sync.WaitGroup // in-flight appends

	logBytes, logEntries int64   // since the last rotation
	walBytes             int64   // every frame ever appended
	images               []int64 // every image written, in order
}

func newPolicyRig(t *testing.T, opts Options) *policyRig {
	t.Helper()
	opts.Shards = 1
	s, states, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &policyRig{t: t, s: s, window: opts.HistoryWindow, states: states}
}

// append commits the owner's next sync (payload bytes of ciphertext) and
// returns its frame size. It does not rotate.
func (r *policyRig) append(owner string, payload int) int64 {
	r.t.Helper()
	st := r.states[owner]
	if st == nil {
		st = &OwnerState{Owner: owner}
		r.states[owner] = st
	}
	e := testEntry(owner, st.Clock+1, st.Clock == 0, string(make([]byte, payload)))
	frame, err := EncodeEntryFrame(e)
	if err != nil {
		r.t.Fatal(err)
	}
	r.wg.Add(1)
	if err := r.s.Append(0, e, func(err error) {
		if err != nil {
			r.t.Error(err)
		}
		r.wg.Done()
	}); err != nil {
		r.t.Fatal(err)
	}
	if err := st.Apply(e.Batch); err != nil {
		r.t.Fatal(err)
	}
	if err := r.s.EnforceWindow(0, st, r.window); err != nil {
		r.t.Fatal(err)
	}
	n := int64(len(frame))
	r.logBytes, r.logEntries, r.walBytes = r.logBytes+n, r.logEntries+1, r.walBytes+n
	return n
}

// rotate quiesces and rotates, returning Rotate's error.
func (r *policyRig) rotate() error {
	r.wg.Wait()
	owners := make([]OwnerState, 0, len(r.states))
	for _, st := range r.states {
		owners = append(owners, *st)
	}
	if err := r.s.Rotate(0, owners); err != nil {
		return err
	}
	fi, err := os.Stat(snapshotPath(r.s.dir, 0))
	if err != nil {
		r.t.Fatal(err)
	}
	r.images = append(r.images, fi.Size())
	r.logBytes, r.logEntries = 0, 0
	return nil
}

func (r *policyRig) close() {
	r.t.Helper()
	r.wg.Wait()
	if err := r.s.Close(); err != nil {
		r.t.Fatal(err)
	}
}

// TestRotationPolicyBounds is the policy's property test, over a seeded run of
// 200 owners with a window of 8 (manifest images) and of one owner with no
// window (the image is the history). At every append the log since the last
// rotation is no longer than the larger of SnapshotEvery entries' worth and
// the last image, plus the frame just appended — the bound on recovery's
// replay. At every rotation each image written before it has been paid for
// by log bytes written after it (the log before the first image pays for
// nothing), so over any run checkpoint bytes never exceed log bytes plus the
// one image still standing — and with no window, where every image is the
// whole log so far, they stay under twice the log plus the first image.
func TestRotationPolicyBounds(t *testing.T) {
	const every = 32
	for _, shape := range []struct {
		name           string
		owners, window int
		appends        int
	}{
		{"200-owners-window-8", 200, 8, 12000},
		{"1-owner-window-0", 1, 0, 8*every + every/2},
	} {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xD0E5))
			r := newPolicyRig(t, Options{Dir: t.TempDir(), HistoryWindow: shape.window, SnapshotEvery: every})
			defer r.close()
			var image, everyWorth, firstLog int64
			for i := 0; i < shape.appends; i++ {
				frame := r.append(fmt.Sprintf("owner-%03d", rng.Intn(shape.owners)), 20+rng.Intn(400))
				if r.logEntries <= every {
					everyWorth = r.logBytes
				}
				if st := r.s.RotationStatuses()[0]; st.LogBytes != r.logBytes || st.ImageBytes != image {
					t.Fatalf("append %d: store reports image %d / log %d bytes, the rig counted %d / %d",
						i, st.ImageBytes, st.LogBytes, image, r.logBytes)
				}
				if bound := max(everyWorth, image+frame); r.logBytes > bound {
					t.Fatalf("append %d: log since rotation is %d bytes over %d entries, bound %d (image %d, %d entries' worth %d)",
						i, r.logBytes, r.logEntries, bound, image, every, everyWorth)
				}
				due := r.s.RotateDue(0)
				if want := r.logEntries >= every && r.logBytes >= image; due != want {
					t.Fatalf("append %d: RotateDue = %v with %d entries, %d log bytes against a %d-byte image", i, due, r.logEntries, r.logBytes, image)
				}
				if !due {
					continue
				}
				if len(r.images) == 0 {
					firstLog = r.logBytes
				}
				if err := r.rotate(); err != nil {
					t.Fatal(err)
				}
				image = r.images[len(r.images)-1]
				var earlier int64
				for _, n := range r.images[:len(r.images)-1] {
					earlier += n
				}
				if paid := r.walBytes - firstLog; earlier > paid {
					t.Fatalf("rotation %d: earlier images total %d bytes, the log since the first one %d", len(r.images), earlier, paid)
				}
			}
			var total int64
			for _, n := range r.images {
				total += n
			}
			m := r.s.Metrics()
			if m.SnapshotBytes != total || m.Snapshots != int64(len(r.images)) {
				t.Fatalf("metrics count %d image bytes in %d rotations, the files totalled %d in %d", m.SnapshotBytes, m.Snapshots, total, len(r.images))
			}
			if len(r.images) < 3 {
				t.Fatalf("only %d rotations: the run does not exercise the policy", len(r.images))
			}
			if shape.window == 0 && total > 2*r.walBytes+r.images[0] {
				t.Fatalf("%d windowless rotations wrote %d image bytes against %d log bytes (first image %d): over twice the log",
					len(r.images), total, r.walBytes, r.images[0])
			}
			t.Logf("%d appends, %d log bytes; %d rotations, %d image bytes (%.2f of the log)",
				shape.appends, r.walBytes, len(r.images), total, float64(total)/float64(r.walBytes))
		})
	}
}

// TestMatureStoreNotDueUntilLogOutweighsImage is what reopening a mature
// directory must do: the image compaction wrote at Open is what the next
// rotation is measured against, so neither the windowed reopen nor a
// windowless reopen of the same (spilled) directory rotates at the entry
// floor — the rotation waits until the log has reached the compacted image's
// size. The recovered tenant keeps its shape: a tail under the live bound
// (twice the window) and a handful of coalesced refs, not one per spilled
// batch. The window is wide enough that the compacted tail alone outweighs
// the entry floor's log bytes.
func TestMatureStoreNotDueUntilLogOutweighsImage(t *testing.T) {
	const (
		window = 16
		every  = 8
		syncs  = 100
	)
	dir := t.TempDir()
	r := newPolicyRig(t, Options{Dir: dir, HistoryWindow: window, SnapshotEvery: every})
	for i := 0; i < syncs; i++ {
		r.append("o", 30)
		if r.s.RotateDue(0) {
			if err := r.rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.close()

	clock := uint64(syncs)
	for _, reopen := range []int{window, 0} {
		r := newPolicyRig(t, Options{Dir: dir, HistoryWindow: reopen, SnapshotEvery: every})
		st := r.states["o"]
		if st == nil || st.Clock != clock {
			t.Fatalf("window %d: recovered tenant shape wrong: %+v", reopen, st)
		}
		if reopen > 0 && len(st.Tail) >= 2*window {
			t.Fatalf("window %d: compaction left a %d-batch tail", reopen, len(st.Tail))
		}
		if len(st.Spilled) == 0 || len(st.Spilled) > 8 {
			t.Fatalf("window %d: recovered tenant holds %d segment refs for %d spilled batches — ref coalescing broken",
				reopen, len(st.Spilled), int(st.Clock)-len(st.Tail))
		}
		fi, err := os.Stat(snapshotPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		image := fi.Size()
		if got := r.s.RotationStatuses()[0]; got.ImageBytes != image || got.LogBytes != 0 || got.Age >= 0 {
			t.Fatalf("window %d: reopened status %+v, want the compacted image's %d bytes and an empty log", reopen, got, image)
		}
		for !r.s.RotateDue(0) {
			r.append("o", 30)
			clock++
			if r.logEntries > 10*syncs {
				t.Fatalf("window %d: never due", reopen)
			}
		}
		if r.logEntries <= every {
			t.Fatalf("window %d: due after %d entries — the %d-byte image did not bind, the test shape is wrong", reopen, r.logEntries, image)
		}
		if r.logBytes < image {
			t.Fatalf("window %d: due with %d log bytes against the compacted image's %d", reopen, r.logBytes, image)
		}
		r.close()
	}
}

// TestFailedRotationDoublesBytesRequired: a rotation that fails (the history
// writer latched, so no manifest may be written) is not retried until the log
// is twice as long as it was at the failure, and twice that after a second
// failure; meanwhile the WAL holds every entry and a restart recovers them all.
func TestFailedRotationDoublesBytesRequired(t *testing.T) {
	const every = 8
	dir := t.TempDir()
	r := newPolicyRig(t, Options{Dir: dir, SnapshotEvery: every})
	for !r.s.RotateDue(0) {
		r.append("o", 30)
	}
	if err := r.rotate(); err != nil {
		t.Fatal(err)
	}
	latched := errors.New("history device gone")
	r.s.hist[0].fail = latched
	for round := 0; round < 2; round++ {
		for !r.s.RotateDue(0) {
			r.append("o", 30)
		}
		atFailure := r.logBytes
		if err := r.rotate(); !errors.Is(err, latched) {
			t.Fatalf("round %d: rotate through a latched history writer returned %v", round, err)
		}
		if r.s.RotateDue(0) {
			t.Fatalf("round %d: due again straight after a failed rotation", round)
		}
		for !r.s.RotateDue(0) {
			r.append("o", 30)
		}
		if r.logBytes < 2*atFailure {
			t.Fatalf("round %d: due again at %d log bytes, failed at %d: want at least double", round, r.logBytes, atFailure)
		}
	}
	if m := r.s.Metrics(); m.Snapshots != 1 {
		t.Fatalf("%d rotations succeeded, want only the first", m.Snapshots)
	}
	want := r.states["o"].Clock
	r.close()

	s, states := openStore(t, dir, 1)
	defer s.Close()
	st := states["o"]
	if st == nil || st.Clock != want {
		t.Fatalf("recovered %+v after failed rotations, want clock %d", st, want)
	}
	if ledger := derivedLedger(t, s, st); ledger.Uses("m_update") != int(want)-1 {
		t.Fatalf("recovered ledger %s after failed rotations, want %d updates", ledger.Describe(), want-1)
	}
}
