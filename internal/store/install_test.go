package store

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dpsync/internal/dp"
	"dpsync/internal/leakage"
	"dpsync/internal/record"
)

// tenantView is what a tenant's durable state answers with: clock, the ε
// ledger its history's charges fold to, the transcript its history projects
// to, and that whole history as the frames StreamHistory yields.
type tenantView struct {
	Clock   uint64
	Ledger  *dp.Budget
	Events  []leakage.Event
	History [][]byte
}

func (v tenantView) equal(o tenantView) bool {
	return v.Clock == o.Clock && v.Ledger.Equal(o.Ledger) &&
		reflect.DeepEqual(v.Events, o.Events) && reflect.DeepEqual(v.History, o.History)
}

func viewOf(t *testing.T, s *Store, st *OwnerState) tenantView {
	t.Helper()
	history := collectHistory(t, s, st)
	v := tenantView{Clock: st.Clock, Ledger: ledgerOf(t, history)}
	for _, bt := range history {
		v.Events = append(v.Events, leakage.Event{Tick: record.Tick(bt.Tick), Volume: len(bt.Sealed), Flush: bt.Flush})
		frame, err := Entry{Owner: st.Owner, Batch: bt}.Frame()
		if err != nil {
			t.Fatal(err)
		}
		v.History = append(v.History, bytes.Clone(frame))
	}
	return v
}

// TestInstallCrashWindows builds every directory state a rotation's install
// passes through — the standing image and the log; the standing image moved
// aside with the new one still temporary; both images installed and the log
// not yet truncated; the new image alone beside a stale temporary file —
// and holds what Open recovers from each to the uninterrupted store, tenant
// for tenant, history included. Compaction then leaves exactly one image.
func TestInstallCrashWindows(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsync=%v", fsync), func(t *testing.T) {
			const window = 4
			opts := Options{Dir: t.TempDir(), Shards: 1, HistoryWindow: window, Fsync: fsync}
			s, _, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			owners := []*OwnerState{
				{Owner: "owner-a", Budget: dp.NewBudget()},
				{Owner: "owner-b", Budget: dp.NewBudget()},
				{Owner: "owner-c", Budget: dp.NewBudget()},
			}
			drive := func(from, to uint64) {
				for tick := from; tick <= to; tick++ {
					for _, st := range owners {
						e := testEntry(st.Owner, tick, tick == 1, fmt.Sprintf("%s-%d", st.Owner, tick))
						appendWait(t, s, 0, e)
						if err := st.Apply(e.Batch); err != nil {
							t.Fatal(err)
						}
						if err := s.EnforceWindow(0, st, window); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			rotate := func() []byte {
				image := make([]OwnerState, len(owners))
				for i, st := range owners {
					image[i] = *st
				}
				if err := s.Rotate(0, image); err != nil {
					t.Fatal(err)
				}
				img, err := os.ReadFile(snapshotPath(opts.Dir, 0))
				if err != nil {
					t.Fatal(err)
				}
				return img
			}
			drive(1, 10)
			standing := rotate()
			drive(11, 17)
			wal, err := os.ReadFile(segmentPath(opts.Dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			fresh := rotate()
			want := map[string]tenantView{}
			for _, st := range owners {
				v := viewOf(t, s, st)
				v.Ledger = st.Budget // what the uninterrupted store spent
				want[st.Owner] = v
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			history, err := filepath.Glob(filepath.Join(opts.Dir, "hist-*.seg"))
			if err != nil || len(history) == 0 {
				t.Fatalf("no history segments (%v): the windows never spilled", err)
			}

			const snap, aside, tmp, log = "shard-0000.snap", "shard-0000.prev.snap", "shard-0000.snap.tmp", "shard-0000.wal"
			for _, c := range []struct {
				name  string
				files map[string][]byte
			}{
				{"standing image + WAL", map[string][]byte{snap: standing, log: wal}},
				{"aside only + WAL", map[string][]byte{aside: standing, tmp: fresh, log: wal}},
				{"aside + new image + untruncated WAL", map[string][]byte{aside: standing, snap: fresh, log: wal}},
				{"new image + stale tmp", map[string][]byte{snap: fresh, tmp: fresh[:len(fresh)/2], log: segmentHeader()}},
			} {
				dir := t.TempDir()
				for _, path := range history {
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					c.files[filepath.Base(path)] = data
				}
				for name, data := range c.files {
					if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				o := opts
				o.Dir = dir
				s, states, err := Open(o)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				got := map[string]tenantView{}
				for owner, st := range states {
					got[owner] = viewOf(t, s, st)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if !maps.EqualFunc(got, want, tenantView.equal) {
					t.Fatalf("%s: recovered tenants differ from the uninterrupted store's", c.name)
				}
				var images []string
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, de := range entries {
					if isSnapshotName(de.Name()) || filepath.Ext(de.Name()) == ".tmp" {
						images = append(images, de.Name())
					}
				}
				sort.Strings(images)
				if !reflect.DeepEqual(images, []string{snap}) {
					t.Fatalf("%s: compaction left %v, want exactly %s", c.name, images, snap)
				}
			}
		})
	}
}
