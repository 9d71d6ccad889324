package main

import (
	"fmt"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/query"
	"dpsync/internal/seal"
)

// conns is the generator's connection count. Owners are split across them
// by index; each is a pipelined client.GatewayConn.
const conns = 2

// span is one timed call: the layer ladder records one per rung per
// request, the traced repetition one per operation under load. Times are
// nanoseconds since the trace began; Parent is the ID of the span that
// caused this one (0 for a root) and spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// repResult is one repetition: fresh server, fresh store, the workload's
// whole fixed work, every output check.
type repResult struct {
	SetupS     float64
	Elapsed    time.Duration // the loaded phase
	Syncs      int
	Queries    int // under load; the read-back sweep's are not counted here
	SyncLatMs  []float64
	QueryLatMs []float64
	// LoadSegNs and SweepSegNs are the loaded phase's and the read-back
	// sweep's segment times (see bestRate).
	LoadSegNs   []float64
	SweepSegNs  []float64
	Attempted   int
	Failed      int
	WireBytes   int64
	RecoveryMs  float64
	DiskPerUser float64
	// CheckErrs are output checks that did not hold; the run is incorrect
	// if any repetition has one.
	CheckErrs []string

	LoadgenCPU  time.Duration
	ServerCPU   time.Duration
	FollowerCPU time.Duration
	PeakRSSMB   float64
	ReplLagMs   float64
	Served      int64 // replica reads answered by the follower
	Stale       int64
	Fallbacks   int64
	// Varz is the primary's (or only server's) /varz after the last ack and
	// FollowerVarz the follower's; Spans one span per operation. Traced
	// repetitions only.
	Varz         map[string]any
	FollowerVarz map[string]any
	Spans        []span
}

func (r *repResult) ops() int { return r.Syncs + r.Queries }

// syncPerSWall is syncs over the loaded phase's whole wall time.
func (r *repResult) syncPerSWall() float64 { return float64(r.Syncs) / r.Elapsed.Seconds() }

// segments is how many equal runs of consecutive completions a phase is cut
// into for bestRate.
const segments = 50

// segmentTimes cuts a phase's completions, in the order they happened, into
// n equal runs and returns how long each took, in nanoseconds. doneNs holds
// each operation's completion time since the phase began; it is sorted in
// place.
func segmentTimes(doneNs []float64, n int) []float64 {
	sort.Float64s(doneNs)
	out := make([]float64, n)
	prev := 0.0
	for j := range out {
		if last := (j+1)*len(doneNs)/n - 1; last >= 0 {
			out[j] = doneNs[last] - prev
			prev = doneNs[last]
		}
	}
	return out
}

// bestRate is operations per second when every segment of the work takes
// the least time any repetition took for it. The sandbox's noise is
// one-sided — the hypervisor takes the CPUs away for milliseconds to tens
// of seconds, which moved whole-phase throughput 3x between identical
// repetitions — and it strikes different segments in different
// repetitions, so the per-segment minimum drops it. The program's own
// stalls (a snapshot rotation every so many entries) are a function of the
// work done, fall in the same segment every time, and stay in.
func bestRate(reps [][]float64, ops int) float64 {
	if len(reps) == 0 {
		return 0
	}
	var total float64
	for j := range reps[0] {
		best := reps[0][j]
		for _, r := range reps[1:] {
			best = math.Min(best, r[j])
		}
		total += best
	}
	if total == 0 {
		return 0
	}
	return float64(ops) / total * 1e9
}

// generatorBound reports whether the repetition measured the generator and
// not the server: the generator's CPU was nearly saturated, or it used more
// CPU than the server it was loading.
func (r *repResult) generatorBound() bool {
	if r.ServerCPU == 0 {
		return false // in-process: no separate server to compare with
	}
	return r.LoadgenCPU.Seconds() > 0.9*r.Elapsed.Seconds() || r.ServerCPU+r.FollowerCPU < r.LoadgenCPU
}

func (r *repResult) checkf(format string, args ...any) {
	if len(r.CheckErrs) < 8 {
		r.CheckErrs = append(r.CheckErrs, fmt.Sprintf(format, args...))
	}
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// visitOrder is the seeded order in which each round visits the owners.
func visitOrder(seed uint64, owners int) []int {
	return rand.New(rand.NewPCG(seed, 0x6f72646572)).Perm(owners)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// closedLoop runs fn(0..n-1) from inflight workers, each starting its next
// call when its previous one returns.
func closedLoop(n, inflight int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < inflight; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// fleet is the generator's view of a running topology.
type fleet struct {
	w        spec
	in       *inputs
	dir      string
	key      []byte
	opts     serverOpts // the primary's, kept for its restart
	primary  server
	follower server
	conns    []*client.GatewayConn
	sessions []*client.OwnerSession
}

// dial replaces the generator's connections; with viaFollower, reads are
// routed to the follower's read plane.
func (f *fleet) dial(viaFollower bool) error {
	f.close()
	var opts []client.GatewayOption
	if viaFollower {
		opts = append(opts, client.WithReadReplica(f.follower.Addr()))
	}
	for i := 0; i < conns; i++ {
		c, err := client.DialGateway(f.primary.Addr(), f.key, opts...)
		if err != nil {
			return err
		}
		f.conns = append(f.conns, c)
	}
	f.sessions = make([]*client.OwnerSession, len(f.in.Owners))
	for i, o := range f.in.Owners {
		f.sessions[i] = f.conns[i%conns].Owner(o.Name)
	}
	return nil
}

func (f *fleet) close() {
	for _, c := range f.conns {
		c.Close()
	}
	f.conns = nil
}

func (f *fleet) wireBytes() int64 {
	var n int64
	for _, c := range f.conns {
		n += c.BytesIn() + c.BytesOut()
	}
	return n
}

// waitVarz polls until cond holds on the server's /varz.
func waitVarz(s server, what string, cond func(map[string]any) bool) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		m, err := s.Varz()
		if err != nil {
			return err
		}
		if cond(m) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the generator's connections, kills the servers and removes
// their directory.
func (f *fleet) stop() {
	f.close()
	if f.follower != nil {
		f.follower.Kill()
	}
	if f.primary != nil {
		f.primary.Kill()
	}
	os.RemoveAll(f.dir)
}

// startFleet brings w's topology up in dir, under a fresh data key, and
// runs every owner's Setup. It returns the time from the first server's
// spawn to the last Setup ack. The caller stops the fleet, also when an
// error comes with it.
func startFleet(w spec, in *inputs, l launcher, dir string) (*fleet, float64, error) {
	f := &fleet{w: w, in: in, dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return f, 0, err
	}
	key, err := seal.NewRandomKey()
	if err != nil {
		return f, 0, err
	}
	f.key = key
	start := time.Now()
	f.opts = serverOpts{Key: key, Tiered: w.Durable}
	if w.Durable || w.Replica {
		f.opts.StoreDir = filepath.Join(dir, "primary")
	}
	if w.Replica {
		f.opts.LeaseFile = filepath.Join(dir, "lease")
	}
	if f.primary, err = l.Start(f.opts); err != nil {
		return f, 0, err
	}
	if w.Replica {
		f.follower, err = l.Start(serverOpts{Key: key, StoreDir: filepath.Join(dir, "follower"), ReplicaOf: f.primary.Addr()})
		if err != nil {
			return f, 0, err
		}
		err = waitVarz(f.primary, "the follower to attach", func(m map[string]any) bool { return varzNum(m, "repl_followers") == 1 })
		if err != nil {
			return f, 0, err
		}
	}
	if err := f.dial(w.Replica); err != nil {
		return f, 0, err
	}
	var setupErr atomic.Pointer[error]
	closedLoop(len(in.Owners), w.InFlight, func(i int) {
		if err := f.sessions[i].Setup(in.Owners[i].Setup); err != nil {
			setupErr.Store(&err)
		}
	})
	if e := setupErr.Load(); e != nil {
		return f, 0, fmt.Errorf("owner setup: %w", *e)
	}
	return f, time.Since(start).Seconds(), nil
}

// quiesce waits until the follower has applied everything the primary has
// committed.
func (f *fleet) quiesce() error {
	pm, err := f.primary.Varz()
	if err != nil {
		return err
	}
	committed := varzNum(pm, "gateway_committed_entries_total")
	return waitVarz(f.follower, "the follower to catch up", func(m map[string]any) bool {
		return varzNum(m, "cluster_repl_applied_total") >= committed
	})
}

// runRep executes one repetition of w in a fresh directory under dir.
func runRep(w spec, in *inputs, seed uint64, l launcher, dir string, traced bool) (*repResult, error) {
	res := &repResult{}
	f, setupS, err := startFleet(w, in, l, dir)
	defer f.stop()
	if err != nil {
		return nil, err
	}
	res.SetupS = setupS

	// The loaded phase: every owner's visits, round by round, in a seeded
	// owner order, so one owner's next visit is a whole round away.
	order := visitOrder(seed, len(in.Owners))
	visits := len(in.Owners) * w.Visits
	res.Syncs, res.Queries = visits, visits*w.Queries
	res.SyncLatMs = make([]float64, res.Syncs)
	res.QueryLatMs = make([]float64, res.Queries)
	doneNs := make([]float64, res.Syncs+res.Queries)
	acked := make([]atomic.Int32, len(in.Owners))
	var failed atomic.Int64
	var spans [][]span // per visit, so workers never share a slice
	if traced {
		spans = make([][]span, visits)
	}
	cpu0, srv0, wire0 := selfCPU(), f.primary.CPU(), f.wireBytes()
	var fol0 time.Duration
	if f.follower != nil {
		fol0 = f.follower.CPU()
	}
	start := time.Now()
	closedLoop(visits, w.InFlight, func(v int) {
		oi := order[v%len(order)]
		sess, o := f.sessions[oi], &in.Owners[oi]
		t := time.Now()
		if err := sess.Update(o.Batches[v/len(order)]); err != nil {
			failed.Add(1)
		} else {
			acked[oi].Add(1)
		}
		res.SyncLatMs[v] = msSince(t)
		doneNs[v*(1+w.Queries)] = float64(time.Since(start).Nanoseconds())
		if traced {
			spans[v] = append(spans[v], span{Name: "sync", Start: t.Sub(start).Nanoseconds(), End: time.Since(start).Nanoseconds()})
		}
		for q := 0; q < w.Queries; q++ {
			t := time.Now()
			if _, _, err := sess.Query(queryKinds[q%len(queryKinds)]); err != nil {
				failed.Add(1)
			}
			res.QueryLatMs[v*w.Queries+q] = msSince(t)
			doneNs[v*(1+w.Queries)+1+q] = float64(time.Since(start).Nanoseconds())
			if traced {
				spans[v] = append(spans[v], span{Name: "query", Start: t.Sub(start).Nanoseconds(), End: time.Since(start).Nanoseconds()})
			}
		}
	})
	res.Elapsed = time.Since(start)
	res.LoadgenCPU = selfCPU() - cpu0
	res.ServerCPU = f.primary.CPU() - srv0
	res.WireBytes = f.wireBytes() - wire0
	res.LoadSegNs = segmentTimes(doneNs, segments)

	if f.follower != nil {
		if err := f.quiesce(); err != nil {
			return nil, err
		}
		res.ReplLagMs = msSince(start.Add(res.Elapsed))
		res.FollowerCPU = f.follower.CPU() - fol0
	}
	if traced {
		if res.Varz, err = f.primary.Varz(); err != nil {
			return nil, err
		}
		if f.follower != nil {
			if res.FollowerVarz, err = f.follower.Varz(); err != nil {
				return nil, err
			}
		}
		id := 0
		for v, vs := range spans {
			id++
			visit := span{ID: id, Req: v, Name: "visit", Start: vs[0].Start, End: vs[len(vs)-1].End}
			res.Spans = append(res.Spans, visit)
			for _, s := range vs {
				id++
				s.ID, s.Parent, s.Req = id, visit.ID, v
				res.Spans = append(res.Spans, s)
			}
		}
	}
	res.PeakRSSMB = f.primary.PeakRSSMB()
	for _, c := range f.conns {
		served, stale, fallbacks := c.ReplicaStats()
		res.Served += served
		res.Stale += stale
		res.Fallbacks += fallbacks
	}

	// Output checks. The read-back sweep is also where the two sync-only
	// workloads get their query numbers: every query in it is the first
	// after a sync, so all of them miss the answer cache.
	sweepLat := f.readBack(res, acked)
	if w.Queries == 0 {
		res.QueryLatMs = sweepLat
	}
	if w.Replica {
		// The sweep above went through the follower; this one asks the
		// primary, so both are held to the same truth.
		if err := f.dial(false); err != nil {
			return nil, err
		}
		f.readBack(res, acked)
	}
	if w.Durable {
		if err := f.crashAndRecover(res, l, acked); err != nil {
			return nil, err
		}
	}
	res.Failed = int(failed.Load())
	res.Attempted = visits * (1 + w.Queries)
	return res, nil
}

// readBack checks every owner's remote update count against the syncs it
// had acked and its final Q1–Q4 answers against the harness's own
// aggregate over the real records sent. It returns the query latencies and
// sets res.SweepSegNs.
func (f *fleet) readBack(res *repResult, acked []atomic.Int32) []float64 {
	lat := make([]float64, len(f.sessions)*len(queryKinds))
	doneNs := make([]float64, len(lat))
	// The harness's own answers first, so the sweep times only the server's.
	wants := make([]query.Answer, len(lat))
	for i := range f.in.Owners {
		truth := f.in.Owners[i].truth(int(acked[i].Load()))
		for q, kind := range queryKinds {
			var err error
			if wants[i*len(queryKinds)+q], err = truth.AnswerFor(kind); err != nil {
				res.checkf("%s %v truth: %v", f.in.Owners[i].Name, kind.Kind, err)
			}
		}
	}
	var mu sync.Mutex
	start := time.Now()
	closedLoop(len(f.sessions), f.w.InFlight, func(i int) {
		sess, o := f.sessions[i], &f.in.Owners[i]
		for q, kind := range queryKinds {
			t := time.Now()
			got, _, err := sess.Query(kind)
			lat[i*len(queryKinds)+q] = msSince(t)
			doneNs[i*len(queryKinds)+q] = float64(time.Since(start).Nanoseconds())
			want := wants[i*len(queryKinds)+q]
			mu.Lock()
			switch {
			case err != nil:
				res.checkf("%s %v: %v", o.Name, kind.Kind, err)
			case got.L1(want) != 0:
				res.checkf("%s %v: answer differs from the records sent (L1 %g)", o.Name, kind.Kind, got.L1(want))
			}
			mu.Unlock()
		}
	})
	res.SweepSegNs = segmentTimes(doneNs, segments)
	f.checkStats(res, acked)
	return lat
}

// checkStats holds every owner's server-side update and record counts to
// what the owner had acknowledged.
func (f *fleet) checkStats(res *repResult, acked []atomic.Int32) {
	var mu sync.Mutex
	closedLoop(len(f.sessions), f.w.InFlight, func(i int) {
		o := &f.in.Owners[i]
		n := int(acked[i].Load())
		records := len(o.Setup)
		for _, b := range o.Batches[:n] {
			records += len(b)
		}
		st, err := f.sessions[i].RemoteStats()
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			res.checkf("%s stats: %v", o.Name, err)
		case st.Updates != n+1 || st.Records != records:
			res.checkf("%s: server holds %d updates / %d records, owner had %d / %d acked",
				o.Name, st.Updates, st.Records, n+1, records)
		}
	})
}

// crashAndRecover measures the store's size against the sealed payload it
// carries, SIGKILLs the server, restarts it on the same directory and
// checks that every acknowledged sync is still there. A process kill leaves
// the operating system's page cache intact, so this is process-crash
// durability: it says nothing about what a power loss would keep.
func (f *fleet) crashAndRecover(res *repResult, l launcher, acked []atomic.Int32) error {
	disk, err := dirBytes(f.opts.StoreDir)
	if err != nil {
		return err
	}
	var user int64
	for i := range f.in.Owners {
		o := &f.in.Owners[i]
		user += int64(len(o.Setup)) * seal.SealedSize
		for _, b := range o.Batches[:acked[i].Load()] {
			user += int64(len(b)) * seal.SealedSize
		}
	}
	res.DiskPerUser = float64(disk) / float64(user)
	res.PeakRSSMB = f.primary.PeakRSSMB()
	f.close()
	f.primary.Kill()
	restart := time.Now()
	if f.primary, err = l.Start(f.opts); err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	if err := f.dial(false); err != nil {
		return err
	}
	f.checkStats(res, acked)
	res.RecoveryMs = msSince(restart)
	return nil
}
