package loadgen

import (
	"fmt"
	"os"
	"time"

	"dpsync/internal/cluster"
	"dpsync/internal/gateway"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
)

// target is what the fleet drives: an external gateway (addresses only), or
// the in-process topology the run owns — one gateway in memory or on a store
// (gw), or a primary and a follower on stores (a, b).
type target struct {
	cfg Config
	key []byte
	// dirs are the store directories, one per node: Config.StoreDir, or temp
	// directories the run removes.
	dirs []string
	gw   *gateway.Gateway
	a, b *cluster.Node
	// reg and tracer belong to the single node's current gateway (each open
	// gets its own registry, so sequential runs in one process never merge
	// series and every run measures the telemetry-on path production runs).
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	// aDead is set once the primary has been killed.
	aDead bool
}

// startTarget brings the target up: nothing for an external one; otherwise
// the key, the directories the topology needs, and its nodes, the follower
// attached before any load.
func startTarget(cfg Config) (*target, error) {
	t := &target{cfg: cfg, key: cfg.Key}
	if cfg.Addr != "" {
		return t, nil
	}
	if err := t.start(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *target) start() (err error) {
	if t.key == nil {
		if t.key, err = seal.NewRandomKey(); err != nil {
			return err
		}
	}
	nodes := 0
	switch {
	case t.cfg.Cluster:
		nodes = 2
	case t.cfg.StoreDir != "":
		t.dirs = []string{t.cfg.StoreDir}
	case t.cfg.Durable || t.cfg.Kill:
		nodes = 1
	}
	for len(t.dirs) < nodes {
		dir, err := os.MkdirTemp("", "dpsync-loadgen-*")
		if err != nil {
			return err
		}
		t.dirs = append(t.dirs, dir)
	}
	if !t.cfg.Cluster {
		_, err := t.open()
		return err
	}
	lease := cluster.NewMemLease(nil)
	node := func(id string, dir string) (*cluster.Node, error) {
		// Each node gets its own registry: both run in this process, and
		// shared series would merge the primary's counters with the follower's.
		return cluster.Start(cluster.Config{
			Addr: "127.0.0.1:0", NodeID: id, StoreDir: dir, Gateway: t.gatewayConfig(),
			Lease: lease, LeaseTTL: leaseTTL, Telemetry: telemetry.New(), Logger: t.cfg.Logger,
		})
	}
	if t.a, err = node("node-a", t.dirs[0]); err != nil {
		return err
	}
	if t.b, err = node("node-b", t.dirs[1]); err != nil {
		return err
	}
	if t.a.Role() != cluster.RolePrimary {
		return fmt.Errorf("loadgen: node-a did not start as primary")
	}
	return waitFor("the follower to attach", func() bool { return t.a.Stats().Hub.Followers == 1 })
}

// waitFor polls cond for up to five seconds.
func waitFor(what string, cond func() bool) error {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: timed out waiting for %s", what)
		}
	}
	return nil
}

// gatewayConfig is the serving configuration of every in-process gateway.
func (t *target) gatewayConfig() gateway.Config {
	return gateway.Config{
		Key: t.key, SyncEpsilon: syncEpsilon, Logger: t.cfg.Logger,
		SnapshotEvery: snapshotEvery, HistoryWindow: t.cfg.HistoryWindow,
	}
}

// open starts the single node's gateway — in memory, or on its directory,
// recovering whatever a previous gateway left there — and times it.
func (t *target) open() (time.Duration, error) {
	gc := t.gatewayConfig()
	t.reg = telemetry.New()
	gc.Telemetry = t.reg
	if t.cfg.TraceOut != "" {
		t.tracer = telemetry.NewTracer(t.cfg.TraceSample)
		gc.Tracer = t.tracer
	}
	if len(t.dirs) > 0 {
		gc.StoreDir = t.dirs[0]
	}
	start := time.Now()
	gw, err := gateway.New("127.0.0.1:0", gc)
	if err != nil {
		return 0, err
	}
	took := time.Since(start)
	go func() { _ = gw.Serve() }()
	t.gw = gw
	return took, nil
}

// restart stops the single node's gateway — gracefully, or the way a crash
// would — and replaces it with one recovered from its directory, which must
// hold every owner.
func (t *target) restart(rep *Report, graceful bool) error {
	if !graceful {
		t.gw.Kill()
	} else if err := t.gw.Close(); err != nil {
		return fmt.Errorf("loadgen: graceful close: %w", err)
	}
	took, err := t.open()
	if err != nil {
		return fmt.Errorf("loadgen: recovery: %w", err)
	}
	rep.RecoveryMs = float64(took.Nanoseconds()) / 1e6
	if rep.RecoveredOwners = t.gw.Recovery().Owners; rep.RecoveredOwners != t.cfg.Owners {
		return fmt.Errorf("loadgen: recovered %d owners, want %d", rep.RecoveredOwners, t.cfg.Owners)
	}
	return nil
}

// kill is the crash — no flush, no drain — and it starts the fleet's outage
// stopwatch. One node recovers from its directory at a new address, so the
// fleet hangs up first and re-dials after. A cluster's primary stays dead,
// its lease left to expire; the fleet keeps its connections, because rotating
// to the follower and resyncing what it lacks is what is under test.
func (t *target) kill(f *fleet, rep *Report) error {
	if t.cfg.Cluster {
		f.disrupted()
		t.a.Kill()
		t.aDead = true
		return nil
	}
	f.hangup()
	f.disrupted()
	if err := t.restart(rep, false); err != nil {
		return err
	}
	return f.dial(t)
}

// settle runs at the quiesced boundary that ends the first drive. A cluster's
// short drive can finish before the follower's tail is even scheduled; a kill
// then would promote an empty image and leave replication unmeasured, so the
// boundary waits for the first replicated entry.
func (t *target) settle(rep *Report, driven time.Duration) error {
	if !t.cfg.Cluster {
		return nil
	}
	if err := waitFor("the follower's first applied entry", func() bool { return t.b.Stats().Follower.Applied > 0 }); err != nil {
		return err
	}
	rep.ReplicaSyncsPerSec = float64(t.b.Stats().Follower.Applied) / driven.Seconds()
	return nil
}

// promoted waits, after a cluster's kill, for the follower to have flipped.
func (t *target) promoted(rep *Report) error {
	if !t.cfg.Cluster {
		return nil
	}
	select {
	case <-t.b.Promoted():
	case <-time.After(30 * leaseTTL):
		return fmt.Errorf("loadgen: node-b never promoted")
	}
	rep.PromoteMs = float64(t.b.Stats().Promotion) / 1e6
	return nil
}

// addrs is where the fleet dials: the write address, the node to rotate to
// when it dies, and the node queries are routed to.
func (t *target) addrs() (primary, standby, replica string) {
	switch {
	case t.a == nil && t.gw == nil:
		return t.cfg.Addr, "", t.cfg.ReplicaAddr
	case t.a == nil:
		return t.gw.Addr(), "", ""
	case t.cfg.Kill:
		return t.a.Addr(), t.b.Addr(), ""
	default:
		return t.a.Addr(), "", t.b.Addr()
	}
}

// serving is the gateway that holds the owners' state now.
func (t *target) serving() *gateway.Gateway {
	switch {
	case t.a == nil:
		return t.gw
	case t.aDead:
		return t.b.Gateway()
	default:
		return t.a.Gateway()
	}
}

// observe reads what the serving node holds for one owner.
func (t *target) observe(owner string) observation {
	gw := t.serving()
	return observation{pattern: gw.ObservedPattern(owner), ledger: gw.ObservedLedger(owner)}
}

// measure fills the server-side half of the report from the nodes as they
// stand when the drive has ended.
func (t *target) measure(rep *Report) {
	gw := t.serving()
	if gw == nil {
		return
	}
	rep.Durable = t.cfg.Durable
	rep.BackpressureSheds = gw.Sheds()
	if qs := gw.QueryCacheStats(); qs.Hits+qs.Misses > 0 {
		rep.QcacheHitRatio = float64(qs.Hits) / float64(qs.Hits+qs.Misses)
	}
	if m, ok := gw.StoreMetrics(); ok {
		rep.WALAppendUs = m.AvgAppendUs()
		if m.Commits > 0 {
			rep.WALGroupFactor = float64(m.Appends) / float64(m.Commits)
		}
		rep.WALSnapshots = m.Snapshots
		rep.HistoryWindow = gw.Store().Window()
		rep.SpillBatches, rep.SpillBytes, rep.SpillSegments = m.SpillBatches, m.SpillBytes, m.HistorySegments
	}
	if t.b == nil {
		return
	}
	st := t.b.Stats()
	rep.ReplicaApplied, rep.ReplicaSnapshots = st.Follower.Applied, st.Follower.Snapshots
	if st.Follower.Applied > 0 {
		rep.ReplicationLagMs = float64(st.Follower.LagNs) / float64(st.Follower.Applied) / 1e6
	}
	rep.PlaneQueries, rep.PlaneCacheHits, rep.PlaneCacheMisses = st.ReadPlane.Queries, st.ReadPlane.CacheHits, st.ReadPlane.CacheMisses
}

// close stops whatever is still running and removes the directories the run
// made.
func (t *target) close() {
	if t.gw != nil {
		t.gw.Close()
	}
	if t.a != nil {
		t.a.Close() // nothing, after a kill
	}
	if t.b != nil {
		t.b.Close()
	}
	if t.cfg.StoreDir == "" {
		for _, dir := range t.dirs {
			os.RemoveAll(dir)
		}
	}
}
