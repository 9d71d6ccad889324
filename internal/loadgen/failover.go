package loadgen

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/cluster"
	"dpsync/internal/core"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
)

// FailoverConfig parameterizes the failover harness: for each seed, the same
// owner traces are driven through an uninterrupted in-memory reference
// gateway and through a two-node cluster (internal/cluster) whose primary is
// killed — no flush, no drain — at a seed-derived tick. The follower must
// win the lease, promote over its replicated prefix, and finish the trace
// through the reconnecting clients; the run fails unless every owner's
// transcript is bit-identical to the reference and every ε ledger equal.
type FailoverConfig struct {
	Owners int
	Ticks  int
	// Seeds drive the workload and the kill tick; each seed is one full
	// reference+failover experiment.
	Seeds []uint64
	// SyncEpsilon is the per-sync ledger charge (see gateway.Config).
	SyncEpsilon float64
	// Fsync passes through to both nodes' stores.
	Fsync bool
	// Shards configures every gateway in the experiment (0 = GOMAXPROCS).
	Shards int
	// HistoryWindow configures tiered history on both nodes (0 = full
	// history in RAM).
	HistoryWindow int
	// LeaseTTL is the election lease — the fencing window failover must wait
	// out after a kill (0 = 250ms, scaled for a harness rather than the
	// production DefaultLeaseTTL).
	LeaseTTL time.Duration
}

// FailoverRun is one seed's outcome.
type FailoverRun struct {
	Seed     uint64 `json:"seed"`
	KillTick int    `json:"kill_tick"`
	// FailoverMs is the client-observed outage: primary kill → first sync
	// acknowledged by the promoted follower. It contains the lease TTL the
	// successor waits out, so it is dominated by FailoverConfig.LeaseTTL.
	FailoverMs float64 `json:"failover_ms"`
	// PromoteMs is the promoted node's own share of that window: lease won →
	// serving as primary. The rest is the lease TTL the successor waits out,
	// its campaign, and the clients' redial and resync.
	PromoteMs float64 `json:"promote_ms"`
	// ReplicationLagMs is the mean primary-commit → replica-apply latency
	// over every entry the follower applied before promotion.
	ReplicationLagMs float64 `json:"replication_lag_ms"`
	// ReplicaSyncsPerSec is the follower's live-stream apply throughput over
	// the pre-kill phase of the drive.
	ReplicaSyncsPerSec float64 `json:"replica_syncs_per_sec"`
	// ReplicaApplied / ReplicaSnapshots are the follower's sealed counters at
	// promotion: stream entries folded into its WAL and snapshot transfers
	// it needed (nonzero means the catch-up ring had already trimmed past
	// its cursor at least once).
	ReplicaApplied   uint64 `json:"replica_applied"`
	ReplicaSnapshots uint64 `json:"replica_snapshots,omitempty"`
}

// FailoverReport is the harness result; Runs has one entry per seed, all
// verified (RunFailover errors instead of reporting an unverified run).
type FailoverReport struct {
	Owners int           `json:"owners"`
	Ticks  int           `json:"ticks"`
	Runs   []FailoverRun `json:"runs"`
}

// failoverTimer is the shared stopwatch: the kill instant, and the first
// sync acknowledged after it (CAS-once, any owner).
type failoverTimer struct {
	killedAt   atomic.Int64
	firstAfter atomic.Int64
}

func (t *failoverTimer) observe() {
	if t.killedAt.Load() != 0 {
		t.firstAfter.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// failoverProbe taps an owner's session to timestamp the first sync that
// completes after the kill — the client-observed end of the outage.
type failoverProbe struct {
	edb.Database
	timer *failoverTimer
}

func (p *failoverProbe) Setup(rs []record.Record) error {
	err := p.Database.Setup(rs)
	if err == nil {
		p.timer.observe()
	}
	return err
}

func (p *failoverProbe) Update(rs []record.Record) error {
	err := p.Database.Update(rs)
	if err == nil {
		p.timer.observe()
	}
	return err
}

// failoverFleet is the cluster run's client side: every owner multiplexed
// over one failover-aware connection (address rotation + unbounded resync).
// Resync is per session: an owner's unreplicated tail is re-uploaded by that
// owner's own resume handshake, which its next sync — or resumeAll — runs.
type failoverFleet struct {
	owners   []*core.Owner
	sessions []*client.OwnerSession
	conn     *client.GatewayConn
	timer    *failoverTimer
}

func (f *failoverFleet) dial(primary, standby string, key []byte, ticks int) error {
	conn, err := client.DialGateway(primary, key,
		client.WithAddrs(standby),
		client.WithReconnect(ticks),
		client.WithResyncWindow(-1),
	)
	if err != nil {
		return err
	}
	f.conn = conn
	return nil
}

func (f *failoverFleet) setup(n int, seed uint64) error {
	f.owners = make([]*core.Owner, n)
	f.sessions = make([]*client.OwnerSession, n)
	for i := 0; i < n; i++ {
		strat, err := ownerStrategy(i, seed)
		if err != nil {
			return err
		}
		f.sessions[i] = f.conn.Owner(ownerName(i))
		probe := &failoverProbe{Database: f.sessions[i], timer: f.timer}
		owner, err := core.New(core.Config{Strategy: strat, Database: probe})
		if err != nil {
			return err
		}
		if err := owner.Setup([]record.Record{{
			PickupTime: 0, PickupID: uint16(i%record.NumLocations + 1), Provider: record.YellowCab,
		}}); err != nil {
			return fmt.Errorf("owner %d setup: %w", i, err)
		}
		f.owners[i] = owner
	}
	return nil
}

// drive interleaves ticks from..to across all owners, identically to the
// crash harness (and thus to the reference fleet).
func (f *failoverFleet) drive(from, to int) error {
	for t := from; t <= to; t++ {
		for i, owner := range f.owners {
			phase := i % 3
			var err error
			if (t+phase)%3 == 0 {
				err = owner.Tick(record.Record{
					PickupTime: record.Tick(t),
					PickupID:   uint16((i+t)%record.NumLocations + 1),
					Provider:   record.YellowCab,
				})
			} else {
				err = owner.Tick()
			}
			if err != nil {
				return fmt.Errorf("owner %d tick %d: %w", i, t, err)
			}
		}
	}
	return nil
}

// resumeAll runs every owner's resume handshake against whichever node is
// serving. An owner whose strategy posts no sync in the few post-kill ticks
// would otherwise never learn the promoted node is missing its acked tail
// (the syncs the dead primary committed but had not shipped), and the
// harness would compare a transcript nobody had yet been asked to heal.
func (f *failoverFleet) resumeAll() error {
	for i, s := range f.sessions {
		if err := s.Resume(); err != nil {
			return fmt.Errorf("owner %d resume: %w", i, err)
		}
	}
	return nil
}

// RunFailover executes the failover experiment for every seed.
func RunFailover(cfg FailoverConfig) (FailoverReport, error) {
	// Ticks ≥ 6 guarantees at least three post-kill ticks, which guarantees
	// a record tick for the always-sync SUR owners — the sync that forces
	// the reconnect (and resync of every owner) the measurement needs.
	if cfg.Owners <= 0 || cfg.Ticks < 6 {
		return FailoverReport{}, fmt.Errorf("loadgen: failover harness needs owners > 0 and ticks >= 6")
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []uint64{1, 2, 3}
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 250 * time.Millisecond
	}
	rep := FailoverReport{Owners: cfg.Owners, Ticks: cfg.Ticks}
	for _, seed := range cfg.Seeds {
		run, err := runFailoverSeed(cfg, seed)
		if err != nil {
			return FailoverReport{}, fmt.Errorf("loadgen: seed %d: %w", seed, err)
		}
		rep.Runs = append(rep.Runs, run)
	}
	return rep, nil
}

func runFailoverSeed(cfg FailoverConfig, seed uint64) (FailoverRun, error) {
	key, err := seal.NewRandomKey()
	if err != nil {
		return FailoverRun{}, err
	}

	// Uninterrupted reference: the same traces through an in-memory gateway
	// (the crash harness fleet drives the identical tick schedule).
	refGW, err := gateway.New("127.0.0.1:0", gateway.Config{
		Key: key, Shards: cfg.Shards, SyncEpsilon: cfg.SyncEpsilon,
	})
	if err != nil {
		return FailoverRun{}, err
	}
	go func() { _ = refGW.Serve() }()
	ref := &crashFleet{}
	if err := ref.dial(refGW.Addr(), key); err != nil {
		refGW.Close()
		return FailoverRun{}, err
	}
	if err := ref.setup(cfg.Owners, seed); err == nil {
		err = ref.drive(1, cfg.Ticks)
	}
	if err != nil {
		ref.conn.Close()
		refGW.Close()
		return FailoverRun{}, err
	}
	wantPattern := make([]string, cfg.Owners)
	wantLedger := make([]string, cfg.Owners)
	for i := 0; i < cfg.Owners; i++ {
		wantPattern[i] = refGW.ObservedPattern(ownerName(i)).String()
		b, err := refGW.ObservedLedger(ownerName(i)).MarshalBinary()
		if err != nil {
			ref.conn.Close()
			refGW.Close()
			return FailoverRun{}, err
		}
		wantLedger[i] = string(b)
	}
	ref.conn.Close()
	if err := refGW.Close(); err != nil {
		return FailoverRun{}, err
	}

	// Two-node cluster: node-a takes the lease, node-b follows. The kill
	// lands at a seed-derived tick boundary chosen to leave at least three
	// ticks for the promoted node to serve.
	killTick := 1 + int(seed%uint64(cfg.Ticks-3))
	dirA, err := os.MkdirTemp("", "dpsync-failover-a-*")
	if err != nil {
		return FailoverRun{}, err
	}
	defer os.RemoveAll(dirA)
	dirB, err := os.MkdirTemp("", "dpsync-failover-b-*")
	if err != nil {
		return FailoverRun{}, err
	}
	defer os.RemoveAll(dirB)

	lease := cluster.NewMemLease(nil)
	gwCfg := gateway.Config{
		Key: key, Shards: cfg.Shards, SyncEpsilon: cfg.SyncEpsilon,
		Fsync: cfg.Fsync, SnapshotEvery: 64, HistoryWindow: cfg.HistoryWindow,
	}
	// Each node gets its own registry: the harness runs both nodes in one
	// process, and shared series would merge the primary's and follower's
	// counters into nonsense. This also keeps the failover measurement on
	// the telemetry-on code path, same as production.
	a, err := cluster.Start(cluster.Config{
		Addr: "127.0.0.1:0", NodeID: "node-a", StoreDir: dirA,
		Gateway: gwCfg, Lease: lease, LeaseTTL: cfg.LeaseTTL,
		Telemetry: telemetry.New(),
	})
	if err != nil {
		return FailoverRun{}, err
	}
	defer a.Kill()
	b, err := cluster.Start(cluster.Config{
		Addr: "127.0.0.1:0", NodeID: "node-b", StoreDir: dirB,
		Gateway: gwCfg, Lease: lease, LeaseTTL: cfg.LeaseTTL,
		Telemetry: telemetry.New(),
	})
	if err != nil {
		return FailoverRun{}, err
	}
	defer b.Close()
	if a.Role() != cluster.RolePrimary {
		return FailoverRun{}, fmt.Errorf("node-a did not start as primary")
	}
	// Wait for the follower to attach before loading, so the replication
	// throughput measurement covers the whole drive.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if a.Stats().Hub.Followers == 1 {
			break
		}
		if time.Now().After(deadline) {
			return FailoverRun{}, fmt.Errorf("follower never attached to the primary")
		}
		time.Sleep(time.Millisecond)
	}

	timer := &failoverTimer{}
	fleet := &failoverFleet{timer: timer}
	if err := fleet.dial(a.Addr(), b.Addr(), key, cfg.Ticks); err != nil {
		return FailoverRun{}, err
	}
	defer fleet.conn.Close()
	driveStart := time.Now()
	if err := fleet.setup(cfg.Owners, seed); err == nil {
		err = fleet.drive(1, killTick)
	}
	if err != nil {
		return FailoverRun{}, err
	}
	// The short pre-kill drive can finish before the follower's tail
	// goroutine is even scheduled. A kill then still heals (purely from the
	// clients' resync windows) but promotes an empty image and leaves
	// replication lag and replica throughput unmeasured — so the kill waits
	// for the first replicated entry, as the load waited for the attach.
	for deadline := time.Now().Add(5 * time.Second); b.Stats().Follower.Applied == 0; {
		if time.Now().After(deadline) {
			return FailoverRun{}, fmt.Errorf("follower applied nothing before the kill")
		}
		time.Sleep(time.Millisecond)
	}
	liveElapsed := time.Since(driveStart)
	appliedAtKill := b.Stats().Follower.Applied

	// Kill the primary — crash semantics: no flush, no drain, the lease left
	// to expire. The remaining ticks drive through the client's failover
	// path: rotate to node-b, wait out its refusals, resync, finish.
	timer.killedAt.Store(time.Now().UnixNano())
	a.Kill()
	if err := fleet.drive(killTick+1, cfg.Ticks); err != nil {
		return FailoverRun{}, err
	}
	select {
	case <-b.Promoted():
	case <-time.After(30 * cfg.LeaseTTL):
		return FailoverRun{}, fmt.Errorf("node-b never promoted")
	}
	first := timer.firstAfter.Load()
	if first == 0 {
		return FailoverRun{}, fmt.Errorf("no sync completed after the kill (failover unmeasured)")
	}
	if err := fleet.resumeAll(); err != nil {
		return FailoverRun{}, err
	}

	// Continuity: every owner's transcript and ledger on the promoted node
	// must be bit-identical to the uninterrupted reference.
	gw := b.Gateway()
	if gw == nil {
		return FailoverRun{}, fmt.Errorf("promoted node has no serving gateway")
	}
	for i := 0; i < cfg.Owners; i++ {
		if got := gw.ObservedPattern(ownerName(i)).String(); got != wantPattern[i] {
			return FailoverRun{}, fmt.Errorf("%s transcript diverged at kill tick %d:\n got: %s\nwant: %s",
				ownerName(i), killTick, got, wantPattern[i])
		}
		lb, err := gw.ObservedLedger(ownerName(i)).MarshalBinary()
		if err != nil {
			return FailoverRun{}, err
		}
		if string(lb) != wantLedger[i] {
			return FailoverRun{}, fmt.Errorf("%s ledger diverged at kill tick %d (double spend or lost charge)",
				ownerName(i), killTick)
		}
	}

	st := b.Stats().Follower
	run := FailoverRun{
		Seed:             seed,
		KillTick:         killTick,
		FailoverMs:       float64(first-timer.killedAt.Load()) / 1e6,
		PromoteMs:        float64(b.Stats().Promotion) / 1e6,
		ReplicaApplied:   st.Applied,
		ReplicaSnapshots: st.Snapshots,
	}
	if st.Applied > 0 {
		run.ReplicationLagMs = float64(st.LagNs) / float64(st.Applied) / 1e6
	}
	if s := liveElapsed.Seconds(); s > 0 {
		run.ReplicaSyncsPerSec = float64(appliedAtKill) / s
	}
	return run, nil
}
