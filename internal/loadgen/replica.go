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

// ReplicaConfig parameterizes the read-replica harness: a two-node cluster
// (internal/cluster) where the primary ingests the full sync drive and the
// follower's replica-role gateway serves the analyst query mix. The client routes
// queries to the follower with client.WithReadReplica and falls back to the
// primary whenever the replica refuses (typed staleness, unknown owner, or
// a severed link) — the harness measures how much of the read load the
// follower actually absorbed.
type ReplicaConfig struct {
	Owners int
	Ticks  int
	// QueryMix is the analyst queries per owner per tick (default 4 — one
	// full Q1–Q4 cycle).
	QueryMix int
	// Conns passes through to the drive (default as in Config).
	Conns int
	// Shards configures both nodes' gateways (0 = GOMAXPROCS).
	Shards int
	// SyncEpsilon is the per-sync ledger charge on both nodes.
	SyncEpsilon float64
	// Seed drives the workload (default 1).
	Seed uint64
	// LeaseTTL is the cluster election lease (0 = 250ms, harness-scaled).
	LeaseTTL time.Duration
}

// ReplicaReport is the harness result: the drive's Report (whose Replica*
// fields are the client-side read-plane counters) plus the follower's own
// read-plane accounting.
type ReplicaReport struct {
	Report
	// PlaneQueries / PlaneStale are the follower-side totals: read requests
	// it served and typed freshness refusals it issued.
	PlaneQueries int64 `json:"replica_plane_queries"`
	PlaneStale   int64 `json:"replica_plane_stale,omitempty"`
	// PlaneCacheHits / PlaneCacheMisses are the replica's noise-reuse answer
	// cache counters; PlaneRebuilds counts tenants re-materialized from history
	// after a failed ingest (0 on a healthy replica).
	PlaneCacheHits   int64 `json:"replica_qcache_hits"`
	PlaneCacheMisses int64 `json:"replica_qcache_misses"`
	PlaneRebuilds    int64 `json:"replica_rebuilds"`
	// FollowerApplied is the replica's applied stream-entry count when the
	// drive finished — the freshness cursor the served answers were cut at.
	FollowerApplied uint64 `json:"replica_applied"`
}

// RunReplica executes the read-replica experiment.
func RunReplica(cfg ReplicaConfig) (ReplicaReport, error) {
	if cfg.Owners <= 0 || cfg.Ticks <= 0 {
		return ReplicaReport{}, fmt.Errorf("loadgen: replica harness needs owners and ticks > 0")
	}
	if cfg.QueryMix <= 0 {
		cfg.QueryMix = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 250 * time.Millisecond
	}
	key, err := seal.NewRandomKey()
	if err != nil {
		return ReplicaReport{}, err
	}
	dirA, err := os.MkdirTemp("", "dpsync-replica-a-*")
	if err != nil {
		return ReplicaReport{}, err
	}
	defer os.RemoveAll(dirA)
	dirB, err := os.MkdirTemp("", "dpsync-replica-b-*")
	if err != nil {
		return ReplicaReport{}, err
	}
	defer os.RemoveAll(dirB)

	lease := cluster.NewMemLease(nil)
	gwCfg := gateway.Config{
		Key: key, Shards: cfg.Shards, SyncEpsilon: cfg.SyncEpsilon, SnapshotEvery: 64,
	}
	a, err := cluster.Start(cluster.Config{
		Addr: "127.0.0.1:0", NodeID: "node-a", StoreDir: dirA,
		Gateway: gwCfg, Lease: lease, LeaseTTL: cfg.LeaseTTL,
		Telemetry: telemetry.New(),
	})
	if err != nil {
		return ReplicaReport{}, err
	}
	defer a.Close()
	b, err := cluster.Start(cluster.Config{
		Addr: "127.0.0.1:0", NodeID: "node-b", StoreDir: dirB,
		Gateway: gwCfg, Lease: lease, LeaseTTL: cfg.LeaseTTL,
		Telemetry: telemetry.New(),
	})
	if err != nil {
		return ReplicaReport{}, err
	}
	defer b.Close()
	if a.Role() != cluster.RolePrimary {
		return ReplicaReport{}, fmt.Errorf("node-a did not start as primary")
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		if a.Stats().Hub.Followers == 1 {
			break
		}
		if time.Now().After(deadline) {
			return ReplicaReport{}, fmt.Errorf("follower never attached to the primary")
		}
		time.Sleep(time.Millisecond)
	}

	rep, err := Run(Config{
		Owners: cfg.Owners, Ticks: cfg.Ticks,
		Addr: a.Addr(), Key: key, ReplicaAddr: b.Addr(),
		QueryMix: cfg.QueryMix, Conns: cfg.Conns,
		Seed: cfg.Seed, SyncEpsilon: cfg.SyncEpsilon,
	})
	if err != nil {
		return ReplicaReport{}, err
	}
	if rep.ReplicaServed == 0 {
		return ReplicaReport{}, fmt.Errorf("loadgen: follower served no queries (read plane unmeasured; %d fallbacks)",
			rep.ReplicaFallbacks)
	}

	st := b.Stats()
	return ReplicaReport{
		Report:           rep,
		PlaneQueries:     st.ReadPlane.Queries,
		PlaneStale:       st.ReadPlane.Stale,
		PlaneCacheHits:   st.ReadPlane.CacheHits,
		PlaneCacheMisses: st.ReadPlane.CacheMisses,
		PlaneRebuilds:    st.ReadPlane.Rebuilds,
		FollowerApplied:  st.Follower.Applied,
	}, nil
}
