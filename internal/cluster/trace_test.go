package cluster_test

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/cluster"
	"dpsync/internal/gateway"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
)

// startTracedNode is startNode with a per-node tracer attached and an
// optional pinned-standby target, for the tracing/readiness tests.
func startTracedNode(t *testing.T, id string, lease cluster.Lease, key []byte, tracer *telemetry.Tracer, replicaOf string, dialer func(string) (net.Conn, error)) *cluster.Node {
	t.Helper()
	n, err := cluster.Start(cluster.Config{
		Addr:     "127.0.0.1:0",
		NodeID:   id,
		StoreDir: t.TempDir(),
		Gateway: gateway.Config{
			Key: key, Shards: 2,
			SnapshotEvery: 16, HistoryWindow: 8,
			SyncEpsilon: failoverSyncEps,
			Tracer:      tracer,
		},
		Lease:     lease,
		LeaseTTL:  failoverTTL,
		Heartbeat: 20 * time.Millisecond,
		RingSize:  64,
		ReplicaOf: replicaOf,
		Dialer:    dialer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func waitReady(t *testing.T, n *cluster.Node, want bool, within time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		ok, reason := n.Ready()
		if ok == want {
			return reason
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s readiness stuck at %v (%s), want %v", n.Addr(), ok, reason, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPrimaryUnreadyOnCommitLatch pins the /healthz flip on the primary
// side: a failed group commit latches the store unhealthy, and the node
// stops advertising ready even though it still holds the lease.
func TestPrimaryUnreadyOnCommitLatch(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	a := startTracedNode(t, "node-a", cluster.NewMemLease(nil), key, nil, "", nil)
	if ok, reason := a.Ready(); !ok {
		t.Fatalf("fresh primary unready: %s", reason)
	}

	conn, err := client.DialGateway(a.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-latch")
	if err := own.Setup([]record.Record{yellow(0, 1)}); err != nil {
		t.Fatal(err)
	}

	a.Gateway().Store().SetCommitFailpoint(true)
	// The failed sync surfaces as a client error AND latches Healthy false.
	if err := own.Update([]record.Record{yellow(1, 2)}); err == nil {
		t.Fatal("update succeeded through a failing WAL commit")
	}
	reason := waitReady(t, a, false, 2*time.Second)
	if !strings.Contains(reason, "commit error") {
		t.Fatalf("unready reason = %q, want a WAL commit-error reason", reason)
	}

	// The latch is one-way: clearing the failpoint does not un-suspend the
	// affected tenants, so readiness must stay down until a restart.
	a.Gateway().Store().SetCommitFailpoint(false)
	if ok, reason := a.Ready(); ok {
		t.Fatalf("readiness un-latched without a restart: %s", reason)
	}
	if st := a.StatusText(); !strings.Contains(st, "store: UNHEALTHY") {
		t.Fatalf("statusz does not surface the latch:\n%s", st)
	}
}

// TestFollowerReadinessTracksPrimaryContact pins the /healthz flip on the
// follower side, both directions: a pinned standby is unready before its
// first primary contact, ready while heartbeats arrive, and unready again
// once the primary has been silent past the staleness bound.
func TestFollowerReadinessTracksPrimaryContact(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	a := startTracedNode(t, "node-a", cluster.NewMemLease(nil), key, nil, "", nil)

	// The standby's dial is gated: until released it provably has had no
	// primary contact, making the before-contact assertion deterministic.
	gate := make(chan struct{})
	dialer := func(addr string) (net.Conn, error) {
		<-gate
		return net.Dial("tcp", addr)
	}
	b := startTracedNode(t, "node-b", nil, key, nil, a.Addr(), dialer)
	if ok, reason := b.Ready(); ok || !strings.Contains(reason, "no primary contact") {
		t.Fatalf("gated standby Ready = %v (%s), want unready before contact", ok, reason)
	}

	close(gate)
	reason := waitReady(t, b, true, 5*time.Second)
	if !strings.Contains(reason, "replicating") {
		t.Fatalf("ready reason = %q", reason)
	}

	// Kill the primary: heartbeats stop, and once the silence crosses the
	// bound (max(6×heartbeat, 1s)) the standby must flip unready.
	a.Kill()
	reason = waitReady(t, b, false, 5*time.Second)
	if !strings.Contains(reason, "silent") && !strings.Contains(reason, "not replicating") {
		t.Fatalf("post-kill unready reason = %q", reason)
	}
}

// TestClusterTraceSpanTree is the tracing acceptance test: with every
// request sampled, one durable clustered sync must yield a complete,
// correctly parented span tree — client-admit at the root; queue-wait,
// apply, and the WAL flush under it; the entry's wal-commit under the
// flush; the replication ship under the commit — and, on the follower, an
// apply fragment that joined the same trace via the context the replication
// codec propagated, parented to the ship span.
func TestClusterTraceSpanTree(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := cluster.NewMemLease(nil)
	trA := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})
	trB := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})
	a := startTracedNode(t, "node-a", lease, key, trA, "", nil)
	b := startTracedNode(t, "node-b", lease, key, trB, "", nil)

	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Hub.Followers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never connected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	conn, err := client.DialGateway(a.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-traced")
	if err := own.Setup([]record.Record{yellow(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := own.Update([]record.Record{yellow(1, 2)}); err != nil {
		t.Fatal(err)
	}
	for b.Stats().Follower.Applied < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %+v", b.Stats().Follower)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The ship span is completed by the sender after its flush, and the
	// follower publishes its fragment on its own clock — poll until a trace
	// on the primary carries a finished repl-ship span whose trace ID also
	// has a follower fragment.
	var full telemetry.TraceSnap
	var frag telemetry.SpanSnap
	for {
		full, frag = findShippedTrace(trA.Dump(), trB.Dump())
		if full.TraceID != "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if full.TraceID == "" {
		t.Fatalf("no trace with a shipped span tree and follower fragment\nprimary: %+v\nfollower: %+v",
			trA.Dump(), trB.Dump())
	}

	span := map[string]telemetry.SpanSnap{}
	for _, s := range full.Spans {
		span[s.Name] = s
	}
	root := span["client-admit"]
	if root.ID != 1 || root.Parent != 0 || root.DurUs < 0 {
		t.Fatalf("root span malformed: %+v", root)
	}
	for _, name := range []string{"queue-wait", "apply", "wal-flush"} {
		if s, ok := span[name]; !ok || s.Parent != root.ID {
			t.Errorf("%s parent = %+v, want child of client-admit", name, span[name])
		}
	}
	commit, ok := span["wal-commit"]
	if !ok || commit.Parent != span["wal-flush"].ID {
		t.Errorf("wal-commit = %+v, want child of wal-flush %d", commit, span["wal-flush"].ID)
	}
	ship, ok := span["repl-ship"]
	if !ok || ship.Parent != commit.ID || ship.DurUs < 0 {
		t.Errorf("repl-ship = %+v, want finished child of wal-commit %d", ship, commit.ID)
	}
	if frag.Name != "follower-apply" || frag.Parent != ship.ID {
		t.Errorf("follower fragment = %+v, want follower-apply parented to ship span %d", frag, ship.ID)
	}
}

// findShippedTrace scans the primary's recent traces for one carrying the
// complete durable span set with a finished repl-ship span, joined by a
// fragment in the follower's dump; it returns zero values until both halves
// have landed.
func findShippedTrace(primary, follower telemetry.TraceDump) (telemetry.TraceSnap, telemetry.SpanSnap) {
	for _, tr := range primary.Recent {
		if tr.Fragment {
			continue
		}
		names := map[string]bool{}
		shipDone := false
		var shipID uint32
		for _, s := range tr.Spans {
			names[s.Name] = true
			if s.Name == "repl-ship" && s.DurUs >= 0 {
				shipDone = true
				shipID = s.ID
			}
		}
		if !shipDone || !names["queue-wait"] || !names["apply"] || !names["wal-flush"] || !names["wal-commit"] {
			continue
		}
		for _, fr := range follower.Recent {
			if !fr.Fragment || fr.TraceID != tr.TraceID {
				continue
			}
			for _, s := range fr.Spans {
				if s.Name == "follower-apply" && s.Parent == shipID {
					return tr, s
				}
			}
		}
	}
	return telemetry.TraceSnap{}, telemetry.SpanSnap{}
}

// TestStartFailureLeavesNoCollector pins Start's cleanup on every way it can
// fail after registering its collector — the follower's store failing to open
// was the path that leaked it: the registry of a node that never came up
// reports no cluster series (a scraper would read cluster_role for a node that
// does not exist) and none of a gateway's either.
func TestStartFailureLeavesNoCollector(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	notADir := filepath.Join(t.TempDir(), "store")
	if err := os.WriteFile(notADir, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	held := cluster.NewMemLease(nil)
	if _, won, err := held.Acquire("someone-else", "127.0.0.1:1", time.Minute); err != nil || !won {
		t.Fatalf("seeding the lease: won %v, err %v", won, err)
	}
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"follower store", cluster.Config{StoreDir: notADir, Lease: held}},
		{"pinned standby store", cluster.Config{StoreDir: notADir, ReplicaOf: "127.0.0.1:1"}},
		{"primary store", cluster.Config{StoreDir: notADir, Lease: cluster.NewMemLease(nil)}},
		{"listen", cluster.Config{StoreDir: t.TempDir(), Lease: held, Addr: "256.0.0.1:0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			cfg := tc.cfg
			cfg.NodeID, cfg.Telemetry, cfg.Gateway = "node-x", reg, gateway.Config{Key: key, Shards: 1}
			if cfg.Addr == "" {
				cfg.Addr = "127.0.0.1:0"
			}
			if n, err := cluster.Start(cfg); err == nil {
				n.Close()
				t.Fatal("Start succeeded")
			}
			for _, s := range reg.Snapshot() {
				if strings.HasPrefix(s.Name, "cluster_") || s.Name == "gateway_owners" {
					t.Fatalf("a node that failed to start still reports %s", s.Name)
				}
			}
		})
	}
}
