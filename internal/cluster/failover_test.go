package cluster_test

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/cluster"
	"dpsync/internal/core"
	"dpsync/internal/dp"
	"dpsync/internal/faultnet"
	"dpsync/internal/gateway"
	"dpsync/internal/record"
	"dpsync/internal/refdb"
	"dpsync/internal/seal"
	"dpsync/internal/strategy"
)

const (
	failoverSyncEps = 0.25
	failoverTTL     = 300 * time.Millisecond
)

func yellow(tick int, id uint16) record.Record {
	return record.Record{PickupTime: record.Tick(tick), PickupID: id, Provider: record.YellowCab}
}

// ownerSpecs is the three-strategy owner mix shared with the gateway
// durability tests: one sync-on-every-arrival owner (SUR) and two DP-timed
// owners with fixed noise seeds, so reference and cluster runs see
// identical traces.
func ownerSpecs(t *testing.T) []struct {
	name string
	mk   func() strategy.Strategy
} {
	t.Helper()
	return []struct {
		name string
		mk   func() strategy.Strategy
	}{
		{"owner-sur", func() strategy.Strategy { return strategy.NewSUR() }},
		{"owner-timer", func() strategy.Strategy {
			s, err := strategy.NewTimer(strategy.TimerConfig{
				Epsilon: 0.5, Period: 30, FlushInterval: 150, FlushSize: 5,
				Source: dp.NewSeededSource(41),
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"owner-ant", func() strategy.Strategy {
			s, err := strategy.NewANT(strategy.ANTConfig{
				Epsilon: 0.5, Threshold: 10, FlushInterval: 150, FlushSize: 5,
				Source: dp.NewSeededSource(42),
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
}

// startNode brings one cluster node up with the test's serving shape: few
// shards, small snapshot/history windows so a 300-tick trace crosses
// rotations and spills on both the primary and the replica.
func startNode(t *testing.T, id string, lease cluster.Lease, key []byte, ttl time.Duration, dialer func(string) (net.Conn, error)) *cluster.Node {
	t.Helper()
	n, err := cluster.Start(cluster.Config{
		Addr:     "127.0.0.1:0",
		NodeID:   id,
		StoreDir: t.TempDir(),
		Gateway: gateway.Config{
			Key: key, Shards: 2,
			SnapshotEvery: 16, HistoryWindow: 8,
			SyncEpsilon: failoverSyncEps,
		},
		Lease:     lease,
		LeaseTTL:  ttl,
		Heartbeat: 20 * time.Millisecond,
		RingSize:  64,
		Dialer:    dialer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// waitFor polls cond until it holds; the test fails if it does not within
// the bound.
func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(within); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", within, what)
		}
	}
}

func waitPromoted(t *testing.T, n *cluster.Node, within time.Duration) {
	t.Helper()
	select {
	case <-n.Promoted():
	case <-time.After(within):
		t.Fatalf("node %s did not promote within %v (role %v)", n.Addr(), within, n.Role())
	}
}

// TestClusterReplicationAndPromotionSmoke pins the replication pipeline
// end to end without faults: a follower tails the primary's committed
// stream entry for entry, and after a crash-kill of the primary it
// promotes and serves the same owner history.
func TestClusterReplicationAndPromotionSmoke(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := cluster.NewMemLease(nil)
	a := startNode(t, "node-a", lease, key, failoverTTL, nil)
	b := startNode(t, "node-b", lease, key, failoverTTL, nil)
	if a.Role() != cluster.RolePrimary || b.Role() != cluster.RoleFollower {
		t.Fatalf("roles: a=%v b=%v", a.Role(), b.Role())
	}

	// Let the follower join before driving load, so every committed entry
	// ships on the live stream and the catch-up below is exact.
	waitFor(t, 5*time.Second, "the follower to connect to the primary", func() bool { return a.Stats().Hub.Followers > 0 })

	conn, err := client.DialGateway(a.Addr(), key,
		client.WithAddrs(b.Addr()), client.WithReconnect(100), client.WithResyncWindow(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-1")
	if err := own.Setup([]record.Record{yellow(0, 10), yellow(0, 20)}); err != nil {
		t.Fatal(err)
	}
	const preKill = 20
	for i := 1; i <= preKill; i++ {
		if err := own.Update([]record.Record{yellow(i, uint16(i%record.NumLocations+1))}); err != nil {
			t.Fatal(err)
		}
	}

	// Replication is asynchronous; wait until the replica has folded every
	// committed entry, so the promoted clock provably equals the acked one.
	waitFor(t, 5*time.Second, "the replica to apply every committed entry", func() bool { return b.Stats().Follower.Applied >= preKill+1 })

	a.Kill()
	waitPromoted(t, b, 10*time.Second)
	if b.Role() != cluster.RolePrimary {
		t.Fatalf("promoted node reports role %v", b.Role())
	}

	// The same connection keeps working: the rotation lands on the promoted
	// node and the resume protocol realigns the sequence numbers.
	const postKill = 10
	for i := preKill + 1; i <= preKill+postKill; i++ {
		if err := own.Update([]record.Record{yellow(i, uint16(i%record.NumLocations+1))}); err != nil {
			t.Fatal(err)
		}
	}

	gw := b.Gateway()
	if gw == nil {
		t.Fatal("promoted node has no gateway")
	}
	pat := gw.ObservedPattern("owner-1")
	if want := 1 + preKill + postKill; pat.Updates() != want {
		t.Fatalf("promoted transcript has %d events, want %d", pat.Updates(), want)
	}
	wantLedger := dp.NewBudget()
	if err := wantLedger.Charge("m_setup", failoverSyncEps, dp.Sequential); err != nil {
		t.Fatal(err)
	}
	for u := 1; u < pat.Updates(); u++ {
		if err := wantLedger.Charge("m_update", failoverSyncEps, dp.Sequential); err != nil {
			t.Fatal(err)
		}
	}
	if got := gw.ObservedLedger("owner-1"); !got.Equal(wantLedger) {
		t.Fatalf("promoted ledger diverged:\n got: %s\nwant: %s", got.Describe(), wantLedger.Describe())
	}
	if st := b.Stats(); st.Follower.Applied < preKill+1 {
		t.Fatalf("sealed replica stats lost the applied count: %+v", st.Follower)
	}
}

// TestClusterFailoverDifferential is the acceptance test for the cluster:
// across seeds, the primary is crash-killed at a random tick under the
// three-strategy owner mix with connection churn and link faults on both
// the client and replication paths; a follower promotes, the surviving
// clients finish the trace against it, and every owner's transcript and
// ε ledger must end bit-identical to an uninterrupted single-owner
// internal/refdb run — no lost committed sync, no double-charged ε, no
// phantom transcript event.
func TestClusterFailoverDifferential(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	specs := ownerSpecs(t)
	const ticks = 300

	// Uninterrupted single-owner references (independent of seed: the trace
	// is a pure function of the spec index), computed once.
	wantPatterns := map[string]string{}
	wantLedgers := map[string]*dp.Budget{}
	for i, spec := range specs {
		ref, err := refdb.New(key)
		if err != nil {
			t.Fatal(err)
		}
		owner, err := core.New(core.Config{Strategy: spec.mk(), Database: ref})
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Setup([]record.Record{yellow(0, 10), yellow(0, 20)}); err != nil {
			t.Fatal(err)
		}
		for tick := 1; tick <= ticks; tick++ {
			var terr error
			if (tick+i)%3 == 0 {
				terr = owner.Tick(yellow(tick, uint16(tick%record.NumLocations+1)))
			} else {
				terr = owner.Tick()
			}
			if terr != nil {
				t.Fatal(terr)
			}
		}
		pat := ref.ObservedPattern()
		wantPatterns[spec.name] = pat.String()
		ledger := dp.NewBudget()
		if err := ledger.Charge("m_setup", failoverSyncEps, dp.Sequential); err != nil {
			t.Fatal(err)
		}
		for u := 1; u < pat.Updates(); u++ {
			if err := ledger.Charge("m_update", failoverSyncEps, dp.Sequential); err != nil {
				t.Fatal(err)
			}
		}
		wantLedgers[spec.name] = ledger
	}

	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			lease := cluster.NewMemLease(nil)
			// Satellite faults: the replication tail dials through a fault
			// injector (resets, truncations, stalls, duplicated frames), and
			// so do the clients. Budgets bound the chaos so the trace always
			// terminates.
			replInj := faultnet.New(faultnet.DefaultConfig(seed*101+3, 25))
			clientInj := faultnet.New(faultnet.DefaultConfig(seed*7+1, 25))

			a := startNode(t, "node-a", lease, key, failoverTTL, nil)
			b := startNode(t, "node-b", lease, key, failoverTTL, replInj.Dialer(nil))
			if a.Role() != cluster.RolePrimary {
				t.Fatalf("node-a role %v", a.Role())
			}

			conn, err := client.DialGateway(a.Addr(), key,
				client.WithAddrs(b.Addr()),
				client.WithReconnect(300),
				client.WithResyncWindow(-1),
				client.WithDialer(clientInj.Dialer(nil)))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			owners := make([]*core.Owner, len(specs))
			for i, spec := range specs {
				owner, err := core.New(core.Config{Strategy: spec.mk(), Database: conn.Owner(spec.name)})
				if err != nil {
					t.Fatal(err)
				}
				if err := owner.Setup([]record.Record{yellow(0, 10), yellow(0, 20)}); err != nil {
					t.Fatal(err)
				}
				owners[i] = owner
			}

			killTick := 60 + rng.Intn(150)
			t.Logf("killing primary at tick %d", killTick)
			for tick := 1; tick <= ticks; tick++ {
				if tick == killTick {
					a.Kill()
				} else if rng.Intn(89) == 0 {
					conn.Drop() // connection churn: reconnect + replay mid-trace
				}
				for j, owner := range owners {
					var terr error
					if (tick+j)%3 == 0 {
						terr = owner.Tick(yellow(tick, uint16(tick%record.NumLocations+1)))
					} else {
						terr = owner.Tick()
					}
					if terr != nil {
						t.Fatalf("tick %d owner %s: %v", tick, specs[j].name, terr)
					}
				}
			}
			waitPromoted(t, b, 15*time.Second)
			gw := b.Gateway()
			if gw == nil {
				t.Fatal("promoted node has no gateway")
			}

			for i, spec := range specs {
				got := gw.ObservedPattern(spec.name)
				if got.String() != wantPatterns[spec.name] {
					t.Errorf("%s transcript diverged across failover:\n cluster: %s\n  single: %s",
						spec.name, got.String(), wantPatterns[spec.name])
				}
				ledger := gw.ObservedLedger(spec.name)
				if !ledger.Equal(wantLedgers[spec.name]) {
					t.Errorf("%s ledger diverged (double spend or lost charge):\n got: %s\nwant: %s",
						spec.name, ledger.Describe(), wantLedgers[spec.name].Describe())
				}
				// Owner-side bookkeeping agrees event for event.
				want := owners[i].Pattern()
				if got.Updates() != want.Updates() {
					t.Errorf("%s: promoted node saw %d updates, owner posted %d",
						spec.name, got.Updates(), want.Updates())
					continue
				}
				for j, e := range got.Events {
					if e.Volume != want.Events[j].Volume {
						t.Errorf("%s: event %d volume %d != owner volume %d",
							spec.name, j, e.Volume, want.Events[j].Volume)
					}
				}
			}
			// The replica genuinely replicated (stream or snapshot transfer),
			// rather than rebuilding everything from client resync.
			if st := b.Stats(); st.Follower.Applied == 0 && st.Follower.Snapshots == 0 {
				t.Errorf("follower never replicated anything before promotion: %+v", st.Follower)
			}
			if c := replInj.Counts(); c.Resets+c.Truncations+c.Stalls+c.Duplicates == 0 {
				t.Logf("note: replication fault budget unspent this seed")
			}
		})
	}
}

// severConn severs the replication link after a byte budget is read — the
// read-side failure faultnet models as a peer reset. Every severance forces
// the follower back through dial + join, so the session count below counts
// cursor resumes.
type severConn struct {
	net.Conn
	remaining int
}

func (c *severConn) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		c.Conn.Close()
		return 0, fmt.Errorf("severconn: injected link loss")
	}
	if len(p) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.Conn.Read(p)
	c.remaining -= n
	return n, err
}

// TestReplicationResumeAcrossLinkFaults pins the replication resume
// protocol: the follower's tail link dies every few KB, and every rejoin
// must resume from the last applied cursor — no gap (which would force a
// snapshot transfer for every entry) and no re-apply (which the final
// transcript and ledger equality would expose as phantom events or double
// charges).
func TestReplicationResumeAcrossLinkFaults(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := cluster.NewMemLease(nil)
	rng := rand.New(rand.NewSource(7))
	var sessions atomic.Int64
	var severing atomic.Bool
	severing.Store(true)
	dialer := func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		sessions.Add(1)
		if !severing.Load() {
			return conn, nil
		}
		return &severConn{Conn: conn, remaining: 600 + rng.Intn(2500)}, nil
	}

	a := startNode(t, "node-a", lease, key, failoverTTL, nil)
	b := startNode(t, "node-b", lease, key, failoverTTL, dialer)

	conn, err := client.DialGateway(a.Addr(), key,
		client.WithAddrs(b.Addr()), client.WithReconnect(100), client.WithResyncWindow(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-1")
	if err := own.Setup([]record.Record{yellow(0, 10), yellow(0, 20)}); err != nil {
		t.Fatal(err)
	}
	const total = 60
	for i := 1; i <= total; i++ {
		if err := own.Update([]record.Record{yellow(i, uint16(i%record.NumLocations+1))}); err != nil {
			t.Fatal(err)
		}
		// A breath per sync so the tail loop interleaves with the severances
		// instead of catching up in one burst after the last one.
		if i%10 == 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Let the replica converge (severances off so the last session survives),
	// then fail over onto it.
	severing.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := b.Stats().Follower
		// The ring (64) outlives the whole trace (61 entries), so every
		// resume is served from the cursor — a snapshot transfer here would
		// mean a cursor the primary could not extend contiguously.
		if st.Snapshots != 0 {
			t.Fatalf("resume fell back to a snapshot transfer: %+v", st)
		}
		if st.Applied >= total+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := sessions.Load(); got < 2 {
		t.Fatalf("link never severed: %d replication sessions (want several)", got)
	}

	a.Kill()
	waitPromoted(t, b, 10*time.Second)
	gw := b.Gateway()
	pat := gw.ObservedPattern("owner-1")
	if want := total + 1; pat.Updates() != want {
		t.Fatalf("transcript after %d resumed sessions has %d events, want %d (gap or re-apply)",
			sessions.Load(), pat.Updates(), want)
	}
	wantLedger := dp.NewBudget()
	if err := wantLedger.Charge("m_setup", failoverSyncEps, dp.Sequential); err != nil {
		t.Fatal(err)
	}
	for u := 1; u < pat.Updates(); u++ {
		if err := wantLedger.Charge("m_update", failoverSyncEps, dp.Sequential); err != nil {
			t.Fatal(err)
		}
	}
	if got := gw.ObservedLedger("owner-1"); !got.Equal(wantLedger) {
		t.Fatalf("ledger diverged across resumed sessions:\n got: %s\nwant: %s",
			got.Describe(), wantLedger.Describe())
	}
	t.Logf("replication resumed across %d sessions (applied %d, snapshots %d)",
		sessions.Load(), b.Stats().Follower.Applied, b.Stats().Follower.Snapshots)
}

// TestFollowerClose pins the quiet shutdown edge: closing a follower must
// seal its replica and return promptly, without disturbing the primary.
func TestFollowerClose(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := cluster.NewMemLease(nil)
	a := startNode(t, "node-a", lease, key, failoverTTL, nil)
	b := startNode(t, "node-b", lease, key, failoverTTL, nil)

	conn, err := client.DialGateway(a.Addr(), key, client.WithReconnect(10))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-1")
	if err := own.Setup([]record.Record{yellow(0, 10)}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := own.Update([]record.Record{yellow(i, 1)}); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- b.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follower close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower Close deadlocked")
	}

	// Primary is unaffected.
	for i := 6; i <= 10; i++ {
		if err := own.Update([]record.Record{yellow(i, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Role() != cluster.RolePrimary {
		t.Fatalf("primary role changed to %v after follower close", a.Role())
	}
}

// TestGracefulHandoverUnderDrain drives the hard shutdown edge: the primary
// is closed gracefully with a short drain deadline while clients are
// mid-trace, so the drain deadline fires during the very failover it
// triggers. Close must stay bounded, exactly one node may serve afterwards,
// and the clients must finish the trace through the promoted node with a
// complete transcript.
func TestGracefulHandoverUnderDrain(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := cluster.NewMemLease(nil)
	mk := func(id string) *cluster.Node {
		n, err := cluster.Start(cluster.Config{
			Addr: "127.0.0.1:0", NodeID: id, StoreDir: t.TempDir(),
			Gateway: gateway.Config{
				Key: key, Shards: 2, SnapshotEvery: 16, HistoryWindow: 8,
				SyncEpsilon:  failoverSyncEps,
				DrainTimeout: 100 * time.Millisecond,
			},
			Lease: lease, LeaseTTL: failoverTTL,
			Heartbeat: 20 * time.Millisecond, RingSize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	a := mk("node-a")
	b := mk("node-b")
	// A follower that has not joined yet has nothing to be handed: the trace
	// can finish against the primary before the replication session exists.
	waitFor(t, 5*time.Second, "the follower to connect to the primary", func() bool { return a.Stats().Hub.Followers > 0 })

	conn, err := client.DialGateway(a.Addr(), key,
		client.WithAddrs(b.Addr()), client.WithReconnect(200), client.WithResyncWindow(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-1")
	if err := own.Setup([]record.Record{yellow(0, 10)}); err != nil {
		t.Fatal(err)
	}

	const total = 80
	uploaded := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		for i := 1; i <= total; i++ {
			if i == 20 {
				close(started)
			}
			if err := own.Update([]record.Record{yellow(i, uint16(i%record.NumLocations+1))}); err != nil {
				uploaded <- fmt.Errorf("update %d: %w", i, err)
				return
			}
		}
		uploaded <- nil
	}()

	<-started
	closeStart := time.Now()
	closeDone := make(chan error, 1)
	go func() { closeDone <- a.Close() }()
	select {
	case <-closeDone:
	case <-time.After(10 * time.Second):
		t.Fatal("primary Close did not return (drain deadline failed to bound it)")
	}
	t.Logf("primary close took %v", time.Since(closeStart))

	waitPromoted(t, b, 10*time.Second)
	select {
	case err := <-uploaded:
		if err != nil {
			t.Fatalf("trace did not survive the handover: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("client trace wedged across the handover")
	}

	// No double-primary: the old primary's gateway is fully shut, the new
	// one serves, and the transcript on the survivor is complete.
	select {
	case <-a.Gateway().Closed():
	default:
		t.Fatal("old primary's gateway still open after Close returned")
	}
	if b.Role() != cluster.RolePrimary {
		t.Fatalf("follower never took over: role %v", b.Role())
	}
	pat := b.Gateway().ObservedPattern("owner-1")
	if want := total + 1; pat.Updates() != want {
		t.Fatalf("survivor transcript has %d events, want %d", pat.Updates(), want)
	}
}

// TestFollowerCloseDuringFailover races a follower's shutdown against its
// own promotion: the primary crash-dies, and while the follower is
// campaigning (or already mid-promotion) it is told to close. Whatever side
// wins, Close must return without deadlock and without leaving a serving
// gateway behind.
func TestFollowerCloseDuringFailover(t *testing.T) {
	for i := 0; i < 3; i++ {
		t.Run(fmt.Sprintf("delay=%d", i), func(t *testing.T) {
			key, err := seal.NewRandomKey()
			if err != nil {
				t.Fatal(err)
			}
			lease := cluster.NewMemLease(nil)
			ttl := 100 * time.Millisecond
			a := startNode(t, "node-a", lease, key, ttl, nil)
			b := startNode(t, "node-b", lease, key, ttl, nil)
			a.Kill()
			// Stagger the close across the failover window: before the lease
			// lapses, around expiry, and after promotion has likely begun.
			time.Sleep(time.Duration(i) * ttl)
			done := make(chan error, 1)
			go func() { done <- b.Close() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("close during failover: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("Close deadlocked against promotion")
			}
			if gw := b.Gateway(); gw != nil {
				select {
				case <-gw.Closed():
				default:
					t.Fatal("node closed but its gateway still serves")
				}
			}
		})
	}
}
