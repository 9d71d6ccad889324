package cluster

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/gateway"
	"dpsync/internal/record"
	"dpsync/internal/seal"
)

// TestFollowerCloseDuringDial pins Close against a replication dial in
// flight. The follower's dialer parks with the connection to a healthy,
// heart-beating primary already established and lets go only once Close has
// sampled tailConn (still nil) and signalled quit. Nobody but runFollower
// can close that connection now: it must notice the shutdown where it
// publishes the conn, or tail reads the primary forever and Close never
// returns.
func TestFollowerCloseDuringDial(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := NewMemLease(nil)
	start := func(id string, dialer func(string) (net.Conn, error)) *Node {
		n, err := Start(Config{
			Addr: "127.0.0.1:0", NodeID: id, StoreDir: t.TempDir(),
			Gateway: gateway.Config{Key: key, Shards: 1},
			Lease:   lease, LeaseTTL: 2 * time.Second, Heartbeat: 20 * time.Millisecond,
			Dialer: dialer,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	start("node-a", nil)
	dialed, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	b := start("node-b", func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		first.Do(func() { // the first dial parks
			close(dialed)
			<-release
		})
		return conn, err
	})
	select {
	case <-dialed:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never dialed the primary")
	}
	done := make(chan error, 1)
	go func() { done <- b.Close() }()
	<-b.quit // Close has sampled tailConn and found none
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follower close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower Close deadlocked: the conn dialed across Close's sample was left tailing the primary")
	}
}

// TestUnhealthyReplicaPromotesByRecovery pins the one promotion that is not a
// flip: a follower whose own WAL append failed holds tenants its directory
// cannot prove, so on winning the lease it drops them and serves what
// gateway.New recovers from the directory instead — on the same address, with
// the client's resync window filling in what the directory lacks.
func TestUnhealthyReplicaPromotesByRecovery(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := NewMemLease(nil)
	start := func(id string) *Node {
		n, err := Start(Config{
			Addr: "127.0.0.1:0", NodeID: id, StoreDir: t.TempDir(),
			Gateway: gateway.Config{Key: key, Shards: 1, SyncEpsilon: 0.25},
			Lease:   lease, LeaseTTL: 200 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	a, b := start("node-a"), start("node-b")
	conn, err := client.DialGateway(a.Addr(), key, client.WithAddrs(b.Addr()), client.WithReconnect(200), client.WithResyncWindow(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-1")
	rec := func(i int) []record.Record {
		return []record.Record{{PickupTime: record.Tick(i), PickupID: uint16(i + 1), Provider: record.YellowCab}}
	}
	if err := own.Setup(rec(0)); err != nil {
		t.Fatal(err)
	}
	applied := func(n uint64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); b.Stats().Follower.Applied < n; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("replica stuck at %+v", b.Stats().Follower)
			}
		}
	}
	applied(1)
	replica := b.gw
	for deadline := time.Now().Add(10 * time.Second); replica.ShardStatuses()[0].PendingWAL != 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the setup's WAL append never committed")
		}
	}
	replica.Store().SetCommitFailpoint(true)
	if err := own.Update(rec(1)); err != nil {
		t.Fatal(err)
	}
	applied(2) // applied in RAM; its WAL append fails
	for deadline := time.Now().Add(10 * time.Second); replica.Store().Healthy(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the failed append never latched")
		}
	}
	replica.Store().SetCommitFailpoint(false)
	if ok, reason := b.Ready(); ok {
		t.Fatalf("a follower with a failed WAL append reports ready: %s", reason)
	}

	a.Kill()
	select {
	case <-b.Promoted():
	case <-time.After(10 * time.Second):
		t.Fatal("follower never promoted")
	}
	gw := b.Gateway()
	if gw == nil || gw == replica {
		t.Fatal("an unhealthy replica was flipped instead of recovered")
	}
	select {
	case <-replica.Closed():
	default:
		t.Fatal("the unhealthy replica gateway is still running")
	}
	if got := gw.ObservedPattern("owner-1").Updates(); got != 1 {
		t.Fatalf("recovered %d syncs from a directory that holds 1", got)
	}
	// The client replays what the directory lacked and goes on.
	if err := own.Update(rec(2)); err != nil {
		t.Fatal(err)
	}
	if got := gw.ObservedPattern("owner-1").Updates(); got != 3 {
		t.Fatalf("transcript has %d events after the resync, want 3", got)
	}
}
