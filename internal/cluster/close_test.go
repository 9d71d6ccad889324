package cluster

import (
	"net"
	"runtime"
	"strings"
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

// recordingLease logs one node's lease calls, in order, over a MemLease.
type recordingLease struct {
	*MemLease
	node  string
	mu    sync.Mutex
	calls []string
}

func (l *recordingLease) Acquire(node, addr string, ttl time.Duration) (LeaseState, bool, error) {
	st, won, err := l.MemLease.Acquire(node, addr, ttl)
	if node == l.node && err == nil {
		call := "Acquire(lost)"
		if won {
			call = "Acquire(won)"
		}
		l.record(call)
	}
	return st, won, err
}

func (l *recordingLease) Release(node string) error {
	if node == l.node {
		l.record("Release")
	}
	return l.MemLease.Release(node)
}

func (l *recordingLease) record(call string) {
	l.mu.Lock()
	l.calls = append(l.calls, call)
	l.mu.Unlock()
}

// TestUnhealthyReplicaReopensThenFlips pins the one promotion that cannot
// flip at once: a follower whose own WAL append failed holds tenants its
// directory cannot prove, so on winning the lease it gives the lease back,
// drops them, reopens the directory as a fresh replica on the same address,
// campaigns again and flips that — never recovering under the lease — with
// the client's resync window filling in what the directory lacks.
func TestUnhealthyReplicaReopensThenFlips(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := &recordingLease{MemLease: NewMemLease(nil), node: "node-b"}
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
		t.Fatal("an unhealthy replica was flipped instead of reopened")
	}
	select {
	case <-replica.Closed():
	default:
		t.Fatal("the unhealthy replica gateway is still running")
	}
	if got := gw.ObservedPattern("owner-1").Updates(); got != 1 {
		t.Fatalf("recovered %d syncs from a directory that holds 1", got)
	}
	// The lease was given back before the directory was reopened, and won
	// again by the fresh replica.
	lease.mu.Lock()
	calls := lease.calls
	lease.mu.Unlock()
	for len(calls) > 0 && calls[0] == "Acquire(lost)" {
		calls = calls[1:]
	}
	if want := []string{"Acquire(won)", "Release", "Acquire(won)"}; len(calls) < len(want) ||
		strings.Join(calls[:len(want)], " ") != strings.Join(want, " ") {
		t.Fatalf("node-b's lease calls after following: %v, want %v first", calls, want)
	}
	// The client replays what the directory lacked and goes on.
	if err := own.Update(rec(2)); err != nil {
		t.Fatal(err)
	}
	if got := gw.ObservedPattern("owner-1").Updates(); got != 3 {
		t.Fatalf("transcript has %d events after the resync, want 3", got)
	}
}
