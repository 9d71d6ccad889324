package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"dpsync/internal/gateway"
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
