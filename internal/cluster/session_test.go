package cluster

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dpsync/internal/gateway"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// TestShardMismatchEndsTheSessionBothWays pins the positional join in both
// directions: a follower with more shards than the primary and one with
// fewer each get the join ack — the primary's shard count — and end the
// session with errShardMismatch, and the hub closes the link without
// registering a sender. A raw join whose cursor count is off by one is
// answered the same way.
func TestShardMismatchEndsTheSessionBothWays(t *testing.T) {
	hub, gw := startHubShards(t, HubConfig{}, 2)
	for _, shards := range []int{1, 4} {
		r := newReplicaAt(t, t.TempDir(), gateway.Config{Shards: shards}, 0, telemetry.Discard())
		conn, err := net.Dial("tcp", gw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		err = r.f.tail(conn, "follower", time.Second)
		conn.Close()
		if !errors.Is(err, errShardMismatch) {
			t.Errorf("follower with %d shards, primary with 2: session ended with %v, want errShardMismatch", shards, err)
		}
		if n := hub.Stats().Followers; n != 0 {
			t.Errorf("follower with %d shards: the hub registered %d senders", shards, n)
		}
	}
	for _, cursors := range [][]uint64{{0}, {0, 0, 0}} {
		conn, acked := joinRawShards(t, gw.Addr(), "raw", cursors...)
		if acked != 2 {
			t.Fatalf("join with %d cursors: ack names %d shards, want 2", len(cursors), acked)
		}
		if _, err := wire.ReadFrame(conn); !errors.Is(err, io.EOF) {
			t.Errorf("join with %d cursors: after the ack the link gave %v, want EOF", len(cursors), err)
		}
		if n := hub.Stats().Followers; n != 0 {
			t.Errorf("join with %d cursors: the hub registered %d senders", len(cursors), n)
		}
	}
}

// TestFailedSessionsBackOff pins the follower's backoff after a session that
// ends before its first stream frame. A follower pinned to a primary of
// another shard count (either way round) and one pinned to a replica, whose
// hello is refused, each redial at most 20 times in a second — not
// thousands — while a matched pair dials once.
func TestFailedSessionsBackOff(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	start := func(id string, shards int, replicaOf string, dials *atomic.Int64) *Node {
		cfg := Config{
			Addr: "127.0.0.1:0", NodeID: id, StoreDir: t.TempDir(),
			Gateway:   gateway.Config{Key: key, Shards: shards},
			ReplicaOf: replicaOf, Heartbeat: 20 * time.Millisecond,
		}
		if replicaOf == "" {
			cfg.Lease = tempLease(t)
		}
		if dials != nil {
			cfg.Dialer = func(addr string) (net.Conn, error) {
				dials.Add(1)
				return net.DialTimeout("tcp", addr, dialTimeout)
			}
		}
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	p2, p4 := start("primary-2", 2, "", nil), start("primary-4", 4, "", nil)
	for _, p := range []*Node{p2, p4} {
		select {
		case <-p.Promoted():
		case <-time.After(10 * time.Second):
			t.Fatal("a primary never promoted")
		}
	}
	var matched, more, fewer, chained atomic.Int64
	standby := start("matched", 2, p2.Addr(), &matched)
	start("more-shards", 4, p2.Addr(), &more)
	start("fewer-shards", 2, p4.Addr(), &fewer)
	start("chained", 2, standby.Addr(), &chained)
	<-time.NewTimer(time.Second).C

	for _, c := range []struct {
		name  string
		dials *atomic.Int64
	}{
		{"follower 4 / primary 2", &more},
		{"follower 2 / primary 4", &fewer},
		{"pinned to a replica", &chained},
	} {
		if n := c.dials.Load(); n < 2 || n > 20 {
			t.Errorf("%s: %d dials in 1 s, want 2..20", c.name, n)
		}
	}
	if n := matched.Load(); n != 1 {
		t.Errorf("matched pair: %d dials in 1 s, want 1", n)
	}
}
