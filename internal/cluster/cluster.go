// Package cluster replicates the multi-tenant DP-Sync gateway across
// nodes: a primary serves clients and streams every shard's committed WAL
// entries to followers; a lease-based election keeps exactly one primary;
// on primary loss a follower takes over the fleet from its replicated
// prefix, with the PR 6 resume protocol letting reconnecting clients discover
// the promoted node's durable clock and replay the difference.
//
// # Roles
//
// A Node is either the primary or a follower, never both. Every node opens its
// directory as a replica-role gateway (gateway.NewReplica), and only then
// campaigns for the lease:
//
//   - The primary runs the full gateway (internal/gateway) with a
//     replication Hub tapped into its durable commit stream. Every
//     committed sync entry ships to connected followers in commit order,
//     tagged with a per-shard stream offset equal to the shard's committed
//     entry count.
//   - A follower runs the same gateway in replica role, on the node's own
//     listener from the start: read-only connections ("DPSQ") are served from
//     the replicated prefix, bounded by the freshness the client asks for;
//     writers and would-be followers are refused at the hello
//     (wire.ErrNotPrimary), so a client that dials it moves on to the next
//     address instead of hanging. Meanwhile it tails the primary and hands
//     each shipped entry to the owner's shard worker, which applies it through
//     the recovery rules and appends it to the replica's own WAL — so its
//     directory is at every instant a valid restart image, and the tenants in
//     RAM are what recovery over that directory would build.
//
// # Failover invariant
//
// Becoming primary is one role flip over state recovery would reproduce: the
// node fences (it holds the lease), stops its tail if it has one, waits out
// each shard's queue and pending WAL appends, binds a hub at the shards'
// stream heads and flips its gateway to primary — same tenants, same backends,
// same answer caches, no directory recovery; a node that wins at Start flips
// before it serves. Everything a primary serves is still exactly
// what crash recovery could prove — a committed prefix of every owner's
// history, with transcript, clock, and ε ledger describing precisely that
// prefix — pinned by the flip == recover == reference differential. (A replica
// whose own WAL append failed holds RAM its directory cannot prove; it does
// not flip but gives the lease back, reopens its directory and campaigns
// again.) Syncs the old primary committed but never shipped are not
// lost: the owner's client still holds them (its resync window), discovers the
// promoted node's lower durable clock through the resume protocol, and
// re-uploads them verbatim, so every owner's transcript and ε ledger end
// bit-identical to an uninterrupted run. The differential test in this package
// pins that across randomized kill points, churn, and link faults.
//
// # Election
//
// The lease arbiter (Lease) grants one holder at a time; the primary
// renews at a third of the TTL and fences itself — kills its gateway — the
// moment a renewal is refused, before the arbiter would let anyone else
// acquire. A graceful Close releases the lease so the next election needs
// no timeout. Elections are deterministic and clock-injectable: the grant
// rule is a pure function of (state, node, now), and campaign timing is
// staggered by a hash of the node ID.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"time"

	"dpsync/internal/gateway"
	"dpsync/internal/telemetry"
)

// Role is a node's current cluster role.
type Role int

const (
	RoleFollower Role = iota
	RolePrimary
)

func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "follower"
}

const (
	// DefaultLeaseTTL is the election lease duration — the failover fencing
	// window. Production wants seconds; the failover tests run fractions.
	DefaultLeaseTTL = 3 * time.Second
	// dialTimeout bounds one replication dial attempt.
	dialTimeout = 3 * time.Second
)

// Config assembles a Node.
type Config struct {
	// Addr is the node's listen address (clients and replication share it);
	// port 0 picks a free port.
	Addr string
	// NodeID names this node to the lease arbiter and the primary. Required.
	NodeID string
	// StoreDir is this node's private durability directory. Required —
	// replication ships WAL frames, so every role needs a WAL.
	StoreDir string
	// Gateway is the serving configuration of the node's gateway, in either
	// role (key, shards, epsilon, window, timeouts...). StoreDir and Listener
	// are owned by the node and overwritten; Replicator must be nil. A
	// configuration that cannot build tenants (no key, no backend) fails Start
	// in either role: a follower must be able to become what it replicates.
	Gateway gateway.Config
	// Lease is the election arbiter, shared by the cluster's nodes.
	// Required unless ReplicaOf pins this node to standby.
	Lease Lease
	// LeaseTTL is the lease duration (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// ReplicaOf pins the node to a permanent standby tailing this address:
	// it never campaigns and never promotes (cmd/dpsync-server -replica-of).
	ReplicaOf string
	// Dialer opens replication connections to the primary (nil = TCP with
	// a bounded timeout). The fault-injection harness wraps it.
	Dialer func(addr string) (net.Conn, error)
	// Heartbeat is the replication idle heartbeat (0 = DefaultHeartbeat);
	// the follower's link-death deadline derives from it.
	Heartbeat time.Duration
	// RingSize is the primary's per-shard catch-up ring (0 = DefaultRingSize).
	RingSize int
	// Logger receives role transitions and diagnostics; nil discards.
	Logger *slog.Logger
	// Telemetry receives the node's cluster metrics (role, lease renewals and
	// losses, fence/promotion events) and is threaded into the hub and — when
	// Gateway.Telemetry is unset — the gateway. Nil disables export.
	Telemetry *telemetry.Registry
}

// Node is one cluster member. Create with Start; stop with Close (graceful)
// or Kill (crash).
type Node struct {
	cfg  Config
	log  *slog.Logger
	addr string // the bound listen address; the gateway owns the listener
	quit chan struct{}
	wg   sync.WaitGroup
	tm   nodeMetrics
	// tailDone is closed when the follower role loop has returned: no
	// Replicate and no promotion can start after it.
	tailDone chan struct{}

	mu sync.Mutex
	// gw is the node's one serving stack, in whichever role; hub exists once
	// the node is primary; fol is the replication tail's state, kept after a
	// promotion for its counters.
	role     Role
	gw       *gateway.Gateway
	hub      *Hub
	fol      *followerCore
	tailConn net.Conn
	closed   bool
	killed   bool
	// leaseHolder/leaseRenewed mirror the node's last view of the arbiter:
	// who holds the lease, and when this node last renewed its own (zero
	// while following). Status and telemetry read them under mu.
	leaseHolder  string
	leaseRenewed time.Time
	// promotion is how long the node's promotion took, lease won to serving
	// (zero for a node that never followed).
	promotion time.Duration

	promoted chan struct{} // closed by the one promote that succeeds
}

// nodeMetrics holds the node's own counters and its collector's
// unregistration. Every cluster_* series is emitted by that one collector, so
// a node that is gone — closed, or never started — leaves none behind.
type nodeMetrics struct {
	renewals   telemetry.Counter // successful lease acquisitions/renewals
	losses     telemetry.Counter // refused renewals — each one fences the gateway
	promotions telemetry.Counter
	unreg      func()
}

// ReadPlaneStats snapshots a node's follower-side read counters: what its
// gateway served while in replica role.
type ReadPlaneStats struct {
	// Queries counts read requests (queries + stats) dispatched, refusals
	// included.
	Queries int64
	// Stale counts freshness refusals, wire.CodeStale (applied offset < MinOffset).
	Stale int64
	// CacheHits/CacheMisses are the gateway's noise-reuse answer cache
	// counters (zero without Telemetry; they keep counting after a promotion).
	CacheHits   int64
	CacheMisses int64
}

// NodeStats snapshots a node's replication counters for metrics reporting.
type NodeStats struct {
	Role Role
	// Follower carries the replica-side counters (the last values once the
	// node has promoted).
	Follower FollowerStats
	// Hub carries the primary-side counters (zero while following).
	Hub HubStats
	// ReadPlane carries the follower read counters (the last values once the
	// node has promoted).
	ReadPlane ReadPlaneStats
	// Promotion is how long the node's promotion took, from winning the lease
	// to serving as primary — the part of a failover that is this node's work
	// rather than the lease's TTL (zero unless the node was promoted).
	Promotion time.Duration
}

// Start brings a node up: it binds the address, opens its directory as a
// replica and campaigns once. A winner has flipped to primary and serves when
// Start returns; anyone else serves as a follower and keeps campaigning.
func Start(cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: NodeID required")
	}
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("cluster: StoreDir required")
	}
	if cfg.Lease == nil && cfg.ReplicaOf == "" {
		return nil, fmt.Errorf("cluster: Lease required (or pin the node with ReplicaOf)")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.Dialer == nil {
		cfg.Dialer = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dialTimeout)
		}
	}
	n := &Node{cfg: cfg, quit: make(chan struct{}), tailDone: make(chan struct{}), promoted: make(chan struct{})}
	if cfg.Logger != nil {
		n.log = cfg.Logger
	} else {
		n.log = telemetry.Discard()
	}
	if reg := cfg.Telemetry; reg != nil {
		n.tm.unreg = reg.RegisterCollector(n.emitTelemetry)
	}
	lis, err := net.Listen("tcp", cfg.Addr)
	if err == nil {
		n.addr = lis.Addr().String()
		err = n.start(lis)
	} else {
		err = fmt.Errorf("cluster: listen: %w", err)
	}
	if err != nil {
		// Nothing of the node survives a failed Start — its collector least of
		// all: the registry would keep reporting a node that does not exist.
		if n.tm.unreg != nil {
			n.tm.unreg()
		}
		return nil, err
	}
	return n, nil
}

// start takes the node's role on lis: it opens the directory as a replica,
// then — unless pinned as a standby — campaigns once. A winner flips before
// its gateway serves, so no client finds it in replica role; anyone else
// follows, and the role loop campaigns on.
func (n *Node) start(lis net.Listener) error {
	gw, err := n.open(lis)
	if err != nil {
		return err
	}
	if n.cfg.ReplicaOf == "" {
		won, _, err := n.campaign()
		if err == nil && won {
			if err = n.promote(time.Time{}); err == nil {
				close(n.tailDone) // this node never follows
				n.serve(gw, false)
				return nil
			}
			_ = n.cfg.Lease.Release(n.cfg.NodeID)
		}
		if err != nil {
			gw.Kill()
			return err
		}
	}
	n.serve(gw, true)
	n.wg.Add(1)
	go n.runFollower()
	return nil
}

// open is how every node opens its directory, at Start and again after a
// failed promotion: a replica-role gateway over it on lis, published as the
// node's gateway unless a Close or Kill got there first.
func (n *Node) open(lis net.Listener) (*gateway.Gateway, error) {
	gw, err := gateway.NewReplica("", n.gatewayConfig(lis))
	if err != nil {
		lis.Close()
		return nil, fmt.Errorf("cluster: opening replica: %w", err)
	}
	n.mu.Lock() // a scrape may already be reading
	closed := n.closed
	if !closed {
		n.gw = gw
	}
	n.mu.Unlock()
	if closed {
		gw.Kill()
		return nil, errors.New("cluster: node closed while opening its directory")
	}
	return gw, nil
}

// serve runs gw's connection loop until gw closes — a follower's with a
// replication tail into gw (readers answered, writers refused by role).
func (n *Node) serve(gw *gateway.Gateway, follower bool) {
	if follower {
		fol := newFollower(gw, n.log.With("node", n.cfg.NodeID), n.cfg.Gateway.Tracer)
		n.mu.Lock()
		n.fol = fol
		n.mu.Unlock()
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = gw.Serve()
	}()
}

// gatewayConfig is the node's serving configuration over its own directory
// and listener.
func (n *Node) gatewayConfig(lis net.Listener) gateway.Config {
	cfg := n.cfg.Gateway
	cfg.StoreDir, cfg.Listener = n.cfg.StoreDir, lis
	if cfg.Telemetry == nil {
		cfg.Telemetry = n.cfg.Telemetry
	}
	if cfg.Logger == nil {
		// Hub and gateway events carry the node ID; the node's own log lines
		// attach it per call, so the shared logger itself stays unadorned.
		cfg.Logger = n.log.With("node", n.cfg.NodeID)
	}
	return cfg
}

// emitTelemetry is the node's scrape-time collector.
func (n *Node) emitTelemetry(emit func(telemetry.Sample)) {
	n.mu.Lock()
	role, holder, renewed, fol := n.role, n.leaseHolder, n.leaseRenewed, n.fol
	n.mu.Unlock()
	st := n.Stats()
	var isPrimary, held float64
	if role == RolePrimary {
		isPrimary = 1
	}
	if holder == n.cfg.NodeID && !renewed.IsZero() {
		held = 1
	}
	gauge := func(name, help string, v float64) {
		emit(telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindGauge, Value: v})
	}
	counter := func(name, help string, v float64) {
		emit(telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindCounter, Value: v})
	}
	gauge("cluster_role", "1 while this node serves as primary", isPrimary)
	gauge("cluster_lease_held", "1 while this node holds the lease", held)
	counter("cluster_lease_renewals_total", "successful lease acquisitions/renewals by this node", float64(n.tm.renewals.Value()))
	counter("cluster_lease_losses_total", "refused renewals — each one fences the local gateway", float64(n.tm.losses.Value()))
	counter("cluster_promotions_total", "follower-to-primary promotions", float64(n.tm.promotions.Value()))
	if fol != nil && role == RoleFollower {
		if lc := fol.lastContact.Load(); lc != 0 {
			gauge("cluster_repl_last_contact_ms", "milliseconds since the last frame from the primary",
				float64(time.Now().UnixNano()-lc)/1e6)
		}
	}
	counter("cluster_repl_applied_total", "stream entries applied by this replica", float64(st.Follower.Applied))
	counter("cluster_repl_snapshot_transfers_total", "snapshot transfers applied by this replica", float64(st.Follower.Snapshots))
	rp := st.ReadPlane
	counter("cluster_read_queries_total", "read requests served in replica role (refusals included)", float64(rp.Queries))
	counter("cluster_read_qcache_hits_total", "queries served from the noise-reuse answer cache", float64(rp.CacheHits))
	counter("cluster_read_qcache_misses_total", "queries evaluated against the owner's resident backend", float64(rp.CacheMisses))
}

// campaign asks the arbiter for the lease once and records its verdict:
// whether this node won, and where the holder serves.
func (n *Node) campaign() (won bool, holderAddr string, err error) {
	st, won, err := n.cfg.Lease.Acquire(n.cfg.NodeID, n.addr, n.cfg.LeaseTTL)
	if err != nil {
		return false, "", err
	}
	n.recordLease(st.Holder, won)
	return won, st.Addr, nil
}

// recordLease notes the arbiter's verdict: who holds the lease, and (when
// this node won) a renewals tick and a fresh renewal timestamp.
func (n *Node) recordLease(holder string, won bool) {
	n.mu.Lock()
	n.leaseHolder = holder
	if won {
		n.leaseRenewed = time.Now()
		n.tm.renewals.Inc()
	}
	n.mu.Unlock()
}

// Addr returns the node's bound listen address.
func (n *Node) Addr() string { return n.addr }

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Gateway returns the serving gateway while the node is primary, nil while
// it follows.
func (n *Node) Gateway() *gateway.Gateway {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RolePrimary {
		return nil
	}
	return n.gw
}

// Promoted is closed when this node becomes primary (at Start or by
// failover) — what harnesses block on to time a failover.
func (n *Node) Promoted() <-chan struct{} { return n.promoted }

// Stats snapshots the node's replication counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	role, gw, fol, hub, promotion := n.role, n.gw, n.fol, n.hub, n.promotion
	n.mu.Unlock()
	st := NodeStats{Role: role, Promotion: promotion}
	if fol != nil {
		st.Follower = fol.Stats()
		qc := gw.QueryCacheStats()
		st.ReadPlane = ReadPlaneStats{CacheHits: qc.Hits, CacheMisses: qc.Misses}
		st.ReadPlane.Queries, st.ReadPlane.Stale = gw.ReplicaStats()
	}
	if hub != nil {
		st.Hub = hub.Stats()
	}
	return st
}

// StatusText implements telemetry.Status: the /statusz body — role, lease
// view, the gateway's per-shard durable progress in either role (WAL depth,
// committed counts, a replica's applied offsets), follower cursors via the hub
// on a primary, and the replication and read counters of a node that follows
// or has followed.
func (n *Node) StatusText() string {
	n.mu.Lock()
	role, holder, renewed := n.role, n.leaseHolder, n.leaseRenewed
	gw, hub, fol := n.gw, n.hub, n.fol
	n.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "node: %s\nrole: %s\naddr: %s\n", n.cfg.NodeID, role, n.addr)
	fmt.Fprintf(&b, "lease holder: %s", holder)
	if !renewed.IsZero() {
		fmt.Fprintf(&b, " (renewed %s ago)", time.Since(renewed).Round(time.Millisecond))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "owners: %d  sheds: %d\n", gw.Owners(), gw.Sheds())
	b.WriteString(gw.DurableStatusText())
	if hub != nil {
		hs := hub.Stats()
		fmt.Fprintf(&b, "replication: followers=%d shipped=%d snapshots=%d\n", hs.Followers, hs.Shipped, hs.Snapshots)
		for _, fs := range hub.Followers() {
			fmt.Fprintf(&b, "follower %q: lag=%d entries (%.1f ms) cursors=%v\n", fs.Node, fs.LagEntries, fs.LagMs, fs.Cursors)
		}
	}
	if fol != nil {
		st := n.Stats()
		if role == RoleFollower {
			fmt.Fprintf(&b, "replica: applied=%d snapshot_transfers=%d\n", st.Follower.Applied, st.Follower.Snapshots)
			if lc := fol.lastContact.Load(); lc != 0 {
				fmt.Fprintf(&b, "last primary contact: %.1f ms ago\n", float64(time.Now().UnixNano()-lc)/1e6)
			}
		} else {
			fmt.Fprintf(&b, "replica (promoted in %s): applied=%d snapshot_transfers=%d\n",
				st.Promotion.Round(time.Microsecond), st.Follower.Applied, st.Follower.Snapshots)
		}
		rp := st.ReadPlane
		fmt.Fprintf(&b, "read plane: queries=%d stale=%d cache_hits=%d cache_misses=%d\n",
			rp.Queries, rp.Stale, rp.CacheHits, rp.CacheMisses)
	}
	return b.String()
}

// Ready implements telemetry.Status with real semantics: a primary is ready
// when it still holds the lease and its WAL writer is healthy; a follower
// when it is replicating within its lag bound (frames from the primary within
// the link-death deadline the tail loop itself uses).
func (n *Node) Ready() (bool, string) {
	n.mu.Lock()
	role, holder, renewed := n.role, n.leaseHolder, n.leaseRenewed
	gw, fol, closed := n.gw, n.fol, n.closed
	n.mu.Unlock()
	if closed {
		return false, "node closed"
	}
	if !gw.Store().Healthy() {
		return false, "WAL writer reported a commit error"
	}
	if role == RolePrimary {
		if n.cfg.Lease != nil {
			if holder != n.cfg.NodeID {
				return false, fmt.Sprintf("lease held by %q", holder)
			}
			if time.Since(renewed) > n.cfg.LeaseTTL {
				return false, fmt.Sprintf("lease renewal stale by %s", time.Since(renewed).Round(time.Millisecond))
			}
		}
		return true, "primary: lease held, WAL healthy"
	}
	bound := 6 * n.cfg.Heartbeat
	if bound < time.Second {
		bound = time.Second
	}
	lc := fol.lastContact.Load()
	if lc == 0 {
		return false, "no primary contact yet"
	}
	if age := time.Duration(time.Now().UnixNano() - lc); age > bound {
		return false, fmt.Sprintf("primary silent for %s (bound %s)", age.Round(time.Millisecond), bound)
	}
	return true, "follower: replicating within lag bound"
}

// promote is the one way a node becomes primary, a flip: a hub bound at the
// shards' stream heads, then the gateway's role flip once its shards have
// drained. The node holds the lease and has no tail session running. wonAt is
// when a follower won the lease; a node that won at Start passes zero and
// reports no promotion. On failure only the hub, closed again, has changed.
func (n *Node) promote(wonAt time.Time) error {
	hub := NewHub(HubConfig{RingSize: n.cfg.RingSize, Heartbeat: n.cfg.Heartbeat,
		Logger: n.log.With("node", n.cfg.NodeID), Telemetry: n.cfg.Telemetry})
	err := hub.Bind(n.gw)
	if err == nil {
		err = n.gw.Promote(hub)
	}
	if err != nil {
		hub.Close()
		return err
	}
	// A Close racing this waits for the role loop to return before it touches
	// the gateway, so it finds a whole primary to shut down; a Kill has killed
	// this same gateway already, and the renew loop winds the hub down with it.
	n.mu.Lock()
	n.role, n.hub = RolePrimary, hub
	if !wonAt.IsZero() {
		n.promotion = time.Since(wonAt)
		n.tm.promotions.Inc()
	}
	n.mu.Unlock()
	n.wg.Add(1)
	go n.renewLoop(n.gw, hub)
	close(n.promoted)
	n.log.Info("serving as primary", "node", n.cfg.NodeID, "addr", n.addr)
	return nil
}

// renewLoop keeps the primary's lease alive and fences on loss: a refused
// renewal means the arbiter may let someone else serve, so the gateway is
// killed — crash semantics — before that can happen. On a graceful gateway
// close the lease is released so the successor need not wait out the TTL.
func (n *Node) renewLoop(gw *gateway.Gateway, hub *Hub) {
	defer n.wg.Done()
	interval := n.cfg.LeaseTTL / 3
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	for {
		select {
		case <-gw.Closed():
			hub.Close()
			n.mu.Lock()
			killed := n.killed
			n.mu.Unlock()
			if n.cfg.Lease != nil && !killed {
				_ = n.cfg.Lease.Release(n.cfg.NodeID)
			}
			return
		case <-time.After(interval):
			if n.cfg.Lease == nil {
				continue
			}
			st, ok, err := n.cfg.Lease.Acquire(n.cfg.NodeID, n.addr, n.cfg.LeaseTTL)
			if err != nil {
				// Arbiter unreachable: keep serving. Nobody else can acquire
				// through the same arbiter, so the TTL still fences.
				n.log.Warn("lease renewal error", "node", n.cfg.NodeID, "err", err)
				continue
			}
			if !ok {
				n.log.Warn("lost the lease; fencing", "node", n.cfg.NodeID, "holder", st.Holder)
				n.recordLease(st.Holder, false)
				n.tm.losses.Inc()
				hub.Close()
				gw.Kill()
				return
			}
			n.recordLease(n.cfg.NodeID, true)
		}
	}
}

// runFollower is the follower role loop: tail whoever holds the lease,
// campaign when it lapses, and promote on a win — or, when the replica's WAL
// failed, give the lease back, reopen and campaign on. Clients are the
// gateway's business from the start: it serves readers, refuses writers.
func (n *Node) runFollower() {
	defer n.wg.Done()
	defer close(n.tailDone)
	readTO := 6 * n.cfg.Heartbeat
	if readTO < time.Second {
		readTO = time.Second
	}
	stagger := campaignStagger(n.cfg.NodeID, n.cfg.LeaseTTL)
	backoff := 5 * time.Millisecond
	for {
		select {
		case <-n.quit:
			return
		default:
		}
		primary := n.cfg.ReplicaOf
		if primary == "" {
			won, addr, err := n.campaign()
			if err != nil {
				n.log.Warn("campaign error", "node", n.cfg.NodeID, "err", err)
				n.sleep(backoff)
				continue
			}
			if won {
				n.log.Info("promoting", "node", n.cfg.NodeID, "addr", n.addr)
				if err = n.promote(time.Now()); err == nil {
					return
				}
				_ = n.cfg.Lease.Release(n.cfg.NodeID)
				if errors.Is(err, gateway.ErrUnhealthyReplica) {
					if err = n.reopen(); err == nil {
						continue
					}
				}
				n.log.Error("promotion failed", "node", n.cfg.NodeID, "err", err)
				return // Close or Kill ends the gateway
			}
			primary = addr
		}
		if primary == "" || primary == n.addr {
			n.sleep(backoff)
			continue
		}
		conn, err := n.cfg.Dialer(primary)
		if err != nil {
			// Primary gone or partitioned: wait the staggered beat before the
			// next campaign/dial round so concurrent campaigners interleave.
			n.sleep(backoff + stagger)
			if backoff *= 2; backoff > 200*time.Millisecond {
				backoff = 200 * time.Millisecond
			}
			continue
		}
		// Publish the conn and check for shutdown under one lock: Close and
		// Kill sample tailConn under the same lock as they set closed, so a
		// conn dialed across their sample is either seen there or seen
		// closed here — never left for nobody to close while tail reads a
		// healthy primary forever.
		n.mu.Lock()
		closed := n.closed
		if !closed {
			n.tailConn = conn
		}
		n.mu.Unlock()
		if closed {
			conn.Close()
			return
		}
		start := time.Now()
		err = n.fol.tail(conn, n.cfg.NodeID, readTO)
		conn.Close()
		n.mu.Lock()
		n.tailConn = nil
		n.mu.Unlock()
		if time.Since(start) > time.Second {
			backoff = 5 * time.Millisecond
		}
		select {
		case <-n.quit:
		default:
			n.log.Info("replication session ended", "node", n.cfg.NodeID, "err", err)
		}
	}
}

// sleep waits d or until the node is told to stop.
func (n *Node) sleep(d time.Duration) {
	select {
	case <-time.After(d):
	case <-n.quit:
	}
}

// reopen is a replica whose WAL failed starting over, with the lease given
// back: its gateway is killed and the directory opened afresh, on the same
// address, by the open step Start takes, and followed.
func (n *Node) reopen() error {
	n.log.Warn("replica WAL unhealthy; reopening the directory", "node", n.cfg.NodeID)
	n.gw.Kill()
	lis, err := net.Listen("tcp", n.addr)
	if err != nil {
		return fmt.Errorf("cluster: rebinding %s: %w", n.addr, err)
	}
	gw, err := n.open(lis)
	if err == nil {
		n.serve(gw, true)
	}
	return err
}

// Close shuts the node down gracefully: the replication tail stops first,
// then the gateway drains (bounded by DrainTimeout), flushes and closes its
// store; a primary also flushes its followers and releases the lease. Safe to
// call in any role and more than once.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conn := n.tailConn
	n.mu.Unlock()
	close(n.quit)
	if conn != nil {
		conn.Close()
	}
	<-n.tailDone // a promotion in flight has landed, or failed, before this
	n.mu.Lock()
	gw, role := n.gw, n.role
	n.mu.Unlock()
	if role == RoleFollower && n.cfg.Lease != nil {
		_ = n.cfg.Lease.Release(n.cfg.NodeID)
	}
	err := gw.Close() // a primary's renewLoop releases the lease and closes the hub
	n.wg.Wait()
	if n.tm.unreg != nil {
		n.tm.unreg()
	}
	return err
}

// Kill stops the node the way a crash would: connections severed, pending
// work abandoned, the lease left to expire (the successor must wait out the
// TTL — that is the failover the harness measures).
func (n *Node) Kill() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed, n.killed = true, true
	gw, hub, conn := n.gw, n.hub, n.tailConn
	n.mu.Unlock()
	close(n.quit)
	if conn != nil {
		conn.Close()
	}
	if hub != nil {
		hub.Close()
	}
	gw.Kill()
	n.wg.Wait()
	if n.tm.unreg != nil {
		n.tm.unreg()
	}
}
