// Package cluster replicates the multi-tenant DP-Sync gateway across
// nodes: a primary serves clients and streams every shard's committed WAL
// entries to followers; a lease-based election keeps exactly one primary;
// on primary loss a follower seals its replicated prefix and takes over the
// fleet, with the PR 6 resume protocol letting reconnecting clients
// discover the promoted node's durable clock and replay the difference.
//
// # Roles
//
// A Node is either the primary or a follower, never both:
//
//   - The primary runs the full gateway (internal/gateway) with a
//     replication Hub tapped into its durable commit stream. Every
//     committed sync entry ships to connected followers in commit order,
//     tagged with a per-shard stream offset equal to the shard's committed
//     entry count.
//   - A follower serves nobody: its listener answers every hello — client
//     and replication alike — with a typed refusal (wire.ErrNotPrimary), so
//     a client that dials it moves on to the next address instead of
//     hanging. Meanwhile it tails the primary and folds the shipped
//     entries into its own store through the recovery rules, so its
//     directory is at every instant a valid restart image.
//
// # Failover invariant
//
// Promotion is recovery: the follower seals its replicated prefix (drains
// its WAL appends and closes its store) and runs gateway.New over its own
// directory on the listener it was refusing clients on. Everything the
// promoted node serves is therefore exactly what crash recovery could
// prove — a committed prefix of every owner's history, with transcript,
// clock, and ε ledger describing precisely that prefix. Syncs the old
// primary committed but never shipped are not lost: the owner's client
// still holds them (its resync window), discovers the promoted node's
// lower durable clock through the resume protocol, and re-uploads them
// verbatim, so every owner's transcript and ε ledger end bit-identical to
// an uninterrupted run. The differential test in this package pins that
// across randomized kill points, churn, and link faults.
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
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"dpsync/internal/gateway"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
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
	// refusePollInterval is the follower accept-loop's deadline, which is
	// what bounds how long promotion waits to reclaim the listener.
	refusePollInterval = 50 * time.Millisecond
	// dialTimeout bounds one replication dial attempt.
	dialTimeout = 3 * time.Second
)

// Config assembles a Node.
type Config struct {
	// Addr is the node's listen address (clients and replication share it);
	// port 0 picks a free port. The listener must be TCP — promotion hands
	// it from the refusal loop to the gateway via deadline wakeups.
	Addr string
	// NodeID names this node to the lease arbiter and the primary. Required.
	NodeID string
	// StoreDir is this node's private durability directory. Required —
	// replication ships WAL frames, so every role needs a WAL.
	StoreDir string
	// Gateway is the serving configuration the node uses while primary
	// (key, shards, epsilon, window, timeouts...). StoreDir, Listener, and
	// Replicator are owned by the node and overwritten.
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
	// Gateway.Telemetry is unset — the serving gateway. Nil disables export.
	Telemetry *telemetry.Registry
}

// Node is one cluster member. Create with Start; stop with Close (graceful)
// or Kill (crash).
type Node struct {
	cfg  Config
	log  *slog.Logger
	lis  net.Listener
	quit chan struct{}
	wg   sync.WaitGroup
	tm   nodeMetrics

	mu       sync.Mutex
	role     Role
	gw       *gateway.Gateway
	hub      *Hub
	fol      *followerCore
	plane    *readPlane
	tailConn net.Conn
	lastFol  FollowerStats
	lastRead ReadPlaneStats
	closed   bool
	killed   bool
	// leaseHolder/leaseRenewed mirror the node's last view of the arbiter:
	// who holds the lease, and when this node last renewed its own (zero
	// while following). Status and telemetry read them under mu.
	leaseHolder  string
	leaseRenewed time.Time

	promoted     chan struct{}
	promotedOnce sync.Once
}

// nodeMetrics holds the node's telemetry handles; zero value no-ops.
type nodeMetrics struct {
	renewals   *telemetry.Counter
	losses     *telemetry.Counter
	promotions *telemetry.Counter
	unreg      func()
}

// NodeStats snapshots a node's replication counters for metrics reporting.
type NodeStats struct {
	Role Role
	// Follower carries the replica-side counters (the last sealed values
	// once the node has promoted).
	Follower FollowerStats
	// Hub carries the primary-side counters (zero while following).
	Hub HubStats
	// ReadPlane carries the follower read-plane counters (the last values
	// before shutdown once the node has promoted or closed).
	ReadPlane ReadPlaneStats
}

// Start brings a node up: it binds the address, then either takes the lease
// and serves as primary, or opens its replica image and follows.
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
	n := &Node{cfg: cfg, quit: make(chan struct{}), promoted: make(chan struct{})}
	if cfg.Logger != nil {
		n.log = cfg.Logger
	} else {
		n.log = telemetry.Discard()
	}
	if reg := cfg.Telemetry; reg != nil {
		n.tm = nodeMetrics{
			renewals: reg.Counter("cluster_lease_renewals_total", "successful lease acquisitions/renewals by this node"),
			losses: reg.Counter("cluster_lease_losses_total",
				"refused renewals — each one fences the local gateway"),
			promotions: reg.Counter("cluster_promotions_total", "follower-to-primary promotions"),
		}
		n.tm.unreg = reg.RegisterCollector(func(emit func(telemetry.Sample)) {
			n.mu.Lock()
			role, holder, renewed := n.role, n.leaseHolder, n.leaseRenewed
			fol, last := n.fol, n.lastFol
			plane, lastRead := n.plane, n.lastRead
			n.mu.Unlock()
			var isPrimary, held float64
			if role == RolePrimary {
				isPrimary = 1
			}
			if holder == cfg.NodeID && !renewed.IsZero() {
				held = 1
			}
			emit(telemetry.Sample{Name: "cluster_role", Help: "1 while this node serves as primary",
				Kind: telemetry.KindGauge, Value: isPrimary})
			emit(telemetry.Sample{Name: "cluster_lease_held", Help: "1 while this node holds the lease",
				Kind: telemetry.KindGauge, Value: held})
			fst := last
			if fol != nil {
				fst = fol.Stats()
				if lc := fol.lastContact.Load(); lc != 0 {
					emit(telemetry.Sample{Name: "cluster_repl_last_contact_ms",
						Help: "milliseconds since the last frame from the primary",
						Kind: telemetry.KindGauge, Value: float64(time.Now().UnixNano()-lc) / 1e6})
				}
			}
			emit(telemetry.Sample{Name: "cluster_repl_applied_total", Help: "live stream entries folded by this replica",
				Kind: telemetry.KindCounter, Value: float64(fst.Applied)})
			emit(telemetry.Sample{Name: "cluster_repl_snapshot_transfers_total", Help: "snapshot transfers applied by this replica",
				Kind: telemetry.KindCounter, Value: float64(fst.Snapshots)})
			rst := lastRead
			if plane != nil {
				rst = plane.Stats()
			}
			emit(telemetry.Sample{Name: "cluster_read_queries_total",
				Help: "read requests served by the follower read plane (refusals included)",
				Kind: telemetry.KindCounter, Value: float64(rst.Queries)})
			emit(telemetry.Sample{Name: "cluster_read_stale_total",
				Help: "typed freshness refusals (replica cursor below the query's MinOffset)",
				Kind: telemetry.KindCounter, Value: float64(rst.Stale)})
			emit(telemetry.Sample{Name: "cluster_read_qcache_hits_total",
				Help: "replica queries served from the noise-reuse answer cache",
				Kind: telemetry.KindCounter, Value: float64(rst.CacheHits)})
			emit(telemetry.Sample{Name: "cluster_read_qcache_misses_total",
				Help: "replica queries evaluated against the owner's resident backend",
				Kind: telemetry.KindCounter, Value: float64(rst.CacheMisses)})
			emit(telemetry.Sample{Name: "cluster_read_rebuilds_total",
				Help: "read-plane materializations from history (an owner's first read, or after a dropped machine)",
				Kind: telemetry.KindCounter, Value: float64(rst.Rebuilds)})
		})
	}
	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if n.tm.unreg != nil {
			n.tm.unreg()
		}
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	n.lis = lis

	if cfg.ReplicaOf == "" {
		if st, won, err := cfg.Lease.Acquire(cfg.NodeID, n.Addr(), cfg.LeaseTTL); err != nil {
			lis.Close()
			if n.tm.unreg != nil {
				n.tm.unreg()
			}
			return nil, err
		} else if won {
			n.recordLease(cfg.NodeID, true)
			if err := n.startPrimary(); err != nil {
				_ = cfg.Lease.Release(cfg.NodeID)
				lis.Close()
				if n.tm.unreg != nil {
					n.tm.unreg()
				}
				return nil, err
			}
			return n, nil
		} else {
			n.recordLease(st.Holder, false)
		}
	}
	fol, err := openFollower(cfg.StoreDir, n.shardCount(), cfg.Gateway.HistoryWindow, cfg.Gateway.SnapshotEvery, cfg.Gateway.Fsync, n.log.With("node", cfg.NodeID), cfg.Gateway.Tracer)
	if err != nil {
		lis.Close()
		return nil, err
	}
	n.fol = fol
	// The follower read plane serves "DPSQ" connections from the replica.
	// A config the serving gateway could not materialize (no key, no
	// backend) degrades to the old refuse-everything follower rather than
	// failing the node — promotion would surface the same problem louder.
	if plane, perr := newReadPlane(cfg, fol, n.log.With("node", cfg.NodeID)); perr != nil {
		n.log.Warn("read plane disabled", "node", cfg.NodeID, "err", perr)
	} else {
		n.plane = plane
	}
	n.wg.Add(1)
	go n.runFollower()
	return n, nil
}

// recordLease notes the arbiter's verdict: who holds the lease, and (when
// this node won) a renewals tick and a fresh renewal timestamp.
func (n *Node) recordLease(holder string, won bool) {
	n.mu.Lock()
	n.leaseHolder = holder
	if won {
		n.leaseRenewed = time.Now()
	}
	n.mu.Unlock()
	if won {
		n.tm.renewals.Inc()
	}
}

// shardCount resolves the shard-worker count the same way gateway.New does,
// so the replica's store layout matches what promotion will recover.
func (n *Node) shardCount() int {
	if n.cfg.Gateway.Shards > 0 {
		return n.cfg.Gateway.Shards
	}
	return runtime.GOMAXPROCS(0)
}

// Addr returns the node's bound listen address.
func (n *Node) Addr() string { return n.lis.Addr().String() }

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
	return n.gw
}

// Promoted is closed when this node becomes primary (at Start or by
// failover) — what harnesses block on to time a failover.
func (n *Node) Promoted() <-chan struct{} { return n.promoted }

// Stats snapshots the node's replication counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	role, fol, hub, last := n.role, n.fol, n.hub, n.lastFol
	plane, lastRead := n.plane, n.lastRead
	n.mu.Unlock()
	st := NodeStats{Role: role, Follower: last, ReadPlane: lastRead}
	if fol != nil {
		st.Follower = fol.Stats()
	}
	if plane != nil {
		st.ReadPlane = plane.Stats()
	}
	if hub != nil {
		st.Hub = hub.Stats()
	}
	return st
}

// StatusText implements telemetry.Status: the /statusz body — role, lease
// view, and per-shard durable progress (WAL depth and committed offsets on a
// primary, follower cursors via the hub; replication counters on a replica).
func (n *Node) StatusText() string {
	n.mu.Lock()
	role, holder, renewed := n.role, n.leaseHolder, n.leaseRenewed
	gw, hub, fol, last := n.gw, n.hub, n.fol, n.lastFol
	plane, lastRead := n.plane, n.lastRead
	n.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "node: %s\nrole: %s\naddr: %s\n", n.cfg.NodeID, role, n.Addr())
	fmt.Fprintf(&b, "lease holder: %s", holder)
	if !renewed.IsZero() {
		fmt.Fprintf(&b, " (renewed %s ago)", time.Since(renewed).Round(time.Millisecond))
	}
	b.WriteString("\n")
	if gw != nil {
		fmt.Fprintf(&b, "owners: %d  sheds: %d\n", gw.Owners(), gw.Sheds())
		b.WriteString(gw.DurableStatusText())
	}
	if hub != nil {
		hs := hub.Stats()
		fmt.Fprintf(&b, "replication: followers=%d shipped=%d snapshots=%d\n", hs.Followers, hs.Shipped, hs.Snapshots)
		for _, fs := range hub.Followers() {
			fmt.Fprintf(&b, "follower %q: lag=%d entries (%.1f ms) cursors=%v\n", fs.Node, fs.LagEntries, fs.LagMs, fs.Cursors)
		}
	}
	if fol != nil {
		fst := fol.Stats()
		fmt.Fprintf(&b, "replica: applied=%d snapshot_transfers=%d\n", fst.Applied, fst.Snapshots)
		if lc := fol.lastContact.Load(); lc != 0 {
			fmt.Fprintf(&b, "last primary contact: %.1f ms ago\n", float64(time.Now().UnixNano()-lc)/1e6)
		}
	} else if gw == nil {
		fmt.Fprintf(&b, "replica (sealed): applied=%d snapshot_transfers=%d\n", last.Applied, last.Snapshots)
	}
	if plane != nil {
		lastRead = plane.Stats()
	}
	if plane != nil || lastRead != (ReadPlaneStats{}) {
		fmt.Fprintf(&b, "read plane: queries=%d stale=%d cache_hits=%d cache_misses=%d rebuilds=%d\n",
			lastRead.Queries, lastRead.Stale, lastRead.CacheHits, lastRead.CacheMisses, lastRead.Rebuilds)
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
	if role == RolePrimary {
		if gw == nil {
			return false, "primary without a gateway"
		}
		if n.cfg.Lease != nil {
			if holder != n.cfg.NodeID {
				return false, fmt.Sprintf("lease held by %q", holder)
			}
			if time.Since(renewed) > n.cfg.LeaseTTL {
				return false, fmt.Sprintf("lease renewal stale by %s", time.Since(renewed).Round(time.Millisecond))
			}
		}
		if st := gw.Store(); st != nil && !st.Healthy() {
			return false, "WAL writer reported a commit error"
		}
		return true, "primary: lease held, WAL healthy"
	}
	if fol == nil {
		return false, "follower not replicating"
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

// startPrimary stands the serving stack up on the node's listener: hub,
// gateway (recovering whatever the store directory holds), bind, serve,
// renew. Used by Start (initial primary) and by promotion.
func (n *Node) startPrimary() error {
	// Hub and gateway events carry the node ID; the node's own log lines
	// attach it per call, so the shared logger itself stays unadorned.
	hub := NewHub(HubConfig{RingSize: n.cfg.RingSize, Heartbeat: n.cfg.Heartbeat,
		Logger: n.log.With("node", n.cfg.NodeID), Telemetry: n.cfg.Telemetry})
	gwCfg := n.cfg.Gateway
	gwCfg.StoreDir = n.cfg.StoreDir
	gwCfg.Listener = n.lis
	gwCfg.Replicator = hub
	if gwCfg.Telemetry == nil {
		gwCfg.Telemetry = n.cfg.Telemetry
	}
	if gwCfg.Logger == nil {
		gwCfg.Logger = n.log.With("node", n.cfg.NodeID)
	}
	gw, err := gateway.New("", gwCfg)
	if err != nil {
		return err
	}
	if err := hub.Bind(gw); err != nil {
		gw.Kill()
		return err
	}
	n.mu.Lock()
	if n.closed {
		// Shutdown raced the promotion: the node must not start serving now.
		// Kill the just-built stack; the store directory stays a valid image.
		n.mu.Unlock()
		hub.Close()
		gw.Kill()
		return fmt.Errorf("cluster: node closed during promotion")
	}
	n.role, n.gw, n.hub = RolePrimary, gw, hub
	n.mu.Unlock()
	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		_ = gw.Serve()
	}()
	go n.renewLoop(gw, hub)
	n.promotedOnce.Do(func() { close(n.promoted) })
	n.log.Info("serving as primary", "node", n.cfg.NodeID, "addr", n.Addr())
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
			st, ok, err := n.cfg.Lease.Acquire(n.cfg.NodeID, n.Addr(), n.cfg.LeaseTTL)
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

// runFollower is the follower role loop: refuse clients on the bound
// listener, tail whoever holds the lease, campaign when it lapses, and
// promote on a win.
func (n *Node) runFollower() {
	defer n.wg.Done()
	stopRefuse := make(chan struct{})
	refuseDone := make(chan struct{})
	go n.refuseLoop(stopRefuse, refuseDone)
	readTO := 6 * n.cfg.Heartbeat
	if readTO < time.Second {
		readTO = time.Second
	}
	stagger := campaignStagger(n.cfg.NodeID, n.cfg.LeaseTTL)
	backoff := 5 * time.Millisecond
	for {
		select {
		case <-n.quit:
			close(stopRefuse)
			<-refuseDone
			n.sealFollower()
			return
		default:
		}
		primary := n.cfg.ReplicaOf
		if primary == "" {
			st, won, err := n.cfg.Lease.Acquire(n.cfg.NodeID, n.Addr(), n.cfg.LeaseTTL)
			if err != nil {
				n.log.Warn("campaign error", "node", n.cfg.NodeID, "err", err)
				n.sleep(backoff)
				continue
			}
			if won {
				n.recordLease(n.cfg.NodeID, true)
				close(stopRefuse)
				<-refuseDone
				if err := n.promote(); err != nil {
					n.log.Error("promotion failed", "node", n.cfg.NodeID, "err", err)
					_ = n.cfg.Lease.Release(n.cfg.NodeID)
					n.lis.Close()
				}
				return
			}
			n.recordLease(st.Holder, false)
			primary = st.Addr
		}
		if primary == "" || primary == n.Addr() {
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
		fol, closed := n.fol, n.closed
		if !closed {
			n.tailConn = conn
		}
		n.mu.Unlock()
		if closed {
			conn.Close()
			if fol == nil { // Kill: the replica is already gone
				return
			}
			<-n.quit // Close: seal at the top of the loop
			continue
		}
		start := time.Now()
		err = fol.tail(conn, n.cfg.NodeID, readTO)
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

// refuseLoop answers hellos on the follower's listener with the typed
// refusal, so clients and followers probing a non-primary move on instead
// of hanging. It polls the listener deadline so promotion can reclaim the
// listener without closing it.
func (n *Node) refuseLoop(stop, done chan struct{}) {
	defer close(done)
	tcp, _ := n.lis.(*net.TCPListener)
	for {
		select {
		case <-stop:
			if tcp != nil {
				_ = tcp.SetDeadline(time.Time{})
			}
			return
		default:
		}
		if tcp != nil {
			_ = tcp.SetDeadline(time.Now().Add(refusePollInterval))
		}
		conn, err := n.lis.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return // listener closed: node shutting down
		}
		go func() {
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
			kind, _, err := wire.ReadAnyHello(conn)
			if err != nil {
				return
			}
			if kind == wire.HelloRead {
				// Read-only hello: hand the connection to the read plane,
				// which serves queries from the replicated store instead of
				// refusing. Sync hellos keep the typed refusal below.
				n.mu.Lock()
				plane := n.plane
				n.mu.Unlock()
				if plane != nil {
					_ = conn.SetDeadline(time.Time{})
					plane.serve(conn)
					return
				}
			}
			_ = wire.WriteHelloRefused(conn)
		}()
	}
}

// promote turns the follower into the primary: seal the replicated prefix
// (drain replica WAL appends, close the store — everything beyond it lives
// in clients' resync windows) and recover a serving gateway over the same
// directory on the same listener.
func (n *Node) promote() error {
	n.mu.Lock()
	fol := n.fol
	plane := n.plane
	n.plane = nil
	n.mu.Unlock()
	if plane != nil {
		// No read request may touch the store once sealing starts; the
		// plane's counters survive in lastRead for status continuity.
		plane.shutdown()
		n.mu.Lock()
		n.lastRead = plane.Stats()
		n.mu.Unlock()
	}
	if err := fol.seal(); err != nil {
		// The directory still holds the longest provable prefix; promote it.
		n.log.Warn("sealing replica failed; promoting committed prefix", "node", n.cfg.NodeID, "err", err)
	}
	n.mu.Lock()
	n.lastFol = fol.Stats()
	n.fol = nil
	n.mu.Unlock()
	n.log.Info("promoting", "node", n.cfg.NodeID, "addr", n.Addr())
	n.tm.promotions.Inc()
	return n.startPrimary()
}

// sealFollower closes the replica gracefully (quiesce + store close) at
// node shutdown.
func (n *Node) sealFollower() {
	n.mu.Lock()
	fol := n.fol
	plane := n.plane
	n.fol, n.plane = nil, nil
	if fol != nil {
		n.lastFol = fol.Stats()
	}
	n.mu.Unlock()
	if plane != nil {
		plane.shutdown()
		n.mu.Lock()
		n.lastRead = plane.Stats()
		n.mu.Unlock()
	}
	if fol == nil {
		return
	}
	if err := fol.seal(); err != nil {
		n.log.Warn("sealing replica at shutdown failed", "node", n.cfg.NodeID, "err", err)
	}
}

// Close shuts the node down gracefully: a primary drains its gateway
// (bounded by DrainTimeout) and releases the lease; a follower seals its
// replica. Safe to call in any role and more than once.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	gw := n.gw
	conn := n.tailConn
	n.mu.Unlock()
	close(n.quit)
	var err error
	if gw != nil {
		err = gw.Close() // renewLoop releases the lease and closes the hub
	} else {
		n.lis.Close()
		if conn != nil {
			conn.Close()
		}
		if n.cfg.Lease != nil {
			_ = n.cfg.Lease.Release(n.cfg.NodeID)
		}
	}
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
	gw := n.gw
	hub := n.hub
	conn := n.tailConn
	fol := n.fol
	plane := n.plane
	n.fol, n.plane = nil, nil
	if fol != nil {
		n.lastFol = fol.Stats()
	}
	n.mu.Unlock()
	close(n.quit)
	if gw != nil {
		if hub != nil {
			hub.Close()
		}
		gw.Kill()
	} else {
		n.lis.Close()
		if conn != nil {
			conn.Close()
		}
		if plane != nil {
			plane.shutdown()
			n.mu.Lock()
			n.lastRead = plane.Stats()
			n.mu.Unlock()
		}
		if fol != nil {
			fol.kill()
		}
	}
	n.wg.Wait()
	if n.tm.unreg != nil {
		n.tm.unreg()
	}
}
