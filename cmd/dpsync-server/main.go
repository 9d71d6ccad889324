// Command dpsync-server runs the cloud half of the three-party model: the
// multi-tenant gateway (internal/gateway) over ObliDB enclave simulators.
// It stores sealed ciphertexts, answers analyst queries, and keeps each
// owner's update-pattern transcript — everything an honest-but-curious
// operator would see. Many owners, each in its own namespace, share it over
// pipelined multiplexed connections; a single-owner deployment is the same
// server with one tenant (cmd/dpsync-owner and cmd/dpsync-analyst name the
// namespace with -owner; cmd/dpsync-loadgen -addr drives a fleet).
//
// Usage:
//
//	dpsync-server -listen 127.0.0.1:7700 -key-file shared.key [-gen-key] [-shards 8]
//
// With -gen-key the server creates the shared data key and writes it to
// -key-file (hex); owners and analysts load the same file, standing in for
// enclave attestation and key provisioning.
//
// -multi is accepted and ignored: the gateway protocol is the only one
// served (the flag once selected it over a single-owner protocol, and
// existing launch scripts still pass it).
//
// With -store DIR tenant state is durable: per-shard
// write-ahead logs and snapshots under DIR carry every namespace's sealed
// store, update-pattern transcript, logical clock, and ε ledger across
// restarts — the server opens with crash recovery and SIGINT/SIGTERM drain
// in-flight shard work and flush the WAL before exiting. Add
// -history-window N to bound each tenant's in-RAM ingest history: older
// batches spill to history segments under DIR, snapshots reference them by
// manifest, and server RSS stops growing with total bytes ever ingested:
//
//	dpsync-server -store /var/lib/dpsync -fsync -history-window 64 -listen 127.0.0.1:7701 -key-file shared.key
//
// With -cluster the server joins a replicated gateway cluster (requires
// -store): the nodes elect one primary through a shared lease
// file (-lease-file, on storage every node sees — each node keeps its own
// private -store, so the lease must live elsewhere); the primary streams
// every committed WAL entry to the followers; a follower runs the same
// gateway in replica role — it serves read-only connections from its
// replicated prefix, refuses writers with a typed redirect, tails the
// primary, and is promoted by a role flip (no recovery pass) when it wins the
// lapsed lease (see internal/cluster). With -replica-of ADDR the node is
// instead pinned as a permanent read-serving standby tailing ADDR: it never
// campaigns and never promotes. Two-node example on one machine:
//
//	dpsync-server -cluster -node-id a -store /var/lib/dpsync-a -lease-file /var/lib/dpsync.lease -listen 127.0.0.1:7701 -key-file shared.key
//	dpsync-server -cluster -node-id b -store /var/lib/dpsync-b -lease-file /var/lib/dpsync.lease -listen 127.0.0.1:7702 -key-file shared.key
//
// Clients list both addresses; failover is their address rotation landing
// on whichever node holds the lease.
//
// Gateway flow control (hostile-fleet hardening): -max-inflight caps the
// requests one connection may have admitted at once — past it the gateway
// sheds with a typed backpressure error, and a tenant that also stops
// reading responses is severed; -drain-timeout bounds how long a graceful
// shutdown waits for live connections before severing the stragglers.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dpsync/internal/cluster"
	"dpsync/internal/gateway"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7700", "listen address")
		keyFile   = flag.String("key-file", "dpsync.key", "hex-encoded shared data key")
		genKey    = flag.Bool("gen-key", false, "generate a fresh key and write it to -key-file")
		_         = flag.Bool("multi", false, "accepted and ignored: the gateway protocol is the only one served")
		shards    = flag.Int("shards", 0, "gateway shard workers (0: GOMAXPROCS)")
		storeDir  = flag.String("store", "", "durability directory: WAL + snapshots, open with crash recovery")
		fsync     = flag.Bool("fsync", false, "fsync every durable group commit (with -store)")
		snapN     = flag.Int("snapshot-every", 0, "minimum entries between rotations; the interval grows with the image so checkpoint bytes never exceed log bytes (0: default; with -store)")
		syncEps   = flag.Float64("sync-epsilon", 0, "epsilon charged to a tenant's ledger per sync (with -store)")
		histWin   = flag.Int("history-window", 0, "per-tenant in-RAM history batches before spilling to history segments (0: keep all in RAM; with -store)")
		maxInFl   = flag.Int("max-inflight", 0, "per-connection admitted-request cap before typed backpressure sheds (0: default)")
		drainTO   = flag.Duration("drain-timeout", 0, "graceful-close drain deadline before live connections are severed (0: default, negative: wait forever)")
		clustered = flag.Bool("cluster", false, "join a replicated gateway cluster: elect through -lease-file, replicate WAL commits, fail over (-store only)")
		nodeID    = flag.String("node-id", "", "this node's name to the cluster (default: hostname:listen)")
		leaseFile = flag.String("lease-file", "", "shared lease file the cluster elects through; must live on storage every node sees (required with -cluster)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "election lease duration, the failover fencing window (0: default)")
		replicaOf = flag.String("replica-of", "", "pin this node as a permanent standby tailing ADDR: a replica-role gateway that serves read-only connections from its replicated prefix and refuses writers; never campaigns, never promotes (-store only)")
		adminAddr = flag.String("admin", "", "admin plane listen address: /metrics (Prometheus), /varz (JSON), /statusz, /tracez, /healthz, /debug/pprof (empty: disabled)")
		debugTen  = flag.Bool("debug-tenant-metrics", false, "expose per-owner clock/epsilon series (hashed labels) on the admin plane — republishes the update-pattern detail the privacy budget hides; debugging only")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		traceN    = flag.Int("trace-sample", 0, "trace 1 in N admitted requests on /tracez (0: default 64; negative: disable sampling — slow syncs are still captured)")
	)
	flag.Parse()

	key, err := loadOrGenKey(*keyFile, *genKey)
	if err != nil {
		log.Fatalf("dpsync-server: %v", err)
	}
	lvl, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("dpsync-server: %v", err)
	}
	logger := telemetry.NewLogger(os.Stderr, lvl)
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)

	reg := telemetry.Default
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: *traceN})
	serveAdmin := func(status telemetry.Status) *telemetry.Admin {
		if *adminAddr == "" {
			return nil
		}
		a, err := telemetry.ServeAdmin(*adminAddr, reg, status, tracer)
		if err != nil {
			log.Fatalf("dpsync-server: %v", err)
		}
		logger.Info("admin plane listening", "addr", a.Addr())
		return a
	}

	if *clustered || *replicaOf != "" {
		switch {
		case *storeDir == "":
			log.Fatalf("dpsync-server: cluster modes replicate WAL commits; add -store DIR")
		case *clustered && *replicaOf != "":
			log.Fatalf("dpsync-server: -cluster (elects, may promote) and -replica-of (pinned standby) are exclusive")
		case *clustered && *leaseFile == "":
			// Defaulting the lease into each node's private -store would give
			// every node its own arbiter — two primaries. Make the shared
			// location explicit.
			log.Fatalf("dpsync-server: -cluster elects through a lease file every node shares; add -lease-file PATH (e.g. %s of a shared directory)", cluster.LeasePathInDir("DIR"))
		}
		id := *nodeID
		if id == "" {
			host, err := os.Hostname()
			if err != nil {
				host = "node"
			}
			id = host + ":" + *listen
		}
		var lease cluster.Lease
		if *replicaOf == "" {
			lease = cluster.NewFileLease(*leaseFile, nil)
		}
		// The cluster layer attaches the node ID to every event itself; the
		// logger passed down stays unadorned so the attr appears once.
		node, err := cluster.Start(cluster.Config{
			Addr: *listen, NodeID: id, StoreDir: *storeDir,
			Gateway: gateway.Config{
				Key: key, Shards: *shards,
				Fsync: *fsync, SnapshotEvery: *snapN, SyncEpsilon: *syncEps,
				HistoryWindow: *histWin,
				MaxInFlight:   *maxInFl, DrainTimeout: *drainTO,
				DebugTenantMetrics: *debugTen,
				Tracer:             tracer,
			},
			Lease: lease, LeaseTTL: *leaseTTL, ReplicaOf: *replicaOf,
			Logger: logger, Telemetry: reg,
		})
		if err != nil {
			log.Fatalf("dpsync-server: %v", err)
		}
		admin := serveAdmin(node)
		logger.Info("cluster node started", "node", id, "role", node.Role().String(), "addr", node.Addr())
		<-done
		logger.Info("cluster node shutting down", "node", id, "role", node.Role().String())
		if err := node.Close(); err != nil {
			logger.Error("shutdown error", "node", id, "err", err)
		}
		if admin != nil {
			_ = admin.Close()
		}
		return
	}

	gw, err := gateway.New(*listen, gateway.Config{
		Key: key, Shards: *shards, Logger: logger, Telemetry: reg,
		DebugTenantMetrics: *debugTen, Tracer: tracer,
		StoreDir: *storeDir, Fsync: *fsync, SnapshotEvery: *snapN, SyncEpsilon: *syncEps,
		HistoryWindow: *histWin,
		MaxInFlight:   *maxInFl, DrainTimeout: *drainTO,
	})
	if err != nil {
		log.Fatalf("dpsync-server: %v", err)
	}
	admin := serveAdmin(telemetry.StatusFuncs{
		Text: func() string {
			var b strings.Builder
			conns, repl := gw.Live()
			fmt.Fprintf(&b, "role: standalone gateway\naddr: %s\nowners: %d  conns: %d  repl: %d  sheds: %d\n",
				gw.Addr(), gw.Owners(), conns, repl, gw.Sheds())
			b.WriteString(gw.DurableStatusText())
			return b.String()
		},
		ReadyFn: func() (bool, string) {
			if st := gw.Store(); st != nil && !st.Healthy() {
				return false, "WAL writer reported a commit error"
			}
			return true, "serving"
		},
	})
	if *storeDir != "" {
		info := gw.Recovery()
		logger.Info("durable store recovered", "dir", *storeDir,
			"owners", info.Owners, "snapshots", info.Snapshots, "entries", info.Entries)
	}
	logger.Info("gateway listening", "addr", gw.Addr())
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		<-done
		logger.Info("draining", "owners", gw.Owners())
		// Close waits for in-flight connections and shard work, then
		// flushes and closes the WAL — the graceful-drain contract the
		// in-process gateway regression test pins.
		if err := gw.Close(); err != nil {
			logger.Error("shutdown error", "err", err)
		}
		if m, ok := gw.StoreMetrics(); ok {
			logger.Info("WAL flushed", "entries", m.Appends, "commits", m.Commits, "rotations", m.Snapshots)
		}
		if n := gw.Sheds(); n > 0 {
			logger.Info("backpressure sheds", "count", n)
		}
	}()
	if err := gw.Serve(); err != nil {
		log.Fatalf("dpsync-server: serve: %v", err)
	}
	<-closed
	if admin != nil {
		_ = admin.Close()
	}
}

func loadOrGenKey(path string, gen bool) ([]byte, error) {
	if gen {
		key, err := seal.NewRandomKey()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(key)+"\n"), 0o600); err != nil {
			return nil, fmt.Errorf("writing key file: %w", err)
		}
		return key, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading key file (use -gen-key to create one): %w", err)
	}
	key, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		return nil, fmt.Errorf("decoding key file: %w", err)
	}
	return key, nil
}
