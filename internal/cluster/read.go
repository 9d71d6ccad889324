package cluster

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// The follower read plane: a follower is no longer a node that serves
// nobody. A connection that opens with the read-only hello ("DPSQ") is
// served queries and stats from the replica's resident tenant machines,
// bounded by the replica's freshness cursor — the shard's applied stream
// offset, read under the same lock hold that answers.
//
// Freshness is the client's choice, not the replica's guess: a query
// carries Request.MinOffset (0 = any committed prefix is acceptable), and a
// replica whose cursor has not reached the bound refuses with the typed
// wire.ErrStale carrying its cursor, never with a silently stale answer.
// The client falls back to the primary, which is trivially fresh.
//
// Everything served here is the committed prefix by construction: the tail
// loop folds only group-committed WAL entries the primary shipped, and a
// read observes whole frames (followerCore.smu). Queries are pure
// post-processing of already-released DP state, so the read plane touches
// no ledger — replica reads spend exactly nothing, same as primary cache
// hits.
//
// An owner's first read makes it resident: its machine (gateway.Tenant) is
// replayed once from the replicated history, and from then on the tail loop
// keeps it current, one shipped batch at a time, dropping the owner's answer
// cache exactly where its replicated clock advances. A later read replays
// again only if an incremental ingest failed and the machine was dropped.

// readPlaneReadTimeout bounds silence on a read-only connection; analyst
// dashboards poll, so a quiet read conn is an abandoned one.
const readPlaneReadTimeout = 2 * time.Minute

// readPlaneWriteTimeout bounds one response write.
const readPlaneWriteTimeout = 10 * time.Second

// ReadPlaneStats snapshots the follower read-plane counters.
type ReadPlaneStats struct {
	// Queries counts served read requests (queries + stats), refusals
	// included.
	Queries int64
	// Stale counts typed freshness refusals (cursor < MinOffset).
	Stale int64
	// CacheHits/CacheMisses are the replica-side noise-reuse answer cache
	// counters.
	CacheHits   int64
	CacheMisses int64
	// Rebuilds counts materializations from history (an owner's first read,
	// or after a dropped machine).
	Rebuilds int64
}

// readPlane serves the read-only protocol on a follower. Requests are
// answered under the follower's stream lock: backends are not
// concurrency-safe, and replica read load is dashboard-scale, not
// ingest-scale — correctness wins over parallelism here.
type readPlane struct {
	log     *slog.Logger
	fol     *followerCore
	tenants *gateway.Tenants

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	queries  atomic.Int64
	stale    atomic.Int64
	rebuilds atomic.Int64
	qcHits   telemetry.Counter
	qcMiss   telemetry.Counter
}

// newReadPlane resolves cfg.Gateway into tenant machines the way gateway.New
// does (gateway.NewTenants), so a follower's resident machine is
// byte-identical state to what its own promotion would recover.
func newReadPlane(cfg Config, fol *followerCore, lg *slog.Logger) (*readPlane, error) {
	p := &readPlane{log: lg, fol: fol, conns: map[net.Conn]struct{}{}}
	ts, err := gateway.NewTenants(cfg.Gateway, gateway.CacheMetrics{Hits: &p.qcHits, Misses: &p.qcMiss})
	if err != nil {
		return nil, fmt.Errorf("cluster: read plane: %w", err)
	}
	p.tenants = ts
	return p, nil
}

// serve runs one read-only session: ack the hello with the one codec this
// build speaks (like the primary, whatever byte was proposed), then answer
// frames sequentially until the link dies or the plane shuts down. Runs on
// the per-connection goroutine the follower's accept loop spawned.
func (p *readPlane) serve(conn net.Conn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = wire.WriteHelloRefused(conn)
		return
	}
	p.conns[conn] = struct{}{}
	p.wg.Add(1)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, conn)
		p.mu.Unlock()
		p.wg.Done()
	}()

	const codec = wire.CodecBinary
	_ = conn.SetWriteDeadline(time.Now().Add(readPlaneWriteTimeout))
	if err := wire.WriteHelloAck(conn, codec); err != nil {
		return
	}
	fc := wire.NewConn(conn)
	fc.ReadTimeout, fc.WriteTimeout = readPlaneReadTimeout, readPlaneWriteTimeout
	for {
		payload, err := fc.ReadFrame(nil)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, os.ErrDeadlineExceeded) {
				p.log.Debug("read-plane connection closed", "err", err)
			}
			return
		}
		greq, err := codec.DecodeGatewayRequest(payload)
		var resp wire.Response
		switch {
		case err != nil:
			resp = wire.Response{Error: err.Error()}
		case greq.Owner == "":
			resp = wire.Response{Error: "gateway: missing owner id"}
		default:
			resp = p.serveRequest(greq.Owner, greq.Req)
		}
		out, err := wire.AppendGatewayResponse(fc.BeginFrame(), wire.GatewayResponse{ID: greq.ID, Resp: resp})
		if err != nil {
			p.log.Warn("read-plane response encoding failed; severing", "err", err)
			return
		}
		// Requests are answered one at a time, so nothing can be waiting
		// behind this response: it goes out now.
		if _, err := fc.EndFrame(out); err != nil {
			return
		}
		if err := fc.Flush(); err != nil {
			return
		}
	}
}

// serveRequest answers one read-plane request. Syncs and resumes are
// refused with the typed not-primary error — this connection was
// negotiated read-only and this node holds no lease.
func (p *readPlane) serveRequest(owner string, req wire.Request) wire.Response {
	switch req.Type {
	case wire.MsgQuery, wire.MsgStats:
	default:
		return wire.Response{Error: wire.ErrNotPrimary.Error()}
	}
	p.queries.Add(1)
	if req.Type == wire.MsgQuery && req.Query == nil {
		return wire.Response{Error: "query missing"}
	}
	// One smu hold is the atom: stream cursor, owner state and the owner's
	// machine from one frame boundary of the tail loop. The freshness check
	// runs against that cursor whether or not the owner exists here — a
	// client demanding offsets this replica has not applied gets the typed
	// refusal, never an answer computed from less history than it asked for.
	f := p.fol
	sid := store.ShardFor(owner, f.shards)
	f.smu.Lock()
	defer f.smu.Unlock()
	if cursor := f.counts[sid]; req.MinOffset > 0 && cursor < req.MinOffset {
		p.stale.Add(1)
		return wire.Response{Error: wire.ErrStale.Error(), Stale: &wire.StaleSpec{Offset: cursor}}
	}
	st := f.states[sid][owner]
	if st == nil {
		// Mirror the primary's unknown-owner semantics: queries fail as an
		// un-setup database would; stats probes report the backend identity
		// without allocating tenant state.
		if req.Type == wire.MsgQuery {
			return wire.Response{Error: edb.ErrNotSetup.Error()}
		}
		return p.tenants.StatsProbe(owner)
	}
	tn := f.machines[owner]
	if tn == nil {
		if f.machines == nil {
			return wire.Response{Error: "cluster: read plane shut down"}
		}
		// First read of this owner (or its machine was dropped): replay it
		// from the replicated history, once. It stays resident; fold keeps
		// it current from here on.
		p.rebuilds.Add(1)
		var err error
		if tn, err = p.tenants.Replay(f.st, sid, st); err != nil {
			return wire.Response{Error: err.Error()}
		}
		f.machines[owner] = tn
	}
	return tn.Read(req)
}

// Stats snapshots the plane's counters.
func (p *readPlane) Stats() ReadPlaneStats {
	return ReadPlaneStats{
		Queries:     p.queries.Load(),
		Stale:       p.stale.Load(),
		CacheHits:   p.qcHits.Value(),
		CacheMisses: p.qcMiss.Value(),
		Rebuilds:    p.rebuilds.Load(),
	}
}

// shutdown severs every read connection, waits out the requests in flight
// and drops the resident machines. Called before the follower seals
// (promotion, graceful close) or is killed — after it returns, no request
// can touch the store.
func (p *readPlane) shutdown() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	p.fol.dropMachines()
}
