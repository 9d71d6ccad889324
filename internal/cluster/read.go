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
	"dpsync/internal/oblidb"
	"dpsync/internal/qcache"
	"dpsync/internal/seal"
	"dpsync/internal/store"
	"dpsync/internal/wire"
)

// The follower read plane: a follower is no longer a node that serves
// nobody. A connection that opens with the read-only hello ("DPSQ") is
// served queries and stats straight from the replicated store, bounded by
// the replica's freshness cursor — the shard's applied stream offset that
// followerCore.cut stamps on every observation.
//
// Freshness is the client's choice, not the replica's guess: a query
// carries Request.MinOffset (0 = any committed prefix is acceptable), and a
// replica whose cursor has not reached the bound refuses with the typed
// wire.ErrStale carrying its cursor, never with a silently stale answer.
// The client falls back to the primary, which is trivially fresh.
//
// Everything served here is the committed prefix by construction: the tail
// loop folds only group-committed WAL entries the primary shipped, and cut
// observes whole frames (followerCore.smu). Queries are pure
// post-processing of already-released DP state, so the read plane touches
// no ledger — replica reads spend exactly nothing, same as primary cache
// hits.

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
	// Rebuilds counts backend materializations — one whenever an owner is
	// first read or its replicated clock moved since the last read.
	Rebuilds int64
}

// readTenant is one owner's materialized read-only view: a backend rebuilt
// from the replicated history at a specific committed clock, plus the
// replica's own answer cache. The cache needs no invalidation hook — a
// clock advance discards the whole tenant (cache included) on the next
// read, which is the same invalidate-at-commit rule the primary enforces,
// observed lazily.
type readTenant struct {
	db     edb.Database
	sealed sealedIngest // non-nil when the backend ingests ciphertexts directly
	clock  uint64
	qc     *qcache.Cache
}

// sealedIngest mirrors the gateway's sealed-backend fast path (the type is
// internal to package gateway; the contract is structural).
type sealedIngest interface {
	SetupSealed([]seal.Sealed) error
	UpdateSealed([]seal.Sealed) error
}

// readPlane serves the read-only protocol on a follower. One mutex orders
// every request: backends are not concurrency-safe, and replica read load
// is dashboard-scale, not ingest-scale — correctness wins over parallelism
// here.
type readPlane struct {
	log        *slog.Logger
	fol        *followerCore
	newBackend func(owner string) (edb.Database, error)
	sealer     *seal.Sealer
	qcap       int

	mu      sync.Mutex
	tenants map[string]*readTenant
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup

	queries  atomic.Int64
	stale    atomic.Int64
	qcHits   atomic.Int64
	qcMiss   atomic.Int64
	rebuilds atomic.Int64
}

// newReadPlane resolves the backend constructor and ingress sealer exactly
// the way gateway.New does, so a follower materializes byte-identical
// state to what its own promotion would recover.
func newReadPlane(cfg Config, fol *followerCore, lg *slog.Logger) (*readPlane, error) {
	p := &readPlane{
		log: lg, fol: fol,
		newBackend: cfg.Gateway.NewBackend,
		qcap:       cfg.Gateway.QueryCache,
		tenants:    map[string]*readTenant{},
		conns:      map[net.Conn]struct{}{},
	}
	if key := cfg.Gateway.Key; len(key) > 0 {
		s, err := seal.NewSealer(key)
		if err != nil {
			return nil, fmt.Errorf("cluster: read plane: %w", err)
		}
		p.sealer = s
	}
	if p.newBackend == nil {
		if p.sealer == nil {
			return nil, fmt.Errorf("cluster: read plane: default ObliDB backend requires Gateway.Key")
		}
		key := cfg.Gateway.Key
		p.newBackend = func(string) (edb.Database, error) {
			return oblidb.NewWithKey(key)
		}
	}
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
	// cut is the atom: owner state and stream cursor from one frame
	// boundary of the tail loop. The freshness check runs against that
	// cursor whether or not the owner exists here — a client demanding
	// offsets this replica has not applied gets the typed refusal, never
	// an answer computed from less history than it asked for.
	st, cursor, ok := p.fol.cut(owner)
	if req.MinOffset > 0 && cursor < req.MinOffset {
		p.stale.Add(1)
		return wire.Response{Error: wire.ErrStale.Error(), Stale: &wire.StaleSpec{Offset: cursor}}
	}
	if !ok {
		// Mirror the primary's unknown-owner semantics: queries fail as an
		// un-setup database would; stats probes report the backend identity
		// from a throwaway instance without allocating tenant state.
		if req.Type == wire.MsgQuery {
			return wire.Response{Error: edb.ErrNotSetup.Error()}
		}
		db, err := p.newBackend(owner)
		if err != nil {
			return wire.Response{Error: fmt.Sprintf("cluster: read plane: backend for %q: %v", owner, err)}
		}
		return wire.NewStatsResponse(db.Stats(), db.Name(), int(db.Leakage()))
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return wire.Response{Error: "cluster: read plane shut down"}
	}
	tn := p.tenants[owner]
	if tn == nil || tn.clock != st.Clock {
		nt, err := p.materialize(&st)
		if err != nil {
			return wire.Response{Error: err.Error()}
		}
		tn = nt
		p.tenants[owner] = tn
	}
	switch req.Type {
	case wire.MsgStats:
		return wire.NewStatsResponse(tn.db.Stats(), tn.db.Name(), int(tn.db.Leakage()))
	default: // MsgQuery
		spec := *req.Query
		if tn.qc != nil {
			if resp, hit := tn.qc.Get(spec); hit {
				p.qcHits.Add(1)
				return resp
			}
			p.qcMiss.Add(1)
		}
		ans, cost, err := tn.db.Query(spec.ToQuery())
		if err != nil {
			return wire.Response{Error: err.Error()}
		}
		resp := wire.NewQueryResponse(ans, cost)
		if tn.qc != nil {
			tn.qc.Put(spec, resp)
		}
		return resp
	}
}

// materialize rebuilds one owner's read-only backend by streaming the
// replicated batch history — spilled runs straight off the replica's
// history segments, then the in-RAM tail — through the same ingest rules
// the gateway's recovery uses, at the committed clock the cut observed.
// The answer cache starts cold: a rebuild IS the invalidation.
func (p *readPlane) materialize(st *store.OwnerState) (*readTenant, error) {
	p.rebuilds.Add(1)
	db, err := p.newBackend(st.Owner)
	if err != nil {
		return nil, fmt.Errorf("cluster: read plane: backend for %q: %w", st.Owner, err)
	}
	tn := &readTenant{db: db, clock: st.Clock}
	if p.qcap >= 0 {
		tn.qc = qcache.New(p.qcap)
	}
	if si, isSealed := db.(sealedIngest); isSealed {
		tn.sealed = si
	} else if p.sealer == nil {
		return nil, fmt.Errorf("cluster: read plane: backend %q has no sealed-ingest path and no ingress key is configured", db.Name())
	}
	if len(st.Spilled) > 0 {
		// A ref issued since the shard's last rotation may name bytes still
		// in the history writer's buffer; StreamHistory reads the segment
		// files, so push them out first (the hub does the same before a
		// snapshot transfer).
		if err := p.fol.st.FlushHistory(store.ShardFor(st.Owner, p.fol.shards)); err != nil {
			return nil, fmt.Errorf("cluster: read plane: flushing spilled history for owner %q: %w", st.Owner, err)
		}
	}
	if err := p.fol.st.StreamHistory(st, func(bt store.Batch) error {
		cts := make([]seal.Sealed, len(bt.Sealed))
		for i, b := range bt.Sealed {
			cts[i] = seal.Sealed(b)
		}
		if tn.sealed != nil {
			if bt.Setup {
				return tn.sealed.SetupSealed(cts)
			}
			return tn.sealed.UpdateSealed(cts)
		}
		rs, err := p.sealer.OpenAll(cts)
		if err != nil {
			return err
		}
		if bt.Setup {
			return tn.db.Setup(rs)
		}
		return tn.db.Update(rs)
	}); err != nil {
		return nil, fmt.Errorf("cluster: read plane: rebuilding owner %q: %w", st.Owner, err)
	}
	return tn, nil
}

// Stats snapshots the plane's counters.
func (p *readPlane) Stats() ReadPlaneStats {
	return ReadPlaneStats{
		Queries:     p.queries.Load(),
		Stale:       p.stale.Load(),
		CacheHits:   p.qcHits.Load(),
		CacheMisses: p.qcMiss.Load(),
		Rebuilds:    p.rebuilds.Load(),
	}
}

// shutdown severs every read connection and drops the materialized
// tenants. Called before the follower seals (promotion, graceful close)
// or is killed — after it returns, no request can touch the store.
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
	p.tenants = map[string]*readTenant{}
	p.mu.Unlock()
	p.wg.Wait()
}
