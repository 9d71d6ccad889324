package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/cluster"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/oblidb"
	"dpsync/internal/qcache"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// ladderRequests is how many of the workload's first requests the ladder
// replays, one at a time, through each layer.
const ladderRequests = 2000

// request is one of the workload's operations, in the order the loaded
// phase would issue them.
type request struct {
	owner int
	round int
	batch []record.Record // nil for a query
	q     query.Query
}

func (r request) isSync() bool { return r.batch != nil }

// firstRequests flattens the loaded phase's visit order into its first n
// operations.
func firstRequests(w spec, in *inputs, seed uint64, n int) []request {
	order := visitOrder(seed, len(in.Owners))
	var reqs []request
	for v := 0; len(reqs) < n && v < len(order)*w.Visits; v++ {
		oi, round := order[v%len(order)], v/len(order)
		reqs = append(reqs, request{owner: oi, round: round, batch: in.Owners[oi].Batches[round]})
		for q := 0; q < w.Queries && len(reqs) < n; q++ {
			reqs = append(reqs, request{owner: oi, round: round, q: queryKinds[q%len(queryKinds)]})
		}
	}
	return reqs
}

// ladder times calls into one layer after another and keeps a span for
// each. A rung is a named series of durations, one per call.
type ladder struct {
	t0    time.Time
	spans []span
	roots []int                // roots[req] is request req's root span ID
	rungs map[string][]float64 // nanoseconds
}

func newLadder() *ladder { return &ladder{t0: time.Now(), rungs: map[string][]float64{}} }

// open starts the next request's root span; end closes request req's.
func (l *ladder) open() {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Req: len(l.roots), Name: "request", Start: time.Since(l.t0).Nanoseconds()})
	l.roots = append(l.roots, len(l.spans))
}

func (l *ladder) end(req int) { l.spans[l.roots[req]-1].End = time.Since(l.t0).Nanoseconds() }

// call times fn as one call of rung name, under request req's root span, or
// under none when the call belongs to no request (req < 0).
func (l *ladder) call(req int, name string, fn func()) time.Duration {
	parent := 0
	if req >= 0 {
		parent = l.roots[req]
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	s := start.Sub(l.t0).Nanoseconds()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Req: req, Name: name, Start: s, End: s + d.Nanoseconds()})
	l.rungs[name] = append(l.rungs[name], float64(d.Nanoseconds()))
	return d
}

func (l *ladder) medianNs(name string) float64 { return median(l.rungs[name]) }
func (l *ladder) medianUs(name string) float64 { return median(l.rungs[name]) / 1e3 }

// stubBackend is the no-op backend behind the gateway-stub rung: it stores
// nothing and answers queries with an answer prepared beforehand, so the
// response has the real shape and the backend costs nothing.
type stubBackend struct{ answers map[query.Kind]query.Answer }

func (stubBackend) Name() string                     { return "stub" }
func (stubBackend) Leakage() edb.LeakageClass        { return edb.L0 }
func (stubBackend) Supports(query.Query) bool        { return true }
func (stubBackend) Stats() edb.StorageStats          { return edb.StorageStats{} }
func (stubBackend) Setup([]record.Record) error      { return nil }
func (stubBackend) Update([]record.Record) error     { return nil }
func (stubBackend) SetupSealed([]seal.Sealed) error  { return nil }
func (stubBackend) UpdateSealed([]seal.Sealed) error { return nil }
func (b stubBackend) Query(q query.Query) (query.Answer, edb.Cost, error) {
	return b.answers[q.Kind], edb.Cost{}, nil
}

// countConn counts Read and Write calls, each of which is one system call
// on a TCP connection.
type countConn struct {
	net.Conn
	calls *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error)  { c.calls.Add(1); return c.Conn.Read(p) }
func (c countConn) Write(p []byte) (int, error) { c.calls.Add(1); return c.Conn.Write(p) }

// runLadder replays the workload's first requests through each layer's
// public API and returns the ladder's metrics and spans. It needs a launcher
// only for the last rung, the unloaded round trip to the real topology.
func runLadder(w spec, in *inputs, seed uint64, l launcher, dir string) (map[string]float64, []span, error) {
	defer os.RemoveAll(dir)
	reqs := firstRequests(w, in, seed, ladderRequests)
	key, err := seal.NewRandomKey()
	if err != nil {
		return nil, nil, err
	}
	sealer, err := seal.NewSealer(key)
	if err != nil {
		return nil, nil, err
	}
	ld := newLadder()
	m := map[string]float64{}
	codec := wire.CodecBinary

	// Prepared answers give responses their real shape without a backend.
	answers := make([]map[query.Kind]query.Answer, len(in.Owners))
	answersFor := func(oi int) map[query.Kind]query.Answer {
		if answers[oi] == nil {
			answers[oi] = map[query.Kind]query.Answer{}
			truth := in.Owners[oi].truth(len(in.Owners[oi].Batches))
			for _, q := range queryKinds {
				a, err := truth.AnswerFor(q)
				if err == nil {
					answers[oi][q.Kind] = a
				}
			}
		}
		return answers[oi]
	}

	// Rung: seal and the request codec. The sealed batches and encoded
	// payloads feed the later rungs.
	sealed := make([][]seal.Sealed, len(reqs))
	wreqs := make([]wire.GatewayRequest, len(reqs))
	wresps := make([]wire.GatewayResponse, len(reqs))
	reqPayloads := make([][]byte, len(reqs))
	respPayloads := make([][]byte, len(reqs))
	var sealNs, sealedRecords, reqBytes float64
	for i, r := range reqs {
		ld.open()
		wr := wire.Request{Type: wire.MsgQuery}
		resp := wire.Response{OK: true}
		if r.isSync() {
			sealNs += float64(ld.call(i, "seal", func() { sealed[i], err = sealer.SealAll(r.batch) }).Nanoseconds())
			if err != nil {
				return nil, nil, err
			}
			sealedRecords += float64(len(r.batch))
			raw := make([][]byte, len(sealed[i]))
			for j, ct := range sealed[i] {
				raw[j] = ct
			}
			wr = wire.Request{Type: wire.MsgUpdate, Sealed: raw, Seq: uint64(r.round) + 2}
		} else {
			spec := wire.FromQuery(r.q)
			wr.Query = &spec
			resp = wire.NewQueryResponse(answersFor(r.owner)[r.q.Kind], edb.Cost{})
		}
		wreqs[i] = wire.GatewayRequest{ID: uint64(i) + 1, Owner: in.Owners[r.owner].Name, Req: wr}
		wresps[i] = wire.GatewayResponse{ID: uint64(i) + 1, Resp: resp}
		ld.call(i, "encode_req", func() { reqPayloads[i], err = codec.EncodeGatewayRequest(wreqs[i]) })
		if err != nil {
			return nil, nil, err
		}
		reqBytes += float64(len(reqPayloads[i]) + 4)
		ld.call(i, "decode_req", func() { _, err = codec.DecodeGatewayRequest(reqPayloads[i]) })
		if err != nil {
			return nil, nil, err
		}
		ld.call(i, "encode_resp", func() { respPayloads[i], err = codec.EncodeGatewayResponse(wresps[i]) })
		if err != nil {
			return nil, nil, err
		}
		ld.call(i, "decode_resp", func() { _, err = codec.DecodeGatewayResponse(respPayloads[i]) })
		if err != nil {
			return nil, nil, err
		}
	}
	m["seal.seal_us_per_record"] = sealNs / sealedRecords / 1e3
	m["wire.encode_req_ns"] = ld.medianNs("encode_req")
	m["wire.decode_req_ns"] = ld.medianNs("decode_req")
	m["wire.encode_resp_ns"] = ld.medianNs("encode_resp")
	m["wire.decode_resp_ns"] = ld.medianNs("decode_resp")
	m["wire.req_bytes"] = reqBytes / float64(len(reqs))

	// Allocations of the four codec calls per request, counted with nothing
	// else running in this process.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range reqs {
		p, _ := codec.EncodeGatewayRequest(wreqs[i])
		_, _ = codec.DecodeGatewayRequest(p)
		p, _ = codec.EncodeGatewayResponse(wresps[i])
		_, _ = codec.DecodeGatewayResponse(p)
	}
	runtime.ReadMemStats(&ms1)
	m["wire.codec_allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(reqs))

	// Rung: frame I/O over loopback TCP against an echo of the prepared
	// responses.
	var calls atomic.Int64
	if err := frameRung(ld, reqPayloads, respPayloads, &calls); err != nil {
		return nil, nil, err
	}
	m["wire.frame_rt_us"] = ld.medianUs("frame_rt")
	m["wire.frame_syscalls_per_rt"] = float64(calls.Load()) / float64(len(reqs))

	// Rung: a client round trip to an in-process gateway whose backend does
	// nothing — client, frames, codec, seal and dispatch, and no backend.
	stub, err := gateway.New("127.0.0.1:0", gateway.Config{Key: key, NewBackend: func(owner string) (edb.Database, error) {
		var oi int
		_, err := fmt.Sscanf(owner, "owner-%d", &oi)
		return stubBackend{answersFor(oi)}, err
	}})
	if err != nil {
		return nil, nil, err
	}
	stubDone := make(chan struct{})
	go func() { defer close(stubDone); _ = stub.Serve() }()
	err = clientRung(ld, "stub_rt", reqs, in, stub.Addr(), key)
	_ = stub.Close()
	<-stubDone
	if err != nil {
		return nil, nil, err
	}
	m["gateway.stub_rt_us"] = ld.medianUs("stub_rt")
	codecUs := (m["wire.encode_req_ns"] + m["wire.decode_req_ns"] + m["wire.encode_resp_ns"] + m["wire.decode_resp_ns"]) / 1e3
	m["client.self_us"] = m["gateway.stub_rt_us"] - m["wire.frame_rt_us"] - codecUs - ld.medianUs("seal")

	// Rung: the real backend, fed the sealed batches directly.
	if err := backendRung(ld, reqs, in, sealed, sealer, key, m); err != nil {
		return nil, nil, err
	}
	qcacheRung(ld, m)
	entries := func() *entryStream { return &entryStream{reqs: reqs, in: in, sealed: sealed, ticks: map[int]uint64{}} }
	if err := storeRung(ld, entries, filepath.Join(dir, "store"), m); err != nil {
		return nil, nil, err
	}
	if err := clusterRung(ld, entries, in, key, dir, m); err != nil {
		return nil, nil, err
	}

	// Last rung: the same requests, one at a time, against the workload's
	// real topology with nothing else in flight. What the rungs above do not
	// add up to is what nobody has measured yet.
	f, _, err := startFleet(w, in, l, filepath.Join(dir, "unloaded"))
	defer f.stop()
	if err != nil {
		return nil, nil, err
	}
	for i, r := range reqs {
		sess := f.sessions[r.owner]
		if r.isSync() {
			ld.call(i, "client_sync", func() { err = sess.Update(r.batch) })
		} else {
			ld.call(i, "client_query", func() { _, _, err = sess.Query(r.q) })
		}
		if err != nil {
			return nil, nil, fmt.Errorf("unloaded replay: %w", err)
		}
		ld.end(i)
	}
	m["trace.client_sync_us"] = ld.medianUs("client_sync")
	sum := ld.medianUs("stub_sync") + ld.medianUs("oblidb_ingest")
	if w.Durable || w.Replica {
		sum += m["store.append_commit_us_g1"]
	}
	if w.Replica {
		sum += m["cluster.hub_committed_us_empty"]
	}
	m["trace.ladder_sum_us"] = sum
	m["trace.unexplained_pct"] = 100 * (m["trace.client_sync_us"] - sum) / m["trace.client_sync_us"]
	return m, ld.spans, nil
}

// frameRung sends each request payload over a loopback connection to an
// echo that answers with the prepared response payload.
func frameRung(ld *ladder, reqPayloads, respPayloads [][]byte, calls *atomic.Int64) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	echoErr := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer conn.Close()
		cc := countConn{conn, calls}
		for i := range reqPayloads {
			if _, err := wire.ReadFrame(cc); err != nil {
				echoErr <- err
				return
			}
			if err := wire.WriteFrame(cc, respPayloads[i]); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	cc := countConn{conn, calls}
	for i := range reqPayloads {
		ld.call(i, "frame_rt", func() {
			if err = wire.WriteFrame(cc, reqPayloads[i]); err == nil {
				_, err = wire.ReadFrame(cc)
			}
		})
		if err != nil {
			return err
		}
	}
	return <-echoErr
}

// clientRung sets the requests' owners up on the gateway at addr and
// replays the requests one at a time through internal/client. Syncs are
// also kept as their own series (<name> minus "_rt" plus "_sync").
func clientRung(ld *ladder, name string, reqs []request, in *inputs, addr string, key []byte) error {
	conn, err := client.DialGateway(addr, key)
	if err != nil {
		return err
	}
	defer conn.Close()
	sessions := map[int]*client.OwnerSession{}
	for _, r := range reqs {
		if sessions[r.owner] == nil {
			sessions[r.owner] = conn.Owner(in.Owners[r.owner].Name)
			if err := sessions[r.owner].Setup(in.Owners[r.owner].Setup); err != nil {
				return err
			}
		}
	}
	for i, r := range reqs {
		sess := sessions[r.owner]
		d := ld.call(i, name, func() {
			if r.isSync() {
				err = sess.Update(r.batch)
			} else {
				_, _, err = sess.Query(r.q)
			}
		})
		if err != nil {
			return err
		}
		if r.isSync() {
			ld.rungs["stub_sync"] = append(ld.rungs["stub_sync"], float64(d.Nanoseconds()))
		}
	}
	return nil
}

// backendRung feeds the sealed batches to per-owner ObliDB instances and
// runs the requests' queries on them; then it times Q1–Q4 on one table
// holding an owner's whole workload, the size the loaded phase ends at.
func backendRung(ld *ladder, reqs []request, in *inputs, sealed [][]seal.Sealed, sealer *seal.Sealer, key []byte, m map[string]float64) error {
	dbs := map[int]*oblidb.DB{}
	newDB := func(oi int) (*oblidb.DB, error) {
		db, err := oblidb.NewWithKey(key)
		if err != nil {
			return nil, err
		}
		cts, err := sealer.SealAll(in.Owners[oi].Setup)
		if err != nil {
			return nil, err
		}
		return db, db.SetupSealed(cts)
	}
	var ingestNs, records float64
	for i, r := range reqs {
		db := dbs[r.owner]
		if db == nil {
			var err error
			if db, err = newDB(r.owner); err != nil {
				return err
			}
			dbs[r.owner] = db
		}
		var err error
		if r.isSync() {
			ingestNs += float64(ld.call(i, "oblidb_ingest", func() { err = db.UpdateSealed(sealed[i]) }).Nanoseconds())
			records += float64(len(sealed[i]))
		} else {
			ld.call(i, "oblidb_query", func() { _, _, err = db.Query(r.q) })
		}
		if err != nil {
			return err
		}
	}
	m["oblidb.ingest_us_per_record"] = ingestNs / records / 1e3

	oi := reqs[0].owner
	full, err := newDB(oi)
	if err != nil {
		return err
	}
	for _, b := range in.Owners[oi].Batches {
		cts, err := sealer.SealAll(b)
		if err != nil {
			return err
		}
		if err := full.UpdateSealed(cts); err != nil {
			return err
		}
	}
	for k, q := range queryKinds {
		name := fmt.Sprintf("oblidb_q%d_final", k+1)
		for i := 0; i < 200; i++ {
			ld.call(-1, name, func() { _, _, err = full.Query(q) })
			if err != nil {
				return err
			}
		}
		m[fmt.Sprintf("oblidb.query_q%d_us", k+1)] = ld.medianUs(name)
	}
	return nil
}

// qcacheRung times the answer cache the way a visit uses it: four misses
// that fill it, four hits, one invalidation.
func qcacheRung(ld *ladder, m map[string]float64) {
	c := qcache.New(0)
	resp := wire.NewQueryResponse(query.Answer{Groups: make([]float64, record.NumLocations)}, edb.Cost{})
	specs := make([]wire.QuerySpec, len(queryKinds))
	for i, q := range queryKinds {
		specs[i] = wire.FromQuery(q)
	}
	for i := 0; i < ladderRequests/len(specs); i++ {
		for _, s := range specs {
			ld.call(-1, "qcache_miss_put", func() {
				if _, ok := c.Get(s); !ok {
					c.Put(s, resp)
				}
			})
		}
		for _, s := range specs {
			ld.call(-1, "qcache_hit", func() { c.Get(s) })
		}
		ld.call(-1, "qcache_invalidate", func() { c.Invalidate() })
	}
	m["qcache.hit_ns"] = ld.medianNs("qcache_hit")
	m["qcache.miss_put_ns"] = ld.medianNs("qcache_miss_put")
	m["qcache.invalidate_ns"] = ld.medianNs("qcache_invalidate")
}

// entryStream turns the requests' sealed sync batches into an endless
// stream of WAL entries with consecutive per-owner ticks, cycling when the
// requests run out.
type entryStream struct {
	reqs   []request
	in     *inputs
	sealed [][]seal.Sealed
	next   int
	ticks  map[int]uint64
}

func (s *entryStream) entry() store.Entry {
	for !s.reqs[s.next%len(s.reqs)].isSync() {
		s.next++
	}
	i := s.next % len(s.reqs)
	s.next++
	r := s.reqs[i]
	raw := make([][]byte, len(s.sealed[i]))
	for j, ct := range s.sealed[i] {
		raw[j] = ct
	}
	s.ticks[r.owner]++
	return store.Entry{Owner: s.in.Owners[r.owner].Name, Batch: store.Batch{
		Tick: s.ticks[r.owner], Setup: s.ticks[r.owner] == 1, Sealed: raw,
		Charge: store.Charge{Name: "m_update", Eps: syncEpsilon, Rule: dp.Sequential},
	}}
}

// appendGroup appends n entries with up to inflight of them uncommitted at
// once and returns the mean append-to-commit latency.
func appendGroup(ld *ladder, st *store.Store, es *entryStream, states map[string]*store.OwnerState, name string, n, inflight int) error {
	for done := 0; done < n; done += inflight {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		starts := make([]time.Time, inflight)
		for k := 0; k < inflight; k++ {
			e := es.entry()
			os := states[e.Owner]
			if os == nil {
				os = &store.OwnerState{Owner: e.Owner, Budget: dp.NewBudget()}
				states[e.Owner] = os
			}
			if err := os.Apply(e.Batch); err != nil {
				return err
			}
			wg.Add(1)
			starts[k] = time.Now()
			err := st.Append(0, e, func(err error) {
				d := time.Since(starts[k])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				s := starts[k].Sub(ld.t0).Nanoseconds()
				ld.spans = append(ld.spans, span{ID: len(ld.spans) + 1, Req: -1, Name: name, Start: s, End: s + d.Nanoseconds()})
				ld.rungs[name] = append(ld.rungs[name], float64(d.Nanoseconds()))
				mu.Unlock()
				wg.Done()
			})
			if err != nil {
				return err
			}
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}

// storeRung drives internal/store directly: group commit at 1, 8 and 64 in
// flight without fsync (the WAL's own cost), at 1 in flight with fsync on
// the checkout's filesystem (the device's cost), a rotation at 1024
// entries, spill, and recovery of the populated directory.
func storeRung(ld *ladder, entries func() *entryStream, dir string, m map[string]float64) error {
	const perPhase = 1024
	es := entries()
	states := map[string]*store.OwnerState{}
	opts := store.Options{Dir: dir, Shards: 1, HistoryWindow: historyWindow}
	st, _, err := store.Open(opts)
	if err != nil {
		return err
	}
	defer func() { st.Close() }()
	if err := appendGroup(ld, st, es, states, "store_append_g1", perPhase, 1); err != nil {
		return err
	}
	owners := make([]store.OwnerState, 0, len(states))
	for _, name := range slices.Sorted(maps.Keys(states)) {
		owners = append(owners, *states[name])
	}
	ld.call(-1, "store_rotate", func() { err = st.Rotate(0, owners) })
	if err != nil {
		return err
	}
	if err := appendGroup(ld, st, es, states, "store_append_g8", perPhase, 8); err != nil {
		return err
	}
	if err := appendGroup(ld, st, es, states, "store_append_g64", perPhase, 64); err != nil {
		return err
	}
	// Spill one window of batches for each of a few owners, into history
	// segments nothing references: orphans, which recovery collects.
	spilled := 0
	for _, name := range slices.Sorted(maps.Keys(states))[:min(8, len(states))] {
		tail := states[name].Tail
		if len(tail) > historyWindow {
			tail = tail[:historyWindow]
		}
		ld.call(-1, "store_spill", func() { _, _, err = st.Spill(0, name, nil, tail) })
		if err != nil {
			return err
		}
		spilled += len(tail)
	}
	var bytes float64
	for i := 0; i < 256; i++ {
		frame, err := store.EncodeEntryFrame(es.entry())
		if err != nil {
			return err
		}
		bytes += float64(len(frame))
	}
	if err := st.Close(); err != nil {
		return err
	}
	ld.call(-1, "store_recover", func() { st, _, err = store.Open(opts) })
	if err != nil {
		return err
	}
	m["store.append_commit_us_g1"] = mean(ld.rungs["store_append_g1"]) / 1e3
	m["store.append_commit_us_g8"] = mean(ld.rungs["store_append_g8"]) / 1e3
	m["store.append_commit_us_g64"] = mean(ld.rungs["store_append_g64"]) / 1e3
	m["store.entry_bytes"] = bytes / 256
	m["store.rotate_ms"] = ld.medianUs("store_rotate") / 1e3
	m["store.spill_us_per_batch"] = mean(ld.rungs["store_spill"]) * float64(len(ld.rungs["store_spill"])) / 1e3 / float64(spilled)
	m["store.recover_ms_per_1k_entries"] = ld.medianUs("store_recover") / 1e3 / (3 * perPhase / 1000.0)

	// The device: the same single-entry commit with an fsync in it.
	fopts := opts
	fopts.Dir, fopts.Fsync = dir+"-fsync", true
	fst, _, err := store.Open(fopts)
	if err != nil {
		return err
	}
	defer fst.Close()
	if err := appendGroup(ld, fst, entries(), map[string]*store.OwnerState{}, "store_append_fsync", 256, 1); err != nil {
		return err
	}
	m["store.append_commit_fsync_disk_us"] = mean(ld.rungs["store_append_fsync"]) / 1e3
	return nil
}

// clusterRung times the replication layer's three pieces: the hub's
// Committed with its catch-up ring empty and full, the follower's apply of
// one shipped entry, and a follower read just after its owner's clock moved
// (cold: the read plane rebuilds the owner from its whole history) at
// history depths 8 and 80, against a repeat of the same read (warm).
func clusterRung(ld *ladder, entries func() *entryStream, in *inputs, key []byte, dir string, m map[string]float64) error {
	hub := cluster.NewHub(cluster.HubConfig{})
	gw, err := gateway.New("127.0.0.1:0", gateway.Config{Key: key, Shards: 1, StoreDir: filepath.Join(dir, "hub"), Replicator: hub})
	if err != nil {
		return err
	}
	if err := hub.Bind(gw); err != nil {
		gw.Kill()
		return err
	}
	es := entries()
	for i := 0; i < cluster.DefaultRingSize+2*ladderRequests; i++ {
		e := es.entry()
		switch {
		case i < ladderRequests:
			ld.call(-1, "hub_committed_empty", func() { hub.Committed(0, e, telemetry.TraceContext{}) })
		case i >= cluster.DefaultRingSize+ladderRequests:
			ld.call(-1, "hub_committed_full", func() { hub.Committed(0, e, telemetry.TraceContext{}) })
		default:
			hub.Committed(0, e, telemetry.TraceContext{})
		}
	}
	hub.Close()
	gw.Kill()
	m["cluster.hub_committed_us_empty"] = ld.medianUs("hub_committed_empty")
	m["cluster.hub_committed_us_full"] = ld.medianUs("hub_committed_full")

	es = entries()
	states := map[string]*store.OwnerState{}
	for i := 0; i < ladderRequests; i++ {
		e := es.entry()
		frame, err := store.EncodeEntryFrame(e)
		if err != nil {
			return err
		}
		st := states[e.Owner]
		if st == nil {
			st = &store.OwnerState{Owner: e.Owner, Budget: dp.NewBudget()}
			states[e.Owner] = st
		}
		ld.call(-1, "follower_apply", func() {
			var got store.Entry
			if got, err = store.DecodeEntryFrame(frame); err == nil {
				err = st.Apply(got.Batch)
			}
		})
		if err != nil {
			return err
		}
	}
	m["cluster.follower_apply_us"] = ld.medianUs("follower_apply")

	// A two-node cluster in this process, 16 owners taken to depth 80.
	const readers = 16
	sub := &inputs{Owners: in.Owners[:min(readers, len(in.Owners))]}
	f, _, err := startFleet(spec{Replica: true, InFlight: 1}, sub, inprocLauncher{}, filepath.Join(dir, "readplane"))
	defer f.stop()
	if err != nil {
		return err
	}
	depth := 0
	for _, target := range []int{8, 80} {
		for ; depth < target; depth++ {
			for i, o := range sub.Owners {
				if err := f.sessions[i].Update(o.Batches[depth%len(o.Batches)]); err != nil {
					return err
				}
			}
		}
		if err := f.quiesce(); err != nil {
			return err
		}
		for i := range sub.Owners {
			ld.call(-1, fmt.Sprintf("read_cold_h%d", target), func() { _, _, err = f.sessions[i].Query(queryKinds[0]) })
			if err != nil {
				return err
			}
			ld.call(-1, "read_warm", func() { _, _, err = f.sessions[i].Query(queryKinds[0]) })
			if err != nil {
				return err
			}
		}
	}
	m["cluster.read_cold_us_h8"] = ld.medianUs("read_cold_h8")
	m["cluster.read_cold_us_h80"] = ld.medianUs("read_cold_h80")
	m["cluster.read_warm_us"] = ld.medianUs("read_warm")
	return nil
}

// writeTrace writes the spans kept in memory to dir.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer runs the ladder, an untraced and a traced repetition, and
// returns every per-layer metric.
func (r *workloadRun) perLayer() (map[string]summary, error) {
	m, spans, err := runLadder(r.w, r.in, r.seed, r.l, r.dir())
	if err != nil {
		return nil, fmt.Errorf("%s ladder: %w", r.w.Name, err)
	}
	plain, err := r.one(false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.w.Name, err)
	}
	traced, err := r.one(true)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", r.w.Name, err)
	}
	r.layerReps = append(r.layerReps, plain, traced)
	base := len(spans) // the traced repetition's span IDs follow the ladder's
	for _, s := range traced.Spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Req += ladderRequests
		spans = append(spans, s)
	}
	if err := writeTrace(r.out, r.w.Name, spans); err != nil {
		return nil, err
	}

	// What a user sees comes from the untraced repetition; what the servers
	// and /proc say, from the traced one.
	m["failed_share"] = float64(plain.Failed+traced.Failed) / float64(plain.Attempted+traced.Attempted)
	m["sync_per_s_wall"] = plain.syncPerSWall()
	m["sync_p50_ms"] = p(plain.SyncLatMs, 0.50)
	m["sync_p99_ms"] = p(plain.SyncLatMs, 0.99)
	m["query_p50_ms"] = p(plain.QueryLatMs, 0.50)
	m["query_p99_ms"] = p(plain.QueryLatMs, 0.99)
	m["recovery_ms"] = plain.RecoveryMs
	m["disk_bytes_per_user_byte"] = plain.DiskPerUser
	x, ops := traced, float64(traced.ops())
	v := x.Varz
	m["gateway.queue_wait_us"] = varzHistMean(v, "gateway_sync_queue_wait_us")
	m["gateway.apply_us"] = varzHistMean(v, "gateway_sync_apply_us")
	m["gateway.commit_us"] = varzHistMean(v, "gateway_sync_commit_us")
	m["gateway.ack_us"] = varzHistMean(v, "gateway_sync_ack_us")
	m["store.group_size"] = varzHistMean(v, "store_commit_group_size")
	m["store.flush_us"] = varzHistMean(v, "store_commit_flush_us")
	if n := varzNum(v, "store_wal_appends_total"); n > 0 {
		m["store.fsyncs_per_sync"] = varzNum(v, "store_wal_commits_total") / n
	}
	hits, misses := varzNum(v, "gateway_qcache_hits_total"), varzNum(v, "gateway_qcache_misses_total")
	if fv := x.FollowerVarz; fv != nil {
		hits += varzNum(fv, "cluster_read_qcache_hits_total")
		misses += varzNum(fv, "cluster_read_qcache_misses_total")
		if q := varzNum(fv, "cluster_read_queries_total"); q > 0 {
			m["cluster.read_rebuilds_per_query"] = varzNum(fv, "cluster_read_rebuilds_total") / q
		}
		if c := varzNum(v, "gateway_committed_entries_total"); c > 0 {
			m["cluster.shipped_per_commit"] = varzNum(v, "repl_shipped_total") / c
		}
		m["cluster.repl_lag_ms"] = x.ReplLagMs
		if reads := float64(x.Served + x.Fallbacks); reads > 0 {
			m["cluster.replica_served_share"] = float64(x.Served) / reads
			m["cluster.replica_stale_share"] = float64(x.Stale) / reads
		}
		m["follower.cpu_us_per_op"] = float64(x.FollowerCPU.Microseconds()) / ops
	}
	if hits+misses > 0 {
		m["qcache.hit_ratio"] = hits / (hits + misses)
	}
	m["server.cpu_us_per_op"] = float64(x.ServerCPU.Microseconds()) / ops
	m["server.peak_rss_mb"] = x.PeakRSSMB
	m["loadgen.cpu_busy_share"] = x.LoadgenCPU.Seconds() / x.Elapsed.Seconds()
	m["loadgen.conns"] = conns
	m["trace.overhead_pct"] = 100 * (plain.syncPerSWall() - traced.syncPerSWall()) / plain.syncPerSWall()

	// Every name is reported on every workload: 0 where the workload does
	// not use the layer.
	out := make(map[string]summary, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = single(m[d.Name])
	}
	return out, nil
}
