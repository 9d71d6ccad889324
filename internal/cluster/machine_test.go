package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/oblidb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/refdb"
	"dpsync/internal/seal"
	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// replica is a follower driven by hand: a replica-role gateway over a
// directory, the follower core that tails into it, and a read-only connection
// to it. The test is the primary's stream (ship, transfer) and the analyst
// (read), with no second node, so every interleaving is the test's choice:
// frames go in through the follower's frame entry, reads through the
// gateway's request path.
type replica struct {
	tb     testing.TB
	gw     *gateway.Gateway
	f      *followerCore
	gcfg   gateway.Config // as the gateway was built, StoreDir included
	conn   *rigConn       // the rig's own analyst
	sealer *seal.Sealer
	key    []byte
	heads  []uint64 // per shard: the last live offset shipped
}

const rigEps = 0.5

func newReplica(tb testing.TB, gcfg gateway.Config, snapEvery int) *replica {
	tb.Helper()
	return newReplicaAt(tb, tb.TempDir(), gcfg, snapEvery, telemetry.Discard())
}

// newReplicaAt is newReplica over a directory and a logger of the test's
// choosing.
func newReplicaAt(tb testing.TB, dir string, gcfg gateway.Config, snapEvery int, lg *slog.Logger) *replica {
	tb.Helper()
	key, err := seal.NewRandomKey()
	if err != nil {
		tb.Fatal(err)
	}
	gcfg.Key, gcfg.StoreDir, gcfg.SnapshotEvery, gcfg.Logger = key, dir, snapEvery, lg
	if gcfg.Shards == 0 {
		gcfg.Shards = 1
	}
	gw, err := gateway.NewReplica("127.0.0.1:0", gcfg)
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	tb.Cleanup(func() { _ = gw.Close() })
	sealer, err := seal.NewSealer(key)
	if err != nil {
		tb.Fatal(err)
	}
	r := &replica{tb: tb, gw: gw, f: newFollower(gw, lg, nil), gcfg: gcfg,
		sealer: sealer, key: key, heads: make([]uint64, gcfg.Shards)}
	r.conn = dialRig(tb, gw.Addr())
	return r
}

// rigConn is one read-only ("DPSQ") connection, one request at a time.
type rigConn struct {
	tb testing.TB
	fc *wire.Conn
	id uint64
}

func dialRig(tb testing.TB, addr string) *rigConn {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	if err := wire.WriteReadHello(conn, wire.CodecBinary); err != nil {
		tb.Fatal(err)
	}
	if _, err := wire.ReadHelloAck(conn); err != nil {
		tb.Fatalf("read hello refused: %v", err)
	}
	return &rigConn{tb: tb, fc: wire.NewConn(conn)}
}

// read is one request through the gateway's connection loop and the owner's
// shard. It reports failures of the connection itself as an error response, so
// goroutines other than the test's may call it.
func (c *rigConn) read(owner string, req wire.Request) wire.Response {
	c.id++
	payload, err := wire.CodecBinary.EncodeGatewayRequest(wire.GatewayRequest{ID: c.id, Owner: owner, Req: req})
	if err == nil {
		if err = c.fc.WriteFrame(payload); err == nil {
			err = c.fc.Flush()
		}
	}
	var raw []byte
	if err == nil {
		raw, err = c.fc.ReadFrame(nil)
	}
	if err != nil {
		return wire.Refuse(wire.CodeFailed, 0, "rig connection: "+err.Error())
	}
	gresp, err := wire.CodecBinary.DecodeGatewayResponse(raw)
	if err != nil || gresp.ID != c.id {
		return wire.Refuse(wire.CodeFailed, 0, fmt.Sprintf("rig connection: response %d to request %d: %v", gresp.ID, c.id, err))
	}
	return gresp.Resp
}

func (r *replica) read(owner string, req wire.Request) wire.Response { return r.conn.read(owner, req) }

// frame builds the shipped entry of owner's sync at tick (tick 1 is the
// setup), charged eps.
func (r *replica) frame(owner string, tick uint64, rs []record.Record, eps float64) []byte {
	r.tb.Helper()
	cts, err := r.sealer.SealAll(rs)
	if err != nil {
		r.tb.Fatal(err)
	}
	sealed := make([][]byte, len(cts))
	for i, c := range cts {
		sealed[i] = c
	}
	name := "m_update"
	if tick == 1 {
		name = "m_setup"
	}
	b, err := store.EncodeEntryFrame(store.Entry{Owner: owner, Batch: store.Batch{
		Tick: tick, Setup: tick == 1, Sealed: sealed,
		Charge: store.Charge{Name: name, Eps: eps, Rule: dp.Sequential},
	}})
	if err != nil {
		r.tb.Fatal(err)
	}
	return b
}

// ship delivers one entry on the live stream at the owner's shard's next
// offset. The entry is in the replica when ship returns; a rotation it made
// due may not have run yet (settle).
func (r *replica) ship(owner string, tick uint64, rs []record.Record, eps float64) error {
	sid := store.ShardFor(owner, r.f.shards)
	r.heads[sid]++
	return r.f.applyFrame(wire.ReplFrame{
		Kind: wire.ReplEntry, Shard: uint32(sid), Offset: r.heads[sid], Entry: r.frame(owner, tick, rs, eps),
	}, time.Now())
}

// settle returns once owner's shard worker has nothing left to do for the
// entries shipped so far: a task queued behind them is served only after the
// rotation they made due.
func (r *replica) settle(owner string) { r.gw.ObservedLedger(owner) }

// transfer delivers a snapshot transfer of shard sid: the bootstrap entries
// (offset 0, applied by tick) between a begin carrying basis and an end.
func (r *replica) transfer(sid int, basis uint64, entries [][]byte) {
	r.tb.Helper()
	frames := []wire.ReplFrame{{Kind: wire.ReplSnapBegin, Shard: uint32(sid), Offset: basis}}
	for _, e := range entries {
		frames = append(frames, wire.ReplFrame{Kind: wire.ReplEntry, Shard: uint32(sid), Entry: e})
	}
	frames = append(frames, wire.ReplFrame{Kind: wire.ReplSnapEnd, Shard: uint32(sid)})
	for _, fr := range frames {
		if err := r.f.applyFrame(fr, time.Now()); err != nil {
			r.tb.Fatalf("snapshot transfer: %v", err)
		}
	}
	r.heads[sid] = basis
}

// state is owner's committed state on the replica (zero before its first
// entry), cut on its shard worker.
func (r *replica) state(owner string) store.OwnerState {
	r.tb.Helper()
	var out store.OwnerState
	if !r.gw.OwnerCut(store.ShardFor(owner, r.f.shards), func(states []store.OwnerState) {
		for _, st := range states {
			if st.Owner == owner {
				out = st
			}
		}
	}) {
		r.tb.Fatal("replica gateway shut down")
	}
	return out
}

// recovered is what a restart would serve: gateway.New over a copy of the
// replica's directory as it stands (taken with no WAL append in flight), and a
// connection to it. The replica itself is left running.
func (r *replica) recovered() (*gateway.Gateway, *rigConn) {
	r.tb.Helper()
	cfg := r.gcfg
	cfg.StoreDir = copyQuiescedDir(r.tb, r.gw, r.gcfg.StoreDir)
	gw, err := gateway.New("127.0.0.1:0", cfg)
	if err != nil {
		r.tb.Fatalf("recovering a copy of the replica directory: %v", err)
	}
	go func() { _ = gw.Serve() }()
	r.tb.Cleanup(func() { gw.Kill() })
	return gw, dialRig(r.tb, gw.Addr())
}

// copyQuiescedDir waits until gw has no WAL append in flight and copies its
// store directory — the files a crash at that instant would leave.
func copyQuiescedDir(tb testing.TB, gw *gateway.Gateway, dir string) string {
	tb.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		pending := int64(0)
		for _, ss := range gw.ShardStatuses() {
			pending += ss.PendingWAL
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("WAL appends never drained")
		}
	}
	out := tb.TempDir()
	if err := os.CopyFS(out, os.DirFS(dir)); err != nil {
		tb.Fatal(err)
	}
	return out
}

var allKinds = []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}

func queryReq(q query.Query) wire.Request {
	spec := wire.FromQuery(q)
	return wire.Request{Type: wire.MsgQuery, Query: &spec}
}

// rigRequests are the reads refFingerprints answers, in its order: Q1–Q4,
// then stats.
func rigRequests() []wire.Request {
	reqs := make([]wire.Request, 0, len(allKinds)+1)
	for _, q := range allKinds {
		reqs = append(reqs, queryReq(q))
	}
	return append(reqs, wire.Request{Type: wire.MsgStats})
}

// fingerprint renders a read response to an exact string: IEEE bits of the
// answer and the deterministic cost counters (Seconds is wall-clock), or the
// storage counters of a stats response.
func fingerprint(resp wire.Response) string {
	switch {
	case !resp.OK:
		return "refused: " + resp.Refusal.Error()
	case resp.Stats != nil:
		return fmt.Sprintf("records=%d|bytes=%d|updates=%d", resp.Stats.Records, resp.Stats.Bytes, resp.Stats.Updates)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%016x", math.Float64bits(resp.Answer.Scalar))
	for _, g := range resp.Answer.Groups {
		fmt.Fprintf(&sb, ",%016x", math.Float64bits(g))
	}
	fmt.Fprintf(&sb, "|scan=%d|pairs=%d", resp.Cost.RecordsScanned, resp.Cost.PairsCompared)
	return sb.String()
}

// refFingerprints are the reference's answers in fingerprint's format: Q1–Q4,
// then stats.
func refFingerprints(tb testing.TB, ref *refdb.DB) []string {
	tb.Helper()
	var out []string
	for _, q := range allKinds {
		ans, cost, err := ref.Query(q)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, fingerprint(wire.NewQueryResponse(ans, cost)))
	}
	return append(out, fingerprint(wire.NewStatsResponse(ref.Stats(), "", 0)))
}

// rigRecords is owner o's batch at tick: every record lands in Q1's 50–100
// pickup range, so the range count alone tells committed prefixes apart.
func rigRecords(o int, tick uint64) []record.Record {
	rs := []record.Record{{PickupTime: record.Tick(tick), PickupID: uint16(50 + (int(tick)+7*o)%50), Provider: record.YellowCab}}
	if tick%3 == 0 {
		rs = append(rs, record.Record{PickupTime: record.Tick(tick), PickupID: uint16(50 + o), Provider: record.YellowCab})
	}
	return rs
}

// TestResidentMachineEqualsReplay pins the equivalence the follower's read
// path rests on: a tenant kept current one shipped batch at a time answers
// exactly what a gateway recovered from the replica directory answers, and
// what the single-owner reference answers — Q1–Q4 bits, cost counters and
// storage stats — past twice the history window (spilled history), past
// rotations, and after a snapshot transfer delivers bootstrap entries to
// owners that are already resident. No tenant is ever re-derived from history
// along the way.
func TestResidentMachineEqualsReplay(t *testing.T) {
	const (
		owners    = 3
		window    = 4
		snapEvery = 16
		ticks     = 20 // ≥ 2×window twice over; 60 entries cross three rotations
		extra     = 6  // delivered by snapshot transfer
	)
	r := newReplica(t, gateway.Config{Shards: 2, HistoryWindow: window}, snapEvery)
	names := make([]string, owners)
	refs := make([]*refdb.DB, owners)
	for o := range names {
		names[o] = fmt.Sprintf("owner-%d", o)
		ref, err := refdb.New(r.key)
		if err != nil {
			t.Fatal(err)
		}
		refs[o] = ref
	}
	feed := func(o int, tick uint64) {
		var err error
		if tick == 1 {
			err = refs[o].Setup(rigRecords(o, tick))
		} else {
			err = refs[o].Update(rigRecords(o, tick))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	reqs := rigRequests()
	compare := func(o int, tick uint64) {
		t.Helper()
		want := refFingerprints(t, refs[o])
		_, replayed := r.recovered()
		for i, req := range reqs {
			resident := fingerprint(r.read(names[o], req))
			if got := fingerprint(replayed.read(names[o], req)); resident != got {
				t.Fatalf("%s tick %d request %d: resident tenant diverged from a recovery of its directory:\n resident: %s\n replayed: %s",
					names[o], tick, i, resident, got)
			}
			if resident != want[i] {
				t.Fatalf("%s tick %d request %d: resident tenant diverged from the reference:\n got: %s\nwant: %s",
					names[o], tick, i, resident, want[i])
			}
		}
	}
	for tick := uint64(1); tick <= ticks; tick++ {
		for o := range names {
			if err := r.ship(names[o], tick, rigRecords(o, tick), rigEps); err != nil {
				t.Fatal(err)
			}
			feed(o, tick)
			// Every owner is read after every apply, so the cache is exercised
			// across each clock advance.
			if resp := r.read(names[o], queryReq(query.Q1())); !resp.OK {
				t.Fatalf("%s tick %d: %v", names[o], tick, resp.Refusal)
			}
			if tick == 1 || tick%4 == 0 {
				compare(o, tick)
			}
		}
	}
	if m, _ := r.gw.StoreMetrics(); m.SpillBatches == 0 || m.Snapshots < 2 {
		t.Fatalf("%d batches spilled, %d rotations: the spilled-history and rotated halves of the comparison did not run",
			m.SpillBatches, m.Snapshots)
	}

	// A forced resync: each shard's stream is healed by a snapshot transfer
	// whose bootstrap entries overlap what the replica holds (skipped by
	// tick) and extend it (applied to tenants that are already resident).
	byShard := make([][][]byte, r.f.shards)
	basis := make([]uint64, r.f.shards)
	for o := range names {
		sid := store.ShardFor(names[o], r.f.shards)
		for tick := uint64(ticks - 2); tick <= ticks+extra; tick++ {
			byShard[sid] = append(byShard[sid], r.frame(names[o], tick, rigRecords(o, tick), rigEps))
		}
		basis[sid] += ticks + extra
	}
	for sid := range byShard {
		r.f.resync[sid] = true
		r.transfer(sid, basis[sid], byShard[sid])
		if got := r.gw.ShardStatuses()[sid].Applied; got != basis[sid] || r.f.resync[sid] {
			t.Fatalf("shard %d after the transfer: applied offset %d (basis %d), resync %v", sid, got, basis[sid], r.f.resync[sid])
		}
	}
	for o := range names {
		for tick := uint64(ticks + 1); tick <= ticks+extra; tick++ {
			feed(o, tick)
		}
		compare(o, ticks+extra)
	}
}

// flakyBackend is an ObliDB whose UpdateSealed fails once, when armed.
type flakyBackend struct {
	*oblidb.DB
	fail *atomic.Bool
}

func (b flakyBackend) UpdateSealed(cts []seal.Sealed) error {
	if b.fail.CompareAndSwap(true, false) {
		return fmt.Errorf("injected ingest failure")
	}
	return b.DB.UpdateSealed(cts)
}

// TestFailedIngestSuspendsTenant: a tenant whose incremental ingest errs is
// suspended, never served and never rebuilt — its committed state still
// advances with the stream, every read of it is refused as suspended, and
// another owner on the same shard is applied and served as before.
func TestFailedIngestSuspendsTenant(t *testing.T) {
	var fail atomic.Bool
	var key []byte
	cfg := gateway.Config{NewBackend: func(string) (edb.Database, error) {
		db, err := oblidb.NewWithKey(key)
		return flakyBackend{DB: db, fail: &fail}, err
	}}
	r := newReplica(t, cfg, 64)
	key = r.key
	names := []string{"owner-flaky", "owner-steady"}
	refs := make([]*refdb.DB, len(names))
	for o := range names {
		ref, err := refdb.New(r.key)
		if err != nil {
			t.Fatal(err)
		}
		refs[o] = ref
	}
	q1 := queryReq(query.Q1())
	step := func(o int, tick uint64) {
		t.Helper()
		if err := r.ship(names[o], tick, rigRecords(o, tick), rigEps); err != nil {
			t.Fatal(err)
		}
		var err error
		if tick == 1 {
			err = refs[o].Setup(rigRecords(o, tick))
		} else {
			err = refs[o].Update(rigRecords(o, tick))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	served := func(o int) {
		t.Helper()
		if got, want := fingerprint(r.read(names[o], q1)), refFingerprints(t, refs[o])[0]; got != want {
			t.Fatalf("%s Q1 at clock %d:\n got: %s\nwant: %s", names[o], r.state(names[o]).Clock, got, want)
		}
	}
	suspended := func(tick uint64) {
		t.Helper()
		if got := r.state(names[0]).Clock; got != tick {
			t.Fatalf("%s clock = %d after a failed ingest, want %d (the replicated state must advance)", names[0], got, tick)
		}
		for _, req := range rigRequests() {
			if resp := r.read(names[0], req); resp.OK || !errors.Is(resp.Refusal, wire.ErrSuspended) {
				t.Fatalf("%s at clock %d: %s request answered %s, want a suspended refusal", names[0], tick, req.Type, fingerprint(resp))
			}
		}
	}
	for tick := uint64(1); tick <= 3; tick++ {
		step(0, tick)
		step(1, tick)
	}
	served(0)
	served(1)
	fail.Store(true)
	step(0, 4) // the commit succeeds — the state is the replica's truth — the ingest does not
	if fail.Load() {
		t.Fatal("the armed failure never fired: the resident tenant was not ingesting")
	}
	suspended(4)
	step(1, 4)
	served(1)
	step(0, 5)
	suspended(5)
	step(1, 5)
	served(1)
}

// TestFoldRefusedChargeChangesNothing drives the all-or-nothing rule through
// the follower: a shipped batch whose charge conflicts with the owner's
// ledger marks the shard for resync and leaves the owner's clock, transcript,
// tail, ledger and the shard's applied offset untouched — so the healing
// transfer's entry for that tick is applied, not skipped as already held.
func TestFoldRefusedChargeChangesNothing(t *testing.T) {
	r := newReplica(t, gateway.Config{}, 64)
	const owner = "owner-drift"
	for tick := uint64(1); tick <= 3; tick++ {
		if err := r.ship(owner, tick, rigRecords(0, tick), rigEps); err != nil {
			t.Fatal(err)
		}
	}
	want := fingerprint(r.read(owner, queryReq(query.Q1())))
	before, beforePattern := r.state(owner), r.gw.ObservedPattern(owner)
	if err := r.ship(owner, 4, rigRecords(0, 4), 2*rigEps); err == nil {
		t.Fatal("a batch whose charge drifted from the ledger was applied")
	}
	if !r.f.resync[0] {
		t.Fatal("refused batch did not mark the shard for resync")
	}
	st, pattern := r.state(owner), r.gw.ObservedPattern(owner)
	if st.Clock != before.Clock || !reflect.DeepEqual(pattern, beforePattern) ||
		!reflect.DeepEqual(st.Tail, before.Tail) || st.Budget.Describe() != before.Budget.Describe() {
		t.Fatalf("refused batch mutated the owner: clock %d→%d, events %d→%d, tail %d→%d, ledger %q→%q",
			before.Clock, st.Clock, beforePattern.Updates(), pattern.Updates(), len(before.Tail), len(st.Tail),
			before.Budget.Describe(), st.Budget.Describe())
	}
	if got := r.gw.ShardStatuses()[0].Applied; got != 3 {
		t.Fatalf("applied offset = %d after a refused batch at offset 4, want 3", got)
	}
	if got := fingerprint(r.read(owner, queryReq(query.Q1()))); got != want {
		t.Fatalf("resident tenant moved with a refused batch:\n got: %s\nwant: %s", got, want)
	}
	// No later live frame of the shard is applied before the healing transfer:
	// the next offset no longer extends the shard.
	if err := r.ship(owner, 4, rigRecords(0, 4), rigEps); !errors.Is(err, gateway.ErrStreamGap) {
		t.Fatalf("live frame after a refused one: %v, want a stream gap", err)
	}
	r.transfer(0, 4, [][]byte{r.frame(owner, 4, rigRecords(0, 4), rigEps)})
	if st, pattern := r.state(owner), r.gw.ObservedPattern(owner); st.Clock != 4 || pattern.Updates() != 4 || st.Budget.Uses("m_update") != 3 {
		t.Fatalf("healing transfer left clock %d, %d events, %d update charges; tick 4 must be applied, not skipped",
			st.Clock, pattern.Updates(), st.Budget.Uses("m_update"))
	}
}

// TestReadsDuringFoldSeeWholeBatches runs analysts against the replica's
// connections while the stream is applied (run it under -race). Every answer
// equals the reference's at exactly one clock of the owner's history and an
// owner's answers never go back in time; and every read that carries a
// freshness bound is either refused with a cursor below the bound or answered
// from at least the owner's batches under it, whole — the check and the answer
// are one step on the worker that applies the stream.
func TestReadsDuringFoldSeeWholeBatches(t *testing.T) {
	const (
		owners = 2
		ticks  = 60
	)
	r := newReplica(t, gateway.Config{HistoryWindow: 4}, 16)
	names := make([]string, owners)
	q1At := make([]map[string]uint64, owners) // reference Q1 fingerprint → clock
	batches := make([][][]record.Record, owners)
	for o := range names {
		names[o] = fmt.Sprintf("owner-%d", o)
		ref, err := refdb.New(r.key)
		if err != nil {
			t.Fatal(err)
		}
		q1At[o] = map[string]uint64{}
		batches[o] = make([][]record.Record, ticks+1)
		for tick := uint64(1); tick <= ticks; tick++ {
			rs := rigRecords(o, tick)
			batches[o][tick] = rs
			if tick == 1 {
				err = ref.Setup(rs)
			} else {
				err = ref.Update(rs)
			}
			if err != nil {
				t.Fatal(err)
			}
			fp := refFingerprints(t, ref)
			if _, dup := q1At[o][fp[0]]; dup {
				t.Fatalf("%s: Q1 does not tell tick %d from an earlier one; the test would be vacuous", names[o], tick)
			}
			q1At[o][fp[0]] = tick
		}
	}
	// One shard, owners shipped round-robin: owner o's tick t is offset
	// owners×(t−1)+o+1, so offset m holds this many of owner o's batches.
	heldAt := func(o int, m uint64) uint64 { return (m + owners - 1 - uint64(o)) / owners }

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2*owners)
	for o := range names {
		analyst, auditor := dialRig(t, r.gw.Addr()), dialRig(t, r.gw.Addr())
		wg.Add(2)
		go func() { // the analyst: unbounded reads
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				resp := analyst.read(names[o], queryReq(query.Q1()))
				if !resp.OK {
					if resp.Refusal.Code == wire.CodeNotSetup {
						continue // the setup has not been applied yet
					}
					errs <- fmt.Errorf("%s: %w", names[o], resp.Refusal)
					return
				}
				clock, ok := q1At[o][fingerprint(resp)]
				if !ok {
					errs <- fmt.Errorf("%s: answer %s matches no committed prefix", names[o], fingerprint(resp))
					return
				}
				if clock < last {
					errs <- fmt.Errorf("%s: answer went back from clock %d to %d", names[o], last, clock)
					return
				}
				last = clock
			}
		}()
		go func() { // the auditor: reads bounded just past the last cursor it saw
			defer wg.Done()
			bound := uint64(o + 1) // the owner's setup
			for {
				select {
				case <-done:
					return
				default:
				}
				req := queryReq(query.Q1())
				req.MinOffset = bound
				resp := auditor.read(names[o], req)
				switch {
				case !resp.OK && resp.Refusal.Code == wire.CodeStale:
					if resp.Refusal.Cursor >= bound {
						errs <- fmt.Errorf("%s: refused bound %d as stale at cursor %d", names[o], bound, resp.Refusal.Cursor)
						return
					}
				case !resp.OK:
					errs <- fmt.Errorf("%s: %w", names[o], resp.Refusal)
					return
				default:
					held, ok := q1At[o][fingerprint(resp)]
					if !ok {
						errs <- fmt.Errorf("%s: answer %s matches no committed prefix", names[o], fingerprint(resp))
						return
					}
					if held < heldAt(o, bound) {
						errs <- fmt.Errorf("%s: answered bound %d from %d batches, the bound covers %d", names[o], bound, held, heldAt(o, bound))
						return
					}
					bound = min(owners*held, owners*(ticks-1)) + uint64(o) + 1 // the owner's next entry
				}
			}
		}()
	}
	for tick := uint64(1); tick <= ticks; tick++ {
		for o := range names {
			if err := r.ship(names[o], tick, batches[o][tick], rigEps); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for o := range names {
		if got := q1At[o][fingerprint(r.read(names[o], queryReq(query.Q1())))]; got != ticks {
			t.Fatalf("%s: final answer is clock %d's, want %d", names[o], got, ticks)
		}
	}
}

// TestKilledReplicaIsRestartImage pins that the store is written before
// anything depends on it: a replica killed at a seeded point of the stream —
// appends in flight abandoned, nothing flushed, spills and rotations behind it
// — leaves a directory gateway.New recovers to a committed prefix of every
// owner: transcript, ε ledger, Q1–Q4 and stats exactly the reference's at the
// recovered clock, never a batch the replica had not been shipped.
func TestKilledReplicaIsRestartImage(t *testing.T) {
	const owners = 3
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newReplica(t, gateway.Config{Shards: 2, HistoryWindow: 4}, 16)
			names := make([]string, owners)
			refs := make([]*refdb.DB, owners)
			wantAt := make([][][]string, owners) // owner → clock → reference fingerprints
			ticks := make([]uint64, owners)
			for o := range names {
				names[o] = fmt.Sprintf("owner-%d", o)
				ref, err := refdb.New(r.key)
				if err != nil {
					t.Fatal(err)
				}
				refs[o], wantAt[o] = ref, [][]string{nil}
			}
			for n := 60 + rng.Intn(60); n > 0; n-- {
				o := rng.Intn(owners)
				ticks[o]++
				rs := rigRecords(o, ticks[o])
				if err := r.ship(names[o], ticks[o], rs, rigEps); err != nil {
					t.Fatal(err)
				}
				var err error
				if ticks[o] == 1 {
					err = refs[o].Setup(rs)
				} else {
					err = refs[o].Update(rs)
				}
				if err != nil {
					t.Fatal(err)
				}
				wantAt[o] = append(wantAt[o], append(refFingerprints(t, refs[o]), refs[o].ObservedPattern().String()))
			}
			r.gw.Kill()

			gw, err := gateway.New("127.0.0.1:0", r.gcfg)
			if err != nil {
				t.Fatalf("recovering the killed replica's directory: %v", err)
			}
			go func() { _ = gw.Serve() }()
			defer gw.Kill()
			conn := dialRig(t, gw.Addr())
			recovered := uint64(0)
			for o, name := range names {
				pat := gw.ObservedPattern(name)
				clock := uint64(pat.Updates())
				if clock > ticks[o] {
					t.Fatalf("%s recovered at clock %d, the replica was shipped %d", name, clock, ticks[o])
				}
				recovered += clock
				if clock == 0 {
					continue
				}
				want := wantAt[o][clock]
				if got := pat.String(); got != want[len(want)-1] {
					t.Fatalf("%s transcript at recovered clock %d:\n got: %s\nwant: %s", name, clock, got, want[len(want)-1])
				}
				if got := gw.ObservedLedger(name); got.Uses("m_setup") != 1 || got.Uses("m_update") != int(clock)-1 {
					t.Fatalf("%s ledger at recovered clock %d: %s", name, clock, got.Describe())
				}
				for i, req := range rigRequests() {
					if got := fingerprint(conn.read(name, req)); got != want[i] {
						t.Fatalf("%s request %d at recovered clock %d:\n got: %s\nwant: %s", name, i, clock, got, want[i])
					}
				}
			}
			if recovered == 0 {
				t.Fatal("nothing was recovered: the kill left no image to compare")
			}
		})
	}
}
