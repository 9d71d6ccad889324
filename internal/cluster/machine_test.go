package cluster

import (
	"fmt"
	"log/slog"
	"math"
	"reflect"
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

// replica is a follower core and its read plane driven by hand: the test is
// the primary's stream (ship, transfer) and the analyst (read), with no
// sockets and no second node, so every interleaving is the test's choice.
type replica struct {
	tb     testing.TB
	f      *followerCore
	p      *readPlane
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
	gcfg.Key = key
	if gcfg.Shards == 0 {
		gcfg.Shards = 1
	}
	f, err := openFollower(dir, gcfg.Shards, gcfg.HistoryWindow, snapEvery, false, lg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := newReadPlane(Config{Gateway: gcfg}, f, telemetry.Discard())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		p.shutdown()
		_ = f.seal()
	})
	sealer, err := seal.NewSealer(key)
	if err != nil {
		tb.Fatal(err)
	}
	return &replica{tb: tb, f: f, p: p, sealer: sealer, key: key, heads: make([]uint64, gcfg.Shards)}
}

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
// offset.
func (r *replica) ship(owner string, tick uint64, rs []record.Record, eps float64) error {
	sid := store.ShardFor(owner, r.f.shards)
	r.heads[sid]++
	return r.f.applyFrame(wire.ReplFrame{
		Kind: wire.ReplEntry, Shard: uint32(sid), Offset: r.heads[sid], Entry: r.frame(owner, tick, rs, eps),
	}, time.Now())
}

// transfer delivers a snapshot transfer of shard sid: the bootstrap entries
// (offset 0, folded by tick) between a begin carrying basis and an end.
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

// replayed answers req from a machine freshly replayed from the replica
// directory at the owner's current state — what the read plane did on every
// clock advance before machines were resident.
func (r *replica) replayed(owner string, req wire.Request) wire.Response {
	r.tb.Helper()
	sid := store.ShardFor(owner, r.f.shards)
	r.f.smu.Lock()
	defer r.f.smu.Unlock()
	tn, err := r.p.tenants.Replay(r.f.st, sid, r.f.states[sid][owner])
	if err != nil {
		r.tb.Fatalf("replaying %q: %v", owner, err)
	}
	return tn.Read(req)
}

var allKinds = []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}

func queryReq(q query.Query) wire.Request {
	spec := wire.FromQuery(q)
	return wire.Request{Type: wire.MsgQuery, Query: &spec}
}

// fingerprint renders a read response to an exact string: IEEE bits of the
// answer and the deterministic cost counters (Seconds is wall-clock), or the
// storage counters of a stats response.
func fingerprint(resp wire.Response) string {
	switch {
	case !resp.OK:
		return "error: " + resp.Error
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
// path rests on: a machine kept current one shipped batch at a time answers
// exactly what a machine replayed from the replica directory answers, and
// what the single-owner reference answers — Q1–Q4 bits, cost counters and
// storage stats — past twice the history window (spilled history), past
// rotations, and after a snapshot transfer delivers bootstrap entries to
// owners that are already resident.
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
	compare := func(o int, tick uint64) {
		t.Helper()
		want := refFingerprints(t, refs[o])
		reqs := make([]wire.Request, 0, len(allKinds)+1)
		for _, q := range allKinds {
			reqs = append(reqs, queryReq(q))
		}
		reqs = append(reqs, wire.Request{Type: wire.MsgStats})
		for i, req := range reqs {
			resident := fingerprint(r.p.serveRequest(names[o], req))
			if replayed := fingerprint(r.replayed(names[o], req)); resident != replayed {
				t.Fatalf("%s tick %d request %d: resident machine diverged from a fresh replay:\n resident: %s\n replayed: %s",
					names[o], tick, i, resident, replayed)
			}
			if resident != want[i] {
				t.Fatalf("%s tick %d request %d: resident machine diverged from the reference:\n got: %s\nwant: %s",
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
			// Every owner is read after every apply, so every machine is
			// resident from its first tick and the cache is exercised across
			// each clock advance.
			if resp := r.p.serveRequest(names[o], queryReq(query.Q1())); !resp.OK {
				t.Fatalf("%s tick %d: %s", names[o], tick, resp.Error)
			}
			if tick == 1 || tick%4 == 0 {
				compare(o, tick)
			}
		}
	}
	if got := r.p.Stats().Rebuilds; got != owners {
		t.Fatalf("rebuilds = %d over %d ticks of %d owners; only an owner's first read may replay", got, ticks, owners)
	}
	if m := r.f.st.Metrics(); m.SpillBatches == 0 {
		t.Fatal("no history spilled: the spilled-history half of the comparison did not run")
	}

	// A forced resync: each shard's stream is healed by a snapshot transfer
	// whose bootstrap entries overlap what the replica holds (skipped by
	// tick) and extend it (folded into machines that are already resident).
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
	}
	for o := range names {
		for tick := uint64(ticks + 1); tick <= ticks+extra; tick++ {
			feed(o, tick)
		}
		compare(o, ticks+extra)
	}
	if got := r.p.Stats().Rebuilds; got != owners {
		t.Fatalf("rebuilds = %d after the snapshot transfer; resident machines must take bootstrap entries incrementally", got)
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

// TestFailedIngestDropsMachine: a resident machine whose incremental ingest
// errs is dropped, never served — the owner's state still advances, its next
// read replays a machine from history (one more rebuild, exactly) and answers
// what the reference answers.
func TestFailedIngestDropsMachine(t *testing.T) {
	var fail atomic.Bool
	var key []byte
	cfg := gateway.Config{NewBackend: func(string) (edb.Database, error) {
		db, err := oblidb.NewWithKey(key)
		return flakyBackend{DB: db, fail: &fail}, err
	}}
	r := newReplica(t, cfg, 64)
	key = r.key
	ref, err := refdb.New(r.key)
	if err != nil {
		t.Fatal(err)
	}
	const owner = "owner-flaky"
	q1 := queryReq(query.Q1())
	step := func(tick uint64) {
		t.Helper()
		if err := r.ship(owner, tick, rigRecords(0, tick), rigEps); err != nil {
			t.Fatal(err)
		}
		if tick == 1 {
			err = ref.Setup(rigRecords(0, tick))
		} else {
			err = ref.Update(rigRecords(0, tick))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	check := func(rebuilds int64) {
		t.Helper()
		if got, want := fingerprint(r.p.serveRequest(owner, q1)), refFingerprints(t, ref)[0]; got != want {
			t.Fatalf("Q1 at clock %d:\n got: %s\nwant: %s", r.f.states[0][owner].Clock, got, want)
		}
		if got := r.p.Stats().Rebuilds; got != rebuilds {
			t.Fatalf("rebuilds = %d, want %d", got, rebuilds)
		}
	}
	step(1)
	step(2)
	check(1) // first read: resident from here
	step(3)
	check(1)
	fail.Store(true)
	step(4) // the fold succeeds — the state is the replica's truth — the ingest does not
	if fail.Load() {
		t.Fatal("the armed failure never fired: the resident machine was not ingesting")
	}
	if r.f.machines[owner] != nil {
		t.Fatal("a machine whose ingest failed is still resident")
	}
	if got := r.f.states[0][owner].Clock; got != 4 {
		t.Fatalf("owner clock = %d after a failed ingest, want 4 (the replicated state must advance)", got)
	}
	check(2) // re-materialized from history, once
	step(5)
	check(2) // and resident again
}

// TestFoldRefusedChargeChangesNothing drives the all-or-nothing rule through
// the follower: a shipped batch whose charge conflicts with the owner's
// ledger marks the shard for resync and leaves the owner's clock, transcript,
// tail and ledger untouched — so the healing transfer's entry for that tick
// is applied, not skipped as already held.
func TestFoldRefusedChargeChangesNothing(t *testing.T) {
	r := newReplica(t, gateway.Config{}, 64)
	const owner = "owner-drift"
	for tick := uint64(1); tick <= 3; tick++ {
		if err := r.ship(owner, tick, rigRecords(0, tick), rigEps); err != nil {
			t.Fatal(err)
		}
	}
	want := fingerprint(r.p.serveRequest(owner, queryReq(query.Q1()))) // resident
	st := r.f.states[0][owner]
	before := st.Clone()
	if err := r.ship(owner, 4, rigRecords(0, 4), 2*rigEps); err == nil {
		t.Fatal("a batch whose charge drifted from the ledger was folded")
	}
	if !r.f.resync[0] {
		t.Fatal("refused fold did not mark the shard for resync")
	}
	if st.Clock != before.Clock || !reflect.DeepEqual(st.Events, before.Events) ||
		!reflect.DeepEqual(st.Tail, before.Tail) || st.Budget.Describe() != before.Budget.Describe() {
		t.Fatalf("refused fold mutated the owner: clock %d→%d, events %d→%d, tail %d→%d, ledger %q→%q",
			before.Clock, st.Clock, len(before.Events), len(st.Events), len(before.Tail), len(st.Tail),
			before.Budget.Describe(), st.Budget.Describe())
	}
	if got := fingerprint(r.p.serveRequest(owner, queryReq(query.Q1()))); got != want {
		t.Fatalf("resident machine moved with a refused batch:\n got: %s\nwant: %s", got, want)
	}
	r.transfer(0, 4, [][]byte{r.frame(owner, 4, rigRecords(0, 4), rigEps)})
	if st.Clock != 4 || len(st.Events) != 4 || st.Budget.Uses("m_update") != 3 {
		t.Fatalf("healing transfer left clock %d, %d events, %d update charges; tick 4 must be applied, not skipped",
			st.Clock, len(st.Events), st.Budget.Uses("m_update"))
	}
}

// TestReadsDuringFoldSeeWholeBatches runs analysts against the read plane
// while the stream is folded (run it under -race): every answer equals the
// reference's at exactly one clock of the owner's history, an owner's answers
// never go back in time, and under the stream lock a resident machine's
// backend is at its OwnerState's clock — never a half-applied batch, never
// ahead or behind.
func TestReadsDuringFoldSeeWholeBatches(t *testing.T) {
	const (
		owners = 2
		ticks  = 60
	)
	r := newReplica(t, gateway.Config{HistoryWindow: 4}, 16)
	names := make([]string, owners)
	q1At := make([]map[string]uint64, owners) // reference Q1 fingerprint → clock
	statsAt := make([][]string, owners)       // clock → reference stats fingerprint
	batches := make([][][]record.Record, owners)
	for o := range names {
		names[o] = fmt.Sprintf("owner-%d", o)
		ref, err := refdb.New(r.key)
		if err != nil {
			t.Fatal(err)
		}
		q1At[o] = map[string]uint64{}
		statsAt[o] = make([]string, ticks+1)
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
			q1At[o][fp[0]], statsAt[o][tick] = tick, fp[len(fp)-1]
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2*owners)
	for o := range names {
		wg.Add(2)
		go func() { // the analyst: reads through the plane
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				resp := r.p.serveRequest(names[o], queryReq(query.Q1()))
				if !resp.OK {
					if resp.Error == edb.ErrNotSetup.Error() {
						continue // the setup has not been folded yet
					}
					errs <- fmt.Errorf("%s: %s", names[o], resp.Error)
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
		go func() { // the auditor: machine against state, under the stream lock
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r.f.smu.Lock()
				tn := r.f.machines[names[o]]
				if tn != nil {
					if got := fingerprint(tn.Read(wire.Request{Type: wire.MsgStats})); got != statsAt[o][tn.Clock] {
						r.f.smu.Unlock()
						errs <- fmt.Errorf("%s: machine at OwnerState clock %d holds %s, reference holds %s",
							names[o], tn.Clock, got, statsAt[o][tn.Clock])
						return
					}
				}
				r.f.smu.Unlock()
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
		if got := q1At[o][fingerprint(r.p.serveRequest(names[o], queryReq(query.Q1())))]; got != ticks {
			t.Fatalf("%s: final answer is clock %d's, want %d", names[o], got, ticks)
		}
	}
	if got := r.p.Stats().Rebuilds; got > owners {
		t.Fatalf("rebuilds = %d for %d owners under a moving stream", got, owners)
	}
}
