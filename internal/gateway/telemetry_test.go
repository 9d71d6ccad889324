package gateway_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/cluster"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// scrapeAll renders a registry the two ways the admin plane does — the
// Prometheus text exposition and the /varz JSON document — and returns both
// as strings, so privacy assertions cover every export path at once.
func scrapeAll(t *testing.T, reg *telemetry.Registry) (prom, varz string) {
	t.Helper()
	var pb, vb bytes.Buffer
	samples := reg.Snapshot()
	if err := telemetry.WritePrometheus(&pb, samples); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteVarz(&vb, samples); err != nil {
		t.Fatal(err)
	}
	return pb.String(), vb.String()
}

// driveTelemetryOwners syncs each named owner through one setup and one
// update, then queries each twice — the repeat is served by the answer
// cache — so the gateway has committed per-tenant state AND per-tenant read
// activity to (not) expose.
func driveTelemetryOwners(t *testing.T, addr string, key []byte, owners []string) {
	t.Helper()
	conn, err := client.DialGateway(addr, key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, name := range owners {
		own := conn.Owner(name)
		if err := own.Setup([]record.Record{yellow(0, uint16(i+1))}); err != nil {
			t.Fatal(err)
		}
		if err := own.Update([]record.Record{yellow(1, uint16(i+2)), record.NewDummy(record.YellowCab)}); err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			if _, _, err := own.Query(query.Q1()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestTelemetryAggregateOnlyByDefault is the privacy regression for the
// metrics plane: with telemetry on but DebugTenantMetrics off, no scrape
// output — Prometheus text or /varz JSON — may contain a raw owner ID, an
// owner-hash label, or any per-tenant series. The metrics endpoint is part
// of the adversary's view; per-tenant update-pattern detail there would be
// a side channel around the ε the strategies spend to hide it. The gateway is
// durable and rotates from its first entry, so the store's series — the
// rotation instruments among them — and the /statusz shard lines (image and
// log bytes per shard) are swept with the rest. So are refusals: one of each
// code a plain primary answers with is counted before the scrape, the family
// carries a code label and nothing else, and the text a refusal sent its
// client (Detail) appears on no admin surface.
func TestTelemetryAggregateOnlyByDefault(t *testing.T) {
	reg := telemetry.New()
	// Trace every request: the tracing plane is part of the adversary's view
	// too, so the same no-tenant-identity rule is asserted over /tracez.
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})
	gw, key := startGateway(t, gateway.Config{
		Telemetry: reg, SyncEpsilon: 0.25, Tracer: tracer,
		StoreDir: t.TempDir(), SnapshotEvery: 1,
	})
	owners := []string{"owner-alpha", "owner-bravo", "owner-charlie"}
	driveTelemetryOwners(t, gw.Addr(), key, owners)
	details := provokePlainRefusals(t, rawGatewayConn(t, gw.Addr()), rawReadConn(t, gw.Addr()), owners[0], false)
	if m, _ := gw.StoreMetrics(); m.Snapshots == 0 || m.SnapshotBytes == 0 {
		t.Fatalf("no rotation happened (%+v): the rotation instruments are not exercised", m)
	}

	prom, varz := scrapeAll(t, reg)
	var tz, tj bytes.Buffer
	if err := telemetry.WriteTracez(&tz, tracer.Dump()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteTraceJSON(&tj, tracer.Dump()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tz.String(), "client-admit") {
		t.Fatalf("tracer captured no traces under SampleEvery=1:\n%s", tz.String())
	}
	statusz := gw.DurableStatusText()
	for _, field := range []string{"store: healthy", "last_snapshot=", "image_bytes=", "log_bytes_since="} {
		if !strings.Contains(statusz, field) {
			t.Errorf("/statusz durable section missing %q:\n%s", field, statusz)
		}
	}
	assertNoTenantIdentity(t, owners, prom, varz, tz.String(), tj.String(), statusz)
	assertRefusalsByCodeOnly(t, prom, details, map[string]int{
		"not-setup": 2, "seq-gap": 1, "bad-request": 2, "failed": 2, "not-primary": 1,
		"backpressure": 0, "stale": 0, "suspended": 0, "closing": 0,
	}, varz, tz.String(), tj.String(), statusz)

	// The aggregate view must still be there: totals and the fleet-wide ε
	// distribution (which is how spend is visible without naming anyone).
	// The answer-cache counters ride the same contract: hit/miss totals are
	// fleet-wide — a per-tenant hit rate would expose which tenants re-ask
	// which questions, a workload fingerprint the read path must not leak.
	for _, series := range []string{
		"gateway_syncs_total", "gateway_owners", "gateway_tenant_eps_spent",
		"gateway_sync_queue_wait_us", "gateway_sync_apply_us", "gateway_sync_ack_us",
		"gateway_qcache_hits_total", "gateway_qcache_misses_total",
		"gateway_qcache_invalidations_total", "gateway_qcache_serve_us",
		"store_wal_bytes_total", "store_snapshots_total",
		"store_snapshot_bytes_total", "store_rotate_us",
	} {
		if !strings.Contains(prom, series) {
			t.Errorf("aggregate series %q missing from /metrics", series)
		}
	}
	if !strings.Contains(prom, `gateway_tenant_eps_spent_count 3`) {
		t.Errorf("fleet ε distribution should enroll all 3 tenants:\n%s", prom)
	}
	// Each owner's repeat query hit the cache: the aggregate counters moved,
	// and moved only in aggregate (the leak sweep above already ran over the
	// same scrape with the cache populated).
	if st := gw.QueryCacheStats(); st.Hits < int64(len(owners)) {
		t.Errorf("cache hits = %d, want at least one per owner (%d)", st.Hits, len(owners))
	}
}

// assertRefusalsByCodeOnly holds the refusal family to its one label: every
// code has a series reading its count, nothing else is in the family, and no
// output repeats a text a refusal carried to its client.
func assertRefusalsByCodeOnly(t *testing.T, prom string, details []string, want map[string]int, others ...string) {
	t.Helper()
	family := 0
	for _, line := range strings.Split(prom, "\n") {
		if strings.HasPrefix(line, "gateway_refusals_total") {
			family++
		}
	}
	if family != len(want) {
		t.Errorf("gateway_refusals_total has %d series, want one per code (%d):\n%s", family, len(want), prom)
	}
	for code, n := range want {
		if series := fmt.Sprintf("gateway_refusals_total{code=%q} %d\n", code, n); !strings.Contains(prom, series) {
			t.Errorf("/metrics is missing %q", series)
		}
	}
	if len(details) == 0 {
		t.Fatal("no refusal carried a text: the sweep is vacuous")
	}
	for _, out := range append(others, prom) {
		for _, d := range details {
			if strings.Contains(out, d) {
				t.Errorf("an admin surface repeats the refusal text %q:\n%s", d, out)
			}
		}
	}
}

// assertNoTenantIdentity sweeps scrape outputs for anything that names a
// tenant: a raw owner ID, an owner hash, or a per-tenant series.
func assertNoTenantIdentity(t *testing.T, owners []string, outs ...string) {
	t.Helper()
	for _, out := range outs {
		for _, name := range owners {
			if strings.Contains(out, name) {
				t.Fatalf("scrape leaks raw owner ID %q:\n%s", name, out)
			}
			if h := telemetry.OwnerHash(name); strings.Contains(out, h) {
				t.Fatalf("scrape leaks owner hash %q without DebugTenantMetrics:\n%s", h, out)
			}
		}
		for _, series := range []string{"owner_hash", "gateway_tenant_clock", "gateway_tenant_eps{"} {
			if strings.Contains(out, series) {
				t.Fatalf("per-tenant series %q present without DebugTenantMetrics:\n%s", series, out)
			}
		}
	}
}

// TestTelemetryFollowerAggregateOnlyByDefault extends the privacy regression to
// a cluster follower, which is a gateway in replica role and so publishes the
// gateway's instruments, sampled read spans and per-shard /statusz lines next
// to the cluster's own: with DebugTenantMetrics off, nothing a follower's admin
// plane serves — /metrics, /varz, /tracez, /statusz — names an owner, by ID or
// by hash, while it applies their syncs and answers their reads.
func TestTelemetryFollowerAggregateOnlyByDefault(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	lease := cluster.NewMemLease(nil)
	regs := [2]*telemetry.Registry{telemetry.New(), telemetry.New()}
	tracers := [2]*telemetry.Tracer{}
	nodes := [2]*cluster.Node{}
	for i, id := range []string{"node-a", "node-b"} {
		tracers[i] = telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})
		nodes[i], err = cluster.Start(cluster.Config{
			Addr: "127.0.0.1:0", NodeID: id, StoreDir: t.TempDir(), Lease: lease,
			Gateway:   gateway.Config{Key: key, Shards: 2, SyncEpsilon: 0.25, SnapshotEvery: 1, Tracer: tracers[i]},
			Heartbeat: 20 * time.Millisecond, Telemetry: regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		defer nodes[i].Close()
	}
	primary, follower := nodes[0], nodes[1]
	if follower.Role() != cluster.RoleFollower {
		t.Fatalf("node-b role %v", follower.Role())
	}
	waitUntil(t, 10*time.Second, "follower never attached", func() bool { return primary.Stats().Hub.Followers == 1 })

	owners := []string{"owner-alpha", "owner-bravo", "owner-charlie"}
	conn, err := client.DialGateway(primary.Addr(), key, client.WithReadReplica(follower.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, name := range owners {
		own := conn.Owner(name)
		if err := own.Setup([]record.Record{yellow(0, uint16(i+1))}); err != nil {
			t.Fatal(err)
		}
		if err := own.Update([]record.Record{yellow(1, uint16(i+2))}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 10*time.Second, "follower never caught up", func() bool {
		return follower.Stats().Follower.Applied == uint64(2*len(owners))
	})
	for _, name := range owners {
		for rep := 0; rep < 2; rep++ { // a miss, then a hit
			if _, _, err := conn.Owner(name).Query(query.Q1()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if served, _, _ := conn.ReplicaStats(); served != int64(2*len(owners)) {
		t.Fatalf("follower served %d of %d reads: its read path is not what is being swept", served, 2*len(owners))
	}
	ro := rawReadConn(t, follower.Addr())
	defer ro.Close() // before the deferred node Close, which would wait out its drain deadline for it
	details := provokePlainRefusals(t, nil, ro, owners[0], true)

	prom, varz := scrapeAll(t, regs[1])
	var tz, tj bytes.Buffer
	if err := telemetry.WriteTracez(&tz, tracers[1].Dump()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteTraceJSON(&tj, tracers[1].Dump()); err != nil {
		t.Fatal(err)
	}
	statusz := follower.StatusText()
	// What a follower inherits from the gateway must be there to be swept: the
	// read's stage instruments and sampled spans, the per-shard durable lines.
	for _, series := range []string{
		"gateway_sync_queue_wait_us", "gateway_sync_ack_us", "gateway_qcache_serve_us", "gateway_qcache_hits_total",
		"gateway_committed_entries_total", "cluster_repl_applied_total 6", "cluster_read_queries_total 9",
		"cluster_read_qcache_hits_total 3", "cluster_read_rebuilds_total 0", "store_snapshots_total",
	} {
		if !strings.Contains(prom, series) {
			t.Errorf("follower /metrics is missing %q", series)
		}
	}
	if !strings.Contains(tz.String(), "client-admit") || !strings.Contains(tz.String(), "queue-wait") {
		t.Errorf("follower /tracez has no sampled read spans:\n%s", tz.String())
	}
	for _, field := range []string{"role: follower", "store: healthy", "shard 0: committed=", " applied=", "replica: applied=6", "read plane: queries=9 stale=1 "} {
		if !strings.Contains(statusz, field) {
			t.Errorf("follower /statusz is missing %q:\n%s", field, statusz)
		}
	}
	assertNoTenantIdentity(t, owners, prom, varz, tz.String(), tj.String(), statusz)
	assertRefusalsByCodeOnly(t, prom, details, map[string]int{
		"stale": 1, "not-primary": 1, "not-setup": 1, "bad-request": 1, "failed": 1,
		"backpressure": 0, "seq-gap": 0, "suspended": 0, "closing": 0,
	}, varz, tz.String(), tj.String(), statusz)
}

// TestFrameLengthsLeakNothingNew is the privacy regression for the wire's
// other observable, the length of each frame. The compact codec made lengths
// depend on more than they used to (varint counters, an answer's width), so
// the two things a length must not tell are pinned over a real gateway and
// client: (1) a sync of n dummies and a sync of n real records are the same
// bytes long, request and ack, for n ∈ {0, 1, 8, 33} — a batch travels as
// one uniform-width block and a sealed dummy is a sealed record's size; (2)
// Q2's answer is the same length whatever the data: two owners with
// different pickup distributions and different record counts, and a third
// whose namespace is mostly dummies, all get the same number of bytes,
// because the group block's width is a property of the backend (ObliDB's
// groups are counts), never of the values. What does vary with the outsourced
// volume is the cost section's scanned-records varint — a number the server
// holds anyway — so the three owners stay below 128 records, one bracket.
// (3) A refusal's length is its code's: not-setup, seq-gap, backpressure and
// suspended on this gateway and stale on a replica are the same nine bytes
// for an owner with one small sync behind it and one with four larger ones
// (the cursors — a clock, a shard's offset — are numbers the server holds,
// kept inside one varint bracket here); only bad-request and failed carry a
// text, and the text is the request's fault restated — the same bytes for
// both owners, naming no record.
func TestFrameLengthsLeakNothingNew(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	hold := newGate()
	gw, _ := startGateway(t, gateway.Config{Key: key, Shards: 1, MaxInFlight: 1, StoreDir: t.TempDir(), NewBackend: hold.backend(key)})
	sizes := []int{0, 1, 8, 33}

	// syncLengths runs the four syncs on a fresh connection (so request IDs
	// and sequence numbers line up between the two owners) and returns each
	// one's bytes out and bytes in. The first upload also resumes and asks
	// for the backend's identity; it is warm-up, not measured.
	syncLengths := func(owner string, rec func(i int) record.Record) (out, in []int64) {
		conn, err := client.DialGateway(gw.Addr(), key)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		own := conn.Owner(owner)
		if err := own.Setup([]record.Record{rec(0)}); err != nil {
			t.Fatal(err)
		}
		for _, n := range sizes {
			batch := make([]record.Record, n)
			for i := range batch {
				batch[i] = rec(i)
			}
			out0, in0 := conn.BytesOut(), conn.BytesIn()
			if err := own.Update(batch); err != nil {
				t.Fatal(err)
			}
			out, in = append(out, conn.BytesOut()-out0), append(in, conn.BytesIn()-in0)
		}
		return out, in
	}
	realOut, realIn := syncLengths("owner-records", func(i int) record.Record { return yellow(i, uint16(1+i*7%record.NumLocations)) })
	dummyOut, dummyIn := syncLengths("owner-dummies", func(int) record.Record { return record.NewDummy(record.YellowCab) })
	for i, n := range sizes {
		if realOut[i] != dummyOut[i] || realIn[i] != dummyIn[i] {
			t.Errorf("sync of %d: %d B out / %d B in for real records, %d / %d for dummies", n, realOut[i], realIn[i], dummyOut[i], dummyIn[i])
		}
		if realOut[i] < int64(n*seal.SealedSize) || realIn[i] <= 4 {
			t.Errorf("sync of %d: measured %d B out, %d B in — the counters saw no frame", n, realOut[i], realIn[i])
		}
	}

	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q2Length := func(owner string, rs []record.Record) int64 {
		own := conn.Owner(owner)
		if err := own.Setup(rs); err != nil {
			t.Fatal(err)
		}
		in0 := conn.BytesIn()
		ans, _, err := own.Query(query.Q2())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ans.Total(), float64(record.CountReal(rs)); got != want {
			t.Fatalf("%s: Q2 counts %v records, want %v", owner, got, want)
		}
		return conn.BytesIn() - in0
	}
	var spread, skewed, padded []record.Record
	for i := 0; i < 7; i++ {
		spread = append(spread, yellow(i, uint16(1+i*37)))
	}
	for i := 0; i < 90; i++ {
		skewed = append(skewed, yellow(i, 132))
	}
	for i := 0; i < 40; i++ {
		padded = append(padded, record.NewDummy(record.YellowCab))
	}
	padded = append(padded, yellow(0, 5))
	a, b, c := q2Length("owner-q2-a", spread), q2Length("owner-q2-b", skewed), q2Length("owner-q2-c", padded)
	if a != b || a != c {
		t.Errorf("Q2's response is %d B for 7 spread records, %d B for 90 in one zone, %d B for 1 among 40 dummies: its length depends on the data", a, b, c)
	}
	if floor := int64(4 * record.NumLocations); a < floor || a >= 2*floor {
		t.Errorf("Q2's response is %d B, want the 4-byte width's %d ≤ n < %d", a, floor, 2*floor)
	}

	// Refusals, for two owners of different volume and history: owner-q2-a (one
	// sync, 7 records) and owner-records (five syncs, 43 records); on the
	// replica one shipped sync of 1 record against four of 1, 5, 6 and 7.
	rep, rkey := startReplica(t, gateway.Config{Shards: 1})
	replicate(t, rep, rkey, "owner-small", 1, spread[:1]...)
	for tick, n := range []int{1, 5, 6, 7} {
		replicate(t, rep, rkey, "owner-large", uint64(tick+1), spread[:n]...)
	}
	rw, ro := rawGatewayConn(t, gw.Addr()), rawReadConn(t, rep.Addr())
	type drawn struct {
		size   int64
		detail string
	}
	draw := func(c net.Conn, owner string, req wire.Request, code wire.RefusalCode) drawn {
		size, ref := askRefused(t, c, owner, req)
		if ref.Code != code {
			t.Fatalf("%s for %s: refused as %v, want %v", req.Type, owner, ref, code)
		}
		return drawn{size, ref.Detail}
	}
	shed := func(owner string) drawn {
		size, err := hold.shed(t, conn, owner)
		if !errors.Is(err, wire.ErrBackpressure) {
			t.Fatalf("shed for %s: %v", owner, err)
		}
		return drawn{size: size}
	}
	suspend := func(owner string) drawn {
		gw.Store().SetCommitFailpoint(true) // from here on a sync suspends its owner
		if err := conn.Owner(owner).Update(spread[:1]); !errors.Is(err, wire.ErrSuspended) {
			t.Fatalf("update of %s through a failing group commit: %v", owner, err)
		}
		return draw(rw, owner, wire.Request{Type: wire.MsgStats}, wire.CodeSuspended)
	}
	for _, row := range []struct {
		code         wire.RefusalCode
		small, large drawn
		text         bool
	}{
		{code: wire.CodeNotSetup,
			small: draw(rw, "owner-q2-a-never", queryReq(query.Q1(), 0), wire.CodeNotSetup),
			large: draw(rw, "owner-records-never", wire.Request{Type: wire.MsgUpdate, Seq: 6, Sealed: [][]byte{make([]byte, seal.SealedSize)}}, wire.CodeNotSetup)},
		{code: wire.CodeSeqGap,
			small: draw(rw, "owner-q2-a", wire.Request{Type: wire.MsgUpdate, Seq: 100}, wire.CodeSeqGap),
			large: draw(rw, "owner-records", wire.Request{Type: wire.MsgUpdate, Seq: 100}, wire.CodeSeqGap)},
		{code: wire.CodeStale,
			small: draw(ro, "owner-small", queryReq(query.Q1(), 100), wire.CodeStale),
			large: draw(ro, "owner-large", queryReq(query.Q2(), 1<<40), wire.CodeStale)},
		{code: wire.CodeBackpressure, small: shed("owner-q2-a"), large: shed("owner-records")},
		{code: wire.CodeBadRequest, text: true,
			small: draw(rw, "owner-q2-a", wire.Request{Type: wire.MsgUpdate}, wire.CodeBadRequest),
			large: draw(rw, "owner-records", wire.Request{Type: wire.MsgUpdate}, wire.CodeBadRequest)},
		{code: wire.CodeFailed, text: true,
			small: draw(rw, "owner-q2-a", queryReq(emptyRange, 0), wire.CodeFailed),
			large: draw(rw, "owner-records", queryReq(emptyRange, 0), wire.CodeFailed)},
		{code: wire.CodeSuspended, small: suspend("owner-q2-a"), large: suspend("owner-records")},
	} {
		if row.small != row.large {
			t.Errorf("%v: %d B %q for the small owner, %d B %q for the large one", row.code, row.small.size, row.small.detail, row.large.size, row.large.detail)
		}
		if !row.text && (row.small.size != 9 || row.small.detail != "") {
			t.Errorf("%v: %d B with text %q, want the fixed 9", row.code, row.small.size, row.small.detail)
		}
		if row.text && (row.small.detail == "" || row.small.size != 9+int64(len(row.small.detail))) {
			t.Errorf("%v: %d B with text %q", row.code, row.small.size, row.small.detail)
		}
	}
}

// TestTelemetryDebugTenantSeries checks the explicit opt-in: with
// DebugTenantMetrics set, per-owner clock and ε series appear — labeled by
// owner hash, never by raw owner ID.
func TestTelemetryDebugTenantSeries(t *testing.T) {
	reg := telemetry.New()
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})
	gw, key := startGateway(t, gateway.Config{
		Telemetry: reg, DebugTenantMetrics: true,
		StoreDir: t.TempDir(), SyncEpsilon: 0.5, Tracer: tracer,
	})
	owners := []string{"owner-alpha", "owner-bravo"}
	driveTelemetryOwners(t, gw.Addr(), key, owners)

	// Behind the debug gate, sampled traces are annotated with the owner
	// hash — and only the hash; raw owner IDs stay out of the trace plane.
	var tz bytes.Buffer
	if err := telemetry.WriteTracez(&tz, tracer.Dump()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tz.String(), "owner_hash=") {
		t.Errorf("debug-gated tracez missing owner_hash attr:\n%s", tz.String())
	}
	for _, name := range owners {
		if strings.Contains(tz.String(), name) {
			t.Fatalf("debug tracez must annotate by hash, found raw owner ID %q:\n%s", name, tz.String())
		}
	}

	prom, varz := scrapeAll(t, reg)
	for _, name := range owners {
		want := fmt.Sprintf("gateway_tenant_clock{owner_hash=%q}", telemetry.OwnerHash(name))
		if !strings.Contains(prom, want) {
			t.Errorf("debug scrape missing %s:\n%s", want, prom)
		}
		// /varz JSON-escapes the label quotes; the hash itself must appear.
		if !strings.Contains(varz, telemetry.OwnerHash(name)) {
			t.Errorf("debug /varz missing owner hash %s", telemetry.OwnerHash(name))
		}
		for _, out := range []string{prom, varz} {
			if strings.Contains(out, name) {
				t.Fatalf("debug scrape must label by hash, found raw owner ID %q:\n%s", name, out)
			}
		}
	}
	if !strings.Contains(prom, "gateway_tenant_eps{") {
		t.Errorf("debug scrape missing per-owner ε series:\n%s", prom)
	}
}

// TestScrapeBoundedDuringSyncs pins the scrape-safety contract: a snapshot
// (and the statusz shard view) reads atomics the shard workers publish and
// never enqueues onto a shard, so scraping mid-drive completes quickly no
// matter how busy the workers are.
func TestScrapeBoundedDuringSyncs(t *testing.T) {
	reg := telemetry.New()
	gw, key := startGateway(t, gateway.Config{Telemetry: reg, SyncEpsilon: 0.25})

	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-scrape")
	if err := own.Setup([]record.Record{yellow(0, 1)}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		tick := 1
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			tick++
			if err := own.Update([]record.Record{yellow(tick, uint16(tick%200+1))}); err != nil {
				done <- err
				return
			}
		}
	}()

	// Generous bound — CI machines stall — but far below what any path that
	// waits behind queued shard work could meet while the drive saturates
	// the workers.
	const bound = 250 * time.Millisecond
	for i := 0; i < 100; i++ {
		start := time.Now()
		samples := reg.Snapshot()
		statuses := gw.ShardStatuses()
		if d := time.Since(start); d > bound {
			t.Fatalf("scrape %d took %v mid-drive (bound %v)", i, d, bound)
		}
		if len(samples) == 0 || len(statuses) == 0 {
			t.Fatalf("scrape %d returned empty view", i)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStatuszCountsWithoutTelemetry pins the status plane's own counters to
// the work, not to the registry: on gateways built with Telemetry == nil,
// /statusz's committed= follows the commits and a replica's applied= follows
// the stream.
func TestStatuszCountsWithoutTelemetry(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{Shards: 1, StoreDir: t.TempDir()})
	driveTelemetryOwners(t, gw.Addr(), key, []string{"owner-alpha", "owner-bravo"})
	if got := gw.ShardStatuses()[0].Committed; got != 4 {
		t.Fatalf("committed = %d after 4 syncs on a gateway without a registry", got)
	}
	if text := gw.DurableStatusText(); !strings.Contains(text, "shard 0: committed=4 ") {
		t.Fatalf("/statusz does not follow the commits:\n%s", text)
	}

	rep, rkey := startReplica(t, gateway.Config{Shards: 1})
	replicate(t, rep, rkey, "owner-alpha", 1, yellow(0, 1))
	replicate(t, rep, rkey, "owner-alpha", 2, yellow(1, 2))
	if got := rep.ShardStatuses()[0]; got.Applied != 2 || got.Committed != 2 {
		t.Fatalf("replica shard status %+v after 2 shipped entries without a registry", got)
	}
	if text := rep.DurableStatusText(); !strings.Contains(text, "shard 0: committed=2 pending_wal=") || !strings.Contains(text, " applied=2") {
		t.Fatalf("replica /statusz does not follow the stream:\n%s", text)
	}
}
