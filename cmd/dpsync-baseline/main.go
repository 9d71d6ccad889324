// Command dpsync-baseline measures the hot-path micro-operations and the
// experiment-grid wall-clock on the current machine and emits a JSON
// baseline (BENCH_baseline.json at the repo root by convention), so future
// changes can be compared against a recorded perf trajectory:
//
//	go run ./cmd/dpsync-baseline            # writes BENCH_baseline.json
//	go run ./cmd/dpsync-baseline -out -     # prints to stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"dpsync/internal/ahe"
	"dpsync/internal/core"
	"dpsync/internal/crypte"
	"dpsync/internal/dp"
	"dpsync/internal/loadgen"
	"dpsync/internal/oblidb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/sim"
	"dpsync/internal/telemetry"
)

// Baseline is the emitted document. NsPerOp entries are testing.Benchmark
// measurements of real substrate operations; GridSeconds is one parallel
// RunGrid wall-clock at the recorded scale; RealAHESeconds is one
// scaled-down end-to-end run of the true-crypto Cryptε mode.
//
// GOMAXPROCS is sampled from inside a benchmark body, so it records the
// value the measurements actually ran under (an earlier revision sampled it
// at startup, which records the wrong thing if anything — a future
// GOMAXPROCS-setting flag, a runtime that adjusts it — changes it before
// the benchmarks execute). NumCPU records the machine itself.
type Baseline struct {
	GeneratedAt time.Time          `json:"generated_at"`
	GoVersion   string             `json:"go_version"`
	NumCPU      int                `json:"num_cpu"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	NsPerOp     map[string]float64 `json:"ns_per_op"`
	GridScale   float64            `json:"grid_scale"`
	GridSeconds float64            `json:"grid_seconds"`
	// RealAHESeconds is the wall-clock of the scaled-down true-crypto run
	// (two ingest batches + Q1/Q2/Q4 through genuine Paillier aggregates,
	// 384-bit keys), mirroring BenchmarkMicroRealAHE.
	RealAHESeconds float64 `json:"real_ahe_seconds"`
	// Gateway serving-layer measurements (internal/loadgen): GatewayOwners
	// × GatewayTicks driven through an in-process multi-tenant gateway.
	// cmd/dpsync-loadgen -baseline merges the same keys, so a standalone
	// load run can refresh them without re-measuring the crypto micro-ops.
	// (gateway_codec, in baselines written before the JSON codec was
	// deleted, is a retired key: no longer emitted, never reused.)
	GatewayOwners       int     `json:"gateway_owners"`
	GatewayTicks        int     `json:"gateway_ticks"`
	GatewaySyncs        int64   `json:"gateway_syncs"`
	GatewaySyncsPerSec  float64 `json:"gateway_syncs_per_sec"`
	GatewayP50Ms        float64 `json:"gateway_p50_ms"`
	GatewayP99Ms        float64 `json:"gateway_p99_ms"`
	GatewayBytesPerSync float64 `json:"gateway_bytes_per_sync"`
	// Read-path serving layer: the same gateway drive carries an analyst
	// query mix (GatewayQueryMix queries per owner per tick, cycling Q1–Q4).
	// QueryQPS is the analyst-query throughput — the read-path scale-out
	// target holds it at ≥10× gateway_syncs_per_sec — and QcacheHitRatio is
	// the noise-reuse answer cache's hits/(hits+misses): every hit re-serves
	// already-released bytes with zero backend work and zero ε spend.
	// ReplicaQueryQPS / ReplicaServed come from the two-node read-replica
	// harness (cmd/dpsync-loadgen -read-replica -baseline merges the same
	// keys): follower read-plane throughput and queries it absorbed.
	GatewayQueryMix int     `json:"gateway_query_mix"`
	QueryQPS        float64 `json:"query_qps"`
	QueryP99Ms      float64 `json:"query_p99_ms"`
	QcacheHitRatio  float64 `json:"qcache_hit_ratio"`
	ReplicaQueryQPS float64 `json:"replica_query_qps"`
	ReplicaServed   int64   `json:"replica_served"`
	// Hostile-fleet serving layer: the same gateway under seeded connection
	// churn + injected transport faults + open-loop arrivals — mean
	// outage→resume wall-clock, open-loop p99 measured from scheduled
	// arrivals (coordinated-omission-free), and typed backpressure sheds.
	// cmd/dpsync-loadgen -churn -faults -open-loop -baseline merges the
	// same keys.
	ChurnResumeMs     float64 `json:"churn_resume_ms"`
	OpenLoopP99Ms     float64 `json:"open_loop_p99_ms"`
	BackpressureSheds int64   `json:"backpressure_sheds"`
	// Durable serving layer (internal/store under the same gateway): mean
	// WAL append→commit latency, the group-commit factor (entries per
	// flush/fsync round), durable sync throughput at the same scale as the
	// in-memory gateway run, and the close→reopen crash-recovery
	// wall-clock. cmd/dpsync-loadgen -durable -baseline merges the same
	// keys.
	WALAppendUs        float64 `json:"wal_append_us"`
	WALGroupFactor     float64 `json:"wal_group_factor"`
	DurableSyncsPerSec float64 `json:"durable_syncs_per_sec"`
	RecoveryMs         float64 `json:"recovery_ms"`
	RecoveryOwners     int     `json:"recovery_owners"`
	// Tiered history (internal/store spill tier under the same durable
	// run): the in-RAM window the measurement used, batches/bytes spilled
	// out of gateway RAM, and history segment files created.
	// cmd/dpsync-loadgen -durable -history-window N -baseline merges the
	// same keys.
	HistoryWindow int   `json:"history_window"`
	SpillBatches  int64 `json:"spill_batches"`
	SpillBytes    int64 `json:"spill_bytes"`
	SpillSegments int64 `json:"spill_segments"`
	// TelemetryScrapeUs is one full /metrics render — registry snapshot plus
	// Prometheus text encoding — of a registry shaped like a serving
	// gateway's (stage histograms populated, ε distribution, counters). The
	// gateway_*/durable_* throughput keys above are themselves measured
	// telemetry-on, so their trajectory already prices the hot-path cost;
	// this key prices the scrape side.
	TelemetryScrapeUs float64 `json:"telemetry_scrape_us"`
	// TraceOverheadNs is the per-request cost of the tracing plane when a
	// request IS sampled: the full client-admit → queue-wait → apply →
	// wal-flush → wal-commit span sequence recorded, published, and
	// finished, measured as the delta against the same sequence through a
	// sampling-disabled tracer (whose per-request cost is one atomic add).
	// TracezRenderUs is one full /tracez render — ring snapshot plus span
	// tree text encoding — over a tracer holding a full ring of traces.
	TraceOverheadNs float64 `json:"trace_overhead_ns"`
	TracezRenderUs  float64 `json:"tracez_render_us"`
}

func obliWithRecords(n int) (*oblidb.DB, error) {
	db, err := oblidb.New()
	if err != nil {
		return nil, err
	}
	rs := make([]record.Record, n)
	for i := range rs {
		rs[i] = record.Record{
			PickupTime: record.Tick(i + 1),
			PickupID:   uint16(i%record.NumLocations + 1),
			Provider:   record.YellowCab,
		}
		if i%3 == 0 {
			rs[i].Provider = record.GreenTaxi
		}
	}
	return db, db.Setup(rs)
}

func main() {
	out := flag.String("out", "BENCH_baseline.json", "output path, or - for stdout")
	scale := flag.Float64("scale", 0.05, "grid scale for the wall-clock sample")
	quick := flag.Bool("quick", false, "skip the slower 1024/2048-bit AHE micro-ops (CI smoke)")
	flag.Parse()

	b := Baseline{
		GeneratedAt: time.Now().UTC(),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		NsPerOp:     map[string]float64{},
		GridScale:   *scale,
	}
	// Sampled from inside the benchmark bodies: the recorded value must be
	// what the measurements ran under, not what main saw at startup.
	captureProcs := func() { b.GOMAXPROCS = runtime.GOMAXPROCS(0) }

	for _, n := range []int{1000, 10_000, 50_000} {
		db, err := obliWithRecords(n)
		if err != nil {
			fatal(err)
		}
		r := testing.Benchmark(func(bb *testing.B) {
			captureProcs()
			for i := 0; i < bb.N; i++ {
				if _, _, err := db.Query(query.Q2()); err != nil {
					bb.Fatal(err)
				}
			}
		})
		b.NsPerOp[fmt.Sprintf("oblivious_scan_n%d", n)] = float64(r.NsPerOp())
	}

	{
		db, err := obliWithRecords(20_000)
		if err != nil {
			fatal(err)
		}
		r := testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				if _, _, err := db.Query(query.Q3()); err != nil {
					bb.Fatal(err)
				}
			}
		})
		b.NsPerOp["join_n20000"] = float64(r.NsPerOp())
	}

	{
		db, err := oblidb.New()
		if err != nil {
			fatal(err)
		}
		strat, err := sim.NewStrategy(sim.DPTimer, sim.DefaultParams(), nil)
		if err != nil {
			fatal(err)
		}
		owner, err := core.New(core.Config{Strategy: strat, Database: db})
		if err != nil {
			fatal(err)
		}
		if err := owner.Setup(nil); err != nil {
			fatal(err)
		}
		tick := 0
		r := testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				tick++
				var terr error
				if tick%3 == 0 {
					terr = owner.Tick(record.Record{
						PickupTime: record.Tick(tick),
						PickupID:   uint16(tick%record.NumLocations + 1),
						Provider:   record.YellowCab,
					})
				} else {
					terr = owner.Tick()
				}
				if terr != nil {
					bb.Fatal(terr)
				}
			}
		})
		b.NsPerOp["owner_tick_dptimer"] = float64(r.NsPerOp())
	}

	// AHE micro-ops: each fast path is recorded next to its reference
	// implementation, so the perf trajectory shows the pairs the rebuilt
	// pipeline is judged on — CRT vs textbook decryption, pooled-online vs
	// unpooled encryption — at the test key size and (unless -quick) at
	// production-representative sizes, where the CRT advantage grows with
	// the operand width.
	aheSizes := []int{512, 1024, 2048}
	if *quick {
		aheSizes = aheSizes[:1]
	}
	for _, bits := range aheSizes {
		key, err := ahe.GenerateKey(bits)
		if err != nil {
			fatal(err)
		}
		bench := func(name string, fn func()) {
			r := testing.Benchmark(func(bb *testing.B) {
				captureProcs()
				for i := 0; i < bb.N; i++ {
					fn()
				}
			})
			b.NsPerOp[fmt.Sprintf("%s_%d", name, bits)] = float64(r.NsPerOp())
		}
		bench("ahe_encrypt", func() {
			if _, err := key.PublicKey.Encrypt(42); err != nil {
				fatal(err)
			}
		})
		bench("ahe_encrypt_owner_crt", func() {
			if _, err := key.EncryptOwner(42); err != nil {
				fatal(err)
			}
		})
		// The online half of the offline/online split: one precomputed
		// randomizer power recycled across iterations isolates the
		// single-mulmod assembly cost a warm RandomizerPool delivers.
		zero, err := key.EncryptZero()
		if err != nil {
			fatal(err)
		}
		bench("ahe_encrypt_pooled", func() {
			if _, err := key.EncryptPrecomputed(42, zero.C); err != nil {
				fatal(err)
			}
		})
		ct, err := key.Encrypt(123456789)
		if err != nil {
			fatal(err)
		}
		bench("ahe_decrypt_textbook", func() {
			if _, err := key.DecryptTextbook(ct); err != nil {
				fatal(err)
			}
		})
		bench("ahe_decrypt_crt", func() {
			if _, err := key.Decrypt(ct); err != nil {
				fatal(err)
			}
		})

		if bits == 512 {
			// The aggregation shape recorded since PR 1: 4 encodings of
			// width 32. Randomizers are recycled in setup (the summation
			// cost being measured doesn't depend on them).
			vecs := make([][]ahe.Ciphertext, 4)
			for i := range vecs {
				v := make([]ahe.Ciphertext, 32)
				for j := range v {
					m := int64(0)
					if j == i {
						m = 1
					}
					ct, err := key.EncryptPrecomputed(m, zero.C)
					if err != nil {
						fatal(err)
					}
					v[j] = ct
				}
				vecs[i] = v
			}
			r := testing.Benchmark(func(bb *testing.B) {
				captureProcs()
				for i := 0; i < bb.N; i++ {
					if _, err := key.SumVector(vecs...); err != nil {
						bb.Fatal(err)
					}
				}
			})
			b.NsPerOp["ahe_sumvector_w32x4"] = float64(r.NsPerOp())
		}
	}

	start := time.Now()
	if _, err := sim.RunGrid(sim.ObliDB, 1, *scale); err != nil {
		fatal(err)
	}
	b.GridSeconds = time.Since(start).Seconds()

	// Scaled-down true-crypto run, mirroring BenchmarkMicroRealAHE: the
	// whole encode → ciphertext-aggregate → re-randomize → CRT-decrypt
	// pipeline under a real Paillier key.
	if err := realAHERun(&b); err != nil {
		fatal(err)
	}

	// Gateway serving layer: N owners × T ticks against an in-process
	// multi-tenant gateway (the acceptance scale, or a small smoke under
	// -quick).
	gwOwners, gwTicks := 1000, 100
	if *quick {
		gwOwners, gwTicks = 32, 30
	}
	rep, err := loadgen.Run(loadgen.Config{Owners: gwOwners, Ticks: gwTicks, Seed: 1, QueryMix: 6})
	if err != nil {
		fatal(err)
	}
	b.GatewayOwners = rep.Owners
	b.GatewayTicks = rep.Ticks
	b.GatewaySyncs = rep.Syncs
	b.GatewaySyncsPerSec = rep.SyncsPerSec
	b.GatewayP50Ms = rep.P50Ms
	b.GatewayP99Ms = rep.P99Ms
	b.GatewayBytesPerSync = rep.BytesPerSync
	b.GatewayQueryMix = 6
	b.QueryQPS = rep.QueryQPS
	b.QueryP99Ms = rep.QueryP99Ms
	b.QcacheHitRatio = rep.QcacheHitRatio

	// Hostile-fleet pass: seeded churn + transport faults + open-loop
	// arrivals against the same gateway, with transcript verification still
	// exact (reconnect/replay/resume must be invisible to the accounting).
	// Smaller than the closed-loop run: open-loop arrivals pace wall-clock
	// by design.
	flOwners, flTicks := 200, 60
	if *quick {
		flOwners, flTicks = 16, 30
	}
	frep, err := loadgen.Run(loadgen.Config{
		Owners: flOwners, Ticks: flTicks, Seed: 1, Verify: true,
		Churn: true, Faults: true, OpenLoop: true,
	})
	if err != nil {
		fatal(err)
	}
	b.ChurnResumeMs = frep.ChurnResumeMs
	b.OpenLoopP99Ms = frep.OpenLoopP99Ms
	b.BackpressureSheds = frep.BackpressureSheds

	// Read-replica harness: a two-node cluster whose follower read plane
	// absorbs the analyst mix (RunReplica errors unless the follower
	// actually served queries, so the recorded throughput is never a
	// fallback-to-primary artifact).
	rpOwners, rpTicks := 128, 60
	if *quick {
		rpOwners, rpTicks = 8, 24
	}
	rrep, err := loadgen.RunReplica(loadgen.ReplicaConfig{
		Owners: rpOwners, Ticks: rpTicks, QueryMix: 4, Seed: 1,
	})
	if err != nil {
		fatal(err)
	}
	b.ReplicaQueryQPS = rrep.ReplicaQueryQPS
	b.ReplicaServed = rrep.ReplicaServed

	// Durable serving layer: the same scale on the WAL+snapshot store with
	// a finite history window (batches past it spill to history segments;
	// snapshots are manifests), plus the close→reopen recovery wall-clock
	// (transcripts verified, spilled history streamed). The window is 16 —
	// small enough that the busiest owners (~T/3 syncs) actually spill at
	// this tick count, so the spill_* keys measure real spill traffic.
	drep, err := loadgen.Run(loadgen.Config{
		Owners: gwOwners, Ticks: gwTicks, Seed: 1,
		Durable: true, SyncEpsilon: 0.5, Verify: true,
		HistoryWindow: 16,
	})
	if err != nil {
		fatal(err)
	}
	b.WALAppendUs = drep.WALAppendUs
	b.WALGroupFactor = drep.WALGroupFactor
	b.DurableSyncsPerSec = drep.SyncsPerSec
	b.RecoveryMs = drep.RecoveryMs
	b.RecoveryOwners = drep.RecoveredOwners
	b.HistoryWindow = drep.HistoryWindow
	b.SpillBatches = drep.SpillBatches
	b.SpillBytes = drep.SpillBytes
	b.SpillSegments = drep.SpillSegments
	b.TelemetryScrapeUs = scrapeBench(captureProcs)
	b.TraceOverheadNs, b.TracezRenderUs = traceBench(captureProcs)

	enc, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// realAHERun times one scaled-down end-to-end pass of the true-crypto
// Cryptε mode: two ingest batches and the three linear queries, every
// answer produced by genuine Paillier arithmetic. The workload is similar
// in shape to BenchmarkMicroRealAHE but intentionally decoupled from it —
// this is a wall-clock sample for the recorded trajectory, not the same
// measurement.
func realAHERun(b *Baseline) error {
	pipe, err := crypte.NewAHEPipeline(384)
	if err != nil {
		return err
	}
	defer pipe.Close()
	db, err := crypte.New(crypte.WithRealAHE(pipe), crypte.WithNoiseSource(dp.NewSeededSource(1)))
	if err != nil {
		return err
	}
	batch := func(base int) []record.Record {
		rs := make([]record.Record, 0, 6)
		for i := 0; i < 5; i++ {
			rs = append(rs, record.Record{
				PickupTime: record.Tick(base + i + 1),
				PickupID:   uint16((base*37+i*53)%record.NumLocations + 1),
				Provider:   record.YellowCab,
				FareCents:  uint32(100 * (i + 1)),
			})
		}
		return append(rs, record.NewDummy(record.YellowCab))
	}
	start := time.Now()
	if err := db.Setup(batch(0)); err != nil {
		return err
	}
	if err := db.Update(batch(10)); err != nil {
		return err
	}
	for _, q := range []query.Query{query.Q1(), query.Q2(), query.Q4()} {
		if _, _, err := db.Query(q); err != nil {
			return err
		}
	}
	b.RealAHESeconds = time.Since(start).Seconds()
	return nil
}

// scrapeBench measures one full /metrics render (snapshot + Prometheus text
// encoding) of a registry populated like a serving gateway's: the four
// per-sync stage histograms and the group-commit histogram carrying
// observations, the fleet ε distribution carrying a tenant population, and
// the counter/gauge set a gateway's collectors emit.
func scrapeBench(captureProcs func()) float64 {
	reg := telemetry.New()
	hists := []*telemetry.Histogram{
		reg.Histogram("gateway_sync_queue_wait_us", "bench", telemetry.LatencyBucketsUs),
		reg.Histogram("gateway_sync_apply_us", "bench", telemetry.LatencyBucketsUs),
		reg.Histogram("gateway_sync_commit_us", "bench", telemetry.LatencyBucketsUs),
		reg.Histogram("gateway_sync_ack_us", "bench", telemetry.LatencyBucketsUs),
		reg.Histogram("store_commit_flush_us", "bench", telemetry.LatencyBucketsUs),
	}
	for i, h := range hists {
		for j := 0; j < 4096; j++ {
			h.Observe(float64((j%997)*(i+1)) + 0.5)
		}
	}
	grp := reg.Histogram("store_commit_group_size", "bench", telemetry.GroupSizeBuckets)
	for j := 0; j < 4096; j++ {
		grp.Observe(float64(j%48 + 1))
	}
	eps := reg.Distribution("gateway_tenant_eps_spent", "bench", telemetry.EpsilonBuckets)
	for i := 0; i < 1000; i++ {
		eps.Add(float64(i%256) / 4)
	}
	for i := 0; i < 8; i++ {
		reg.Counter(fmt.Sprintf("bench_counter_%d", i), "bench").Add(int64(i * 1000))
		reg.Gauge(fmt.Sprintf("bench_gauge_%d", i), "bench").Set(float64(i))
	}
	r := testing.Benchmark(func(bb *testing.B) {
		captureProcs()
		for i := 0; i < bb.N; i++ {
			if err := telemetry.WritePrometheus(io.Discard, reg.Snapshot()); err != nil {
				bb.Fatal(err)
			}
		}
	})
	return float64(r.NsPerOp()) / 1e3
}

// traceBench prices the tracing plane. The overhead measurement drives the
// span sequence a durable sync records (admit, queue-wait, apply, wal-flush,
// wal-commit, finish) through an always-sampling tracer and through a
// sampling-disabled one; the delta is what tracing costs a request when its
// trace IS captured — the unsampled path's own cost is a single atomic add.
// The render measurement prices one /tracez text render over a full ring.
func traceBench(captureProcs func()) (overheadNs, renderUs float64) {
	sequence := func(tr *telemetry.Tracer) float64 {
		r := testing.Benchmark(func(bb *testing.B) {
			captureProcs()
			for i := 0; i < bb.N; i++ {
				now := time.Now()
				tc := tr.Admit("client-admit", now)
				tc.Record("queue-wait", now, now)
				tc.Record("apply", now, now)
				flush := tc.Record("wal-flush", now, now)
				tc.At(flush).Record("wal-commit", now, now)
				tr.Finish(tc, "client-admit")
			}
		})
		return float64(r.NsPerOp())
	}
	sampled := sequence(telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1}))
	unsampled := sequence(telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: -1}))
	overheadNs = sampled - unsampled

	tr := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})
	for i := 0; i < 128; i++ {
		now := time.Now()
		tc := tr.Admit("client-admit", now)
		tc.Record("queue-wait", now, now.Add(time.Microsecond))
		tc.Record("apply", now, now.Add(2*time.Microsecond))
		flush := tc.Record("wal-flush", now, now.Add(3*time.Microsecond))
		tc.At(flush).Record("wal-commit", now, now.Add(3*time.Microsecond))
		tr.Finish(tc, "client-admit")
	}
	r := testing.Benchmark(func(bb *testing.B) {
		captureProcs()
		for i := 0; i < bb.N; i++ {
			if err := telemetry.WriteTracez(io.Discard, tr.Dump()); err != nil {
				bb.Fatal(err)
			}
		}
	})
	renderUs = float64(r.NsPerOp()) / 1e3
	return overheadNs, renderUs
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dpsync-baseline: %v\n", err)
	os.Exit(1)
}
