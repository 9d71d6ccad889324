package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotConsistencyUnderRace hammers one registry from GOMAXPROCS
// writer goroutines while a reader scrapes continuously. Run under -race
// this pins the lock-free claim; the assertions pin internal consistency:
// a histogram snapshot's Count must equal the sum of its buckets at every
// scrape, and cumulative bucket counts must be monotone.
func TestSnapshotConsistencyUnderRace(t *testing.T) {
	reg := New()
	ctr := reg.Counter("test_ops_total", "ops")
	h := reg.Histogram("test_latency_us", "latency", LatencyBucketsUs)
	d := reg.Distribution("test_eps", "eps", EpsilonBuckets)

	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	const perWriter = 20000
	var stop atomic.Bool
	var wg sync.WaitGroup
	// Every writer holds its last write until the reader has finished a
	// scrape that began once all writers were running, so at least one scrape
	// lands mid-drive however the scheduler orders the goroutines.
	var running atomic.Int64
	overlapped := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			running.Add(1)
			spent := 0.0
			d.Add(spent)
			for i := 0; i < perWriter; i++ {
				if i == perWriter-1 {
					<-overlapped
				}
				ctr.Inc()
				h.Observe(float64((w*31 + i) % 100000))
				next := spent + 0.5
				d.Move(spent, next)
				spent = next
			}
		}(w)
	}

	scrapes := 0
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		signalled := false
		defer func() {
			if !signalled {
				close(overlapped)
			}
		}()
		for !stop.Load() {
			mid := running.Load() == int64(writers)
			for _, s := range reg.Snapshot() {
				if s.Hist == nil {
					continue
				}
				var sum int64
				for _, c := range s.Hist.Counts {
					sum += c
				}
				if sum != s.Hist.Count {
					t.Errorf("scrape %d: %s: bucket sum %d != count %d", scrapes, s.Name, sum, s.Hist.Count)
					return
				}
			}
			scrapes++
			if mid && !signalled {
				close(overlapped)
				signalled = true
			}
		}
	}()

	wg.Wait()
	stop.Store(true)
	<-readerDone
	if scrapes == 0 {
		t.Fatal("reader never scraped")
	}

	total := int64(writers * perWriter)
	if got := ctr.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	hs := h.snapshot()
	if hs.Count != total {
		t.Errorf("histogram count = %d, want %d", hs.Count, total)
	}
	ds := d.h.snapshot()
	if ds.Count != int64(writers) {
		t.Errorf("distribution membership = %d, want %d writers", ds.Count, writers)
	}
	wantSum := float64(writers*perWriter) * 0.5
	if diff := ds.Sum - wantSum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("distribution sum = %v, want %v", ds.Sum, wantSum)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := New()
	reg.Counter("a_total", "a counter").Add(3)
	h := reg.Histogram("lat_us", "a histogram", []float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(5000)
	reg.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "b", Help: "a gauge", Kind: KindGauge, Value: 1.5})
		emit(Sample{Name: `lag{follower="b"}`, Help: "per-follower lag", Kind: KindGauge, Value: 7})
	})

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_total counter", "a_total 3",
		"# TYPE b gauge", "b 1.5",
		"# TYPE lat_us histogram",
		`lat_us_bucket{le="1"} 1`,
		`lat_us_bucket{le="10"} 2`,
		`lat_us_bucket{le="100"} 2`,
		`lat_us_bucket{le="+Inf"} 3`,
		"lat_us_count 3",
		`lag{follower="b"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	var varz bytes.Buffer
	if err := WriteVarz(&varz, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(varz.Bytes(), &m); err != nil {
		t.Fatalf("varz is not JSON: %v", err)
	}
	if m["a_total"] != 3.0 {
		t.Errorf("varz a_total = %v", m["a_total"])
	}
	if _, ok := m["lat_us"].(map[string]any); !ok {
		t.Errorf("varz lat_us = %T, want histogram object", m["lat_us"])
	}
}

func TestCollectorUnregister(t *testing.T) {
	reg := New()
	un := reg.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "ephemeral", Kind: KindGauge, Value: 1})
	})
	if len(reg.Snapshot()) != 1 {
		t.Fatal("collector did not emit")
	}
	un()
	if len(reg.Snapshot()) != 0 {
		t.Fatal("collector emitted after unregister")
	}
}

func TestNilHandlesNoOp(t *testing.T) {
	var c *Counter
	var h *Histogram
	var d *Distribution
	c.Inc()
	c.Add(2)
	h.Observe(1)
	h.ObserveSince(time.Now())
	h.ObserveNs(100)
	d.Add(1)
	d.Move(1, 2)
	var r *Registry
	if r.Counter("x", "") != nil || r.Snapshot() != nil {
		t.Fatal("nil registry must return nil handles")
	}
}

func TestAdminEndpoints(t *testing.T) {
	reg := New()
	reg.Counter("admin_test_total", "test").Inc()
	ready := true
	a, err := ServeAdmin("127.0.0.1:0", reg, StatusFuncs{
		Text:    func() string { return "role: primary\nlease: held" },
		ReadyFn: func() (bool, string) { return ready, "state" },
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	fetch := func(a *Admin, path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", a.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	get := func(path string) (int, string) { return fetch(a, path) }
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "admin_test_total 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/varz"); code != 200 || !strings.Contains(body, "admin_test_total") {
		t.Errorf("/varz = %d %q", code, body)
	}
	if code, body := get("/statusz"); code != 200 || !strings.Contains(body, "role: primary") {
		t.Errorf("/statusz = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz ready = %d, want 200", code)
	}
	ready = false
	if code, _ := get("/healthz"); code != 503 {
		t.Errorf("/healthz unready = %d, want 503", code)
	}

	// A heap profile sizes what each tenant holds, so the profiler is served
	// behind the debug gate alone, and /statusz lists it only there.
	pprofPaths := []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol",
		"/debug/pprof/heap", "/debug/pprof/trace?seconds=0.001", "/debug/pprof/profile"}
	for _, path := range pprofPaths {
		if code, _ := get(path); code != 404 {
			t.Errorf("%s without the debug gate = %d, want 404", path, code)
		}
	}
	if _, body := get("/statusz"); strings.Contains(body, "pprof") {
		t.Errorf("/statusz lists the profiler without the debug gate: %q", body)
	}
	gated, err := ServeAdmin("127.0.0.1:0", reg, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	defer gated.Close()
	for _, path := range pprofPaths[:5] { // a CPU profile takes at least a second
		if code, _ := fetch(gated, path); code != 200 {
			t.Errorf("%s behind the debug gate = %d, want 200", path, code)
		}
	}
	if _, body := fetch(gated, "/statusz"); !strings.Contains(body, " /debug/pprof/") {
		t.Errorf("/statusz does not list the profiler behind the debug gate: %q", body)
	}
}

func TestOwnerHashStable(t *testing.T) {
	a, b := OwnerHash("owner-1"), OwnerHash("owner-1")
	if a != b || len(a) != 8 {
		t.Fatalf("OwnerHash unstable or wrong width: %q %q", a, b)
	}
	if OwnerHash("owner-2") == a {
		t.Fatal("distinct owners collided (fnv32 collision on trivial input)")
	}
}

// BenchmarkSyncOverhead pins the per-sync telemetry cost: the exact atomic
// sequence the gateway hot path executes per durable sync (three stage
// histogram observations, one counter, one distribution move). The
// acceptance budget is parts-of-a-percent of a ~25µs sync.
func BenchmarkSyncOverhead(b *testing.B) {
	reg := New()
	syncs := reg.Counter("syncs_total", "")
	qw := reg.Histogram("qwait_us", "", LatencyBucketsUs)
	ap := reg.Histogram("apply_us", "", LatencyBucketsUs)
	cm := reg.Histogram("commit_us", "", LatencyBucketsUs)
	d := reg.Distribution("eps", "", EpsilonBuckets)
	d.Add(0)
	spent := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		qw.ObserveSince(start)
		ap.ObserveSince(start)
		cm.ObserveSince(start)
		syncs.Inc()
		d.Move(spent, spent+0.5)
		spent += 0.5
	}
}

// BenchmarkScrape pins the full-registry snapshot+render cost — the
// telemetry_scrape_us baseline key.
func BenchmarkScrape(b *testing.B) {
	reg := New()
	for i := 0; i < 16; i++ {
		reg.Counter(fmt.Sprintf("c%d", i), "c").Add(int64(i))
		reg.Histogram(fmt.Sprintf("h%d", i), "h", LatencyBucketsUs).Observe(float64(i))
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		_ = WritePrometheus(&buf, reg.Snapshot())
	}
}
