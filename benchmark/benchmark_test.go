package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// toy shrinks a workload to something an in-process server finishes in a
// fraction of a second, keeping its shape.
func toy(w spec) spec {
	w.Owners, w.Visits, w.InFlight = 12, 3, 4
	return w
}

func toyRun(t *testing.T, w spec) *workloadRun {
	t.Helper()
	w = toy(w)
	in, err := generate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return &workloadRun{w: w, in: in, seed: 1, l: inprocLauncher{}, scratch: dir, out: dir}
}

type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// Every workload runs end to end at toy scale, passes its output checks and
// emits exactly the end-to-end metrics BENCHMARK.json names, with its units.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if j := b.EndToEnd[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, j, d)
		}
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		r := toyRun(t, w)
		if err := r.repeat(1); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := r.report(); !ok {
			t.Errorf("%s: output checks failed: %v", w.Name, r.reps[0].CheckErrs)
		}
		got := r.endToEnd()
		if len(got) != len(endToEnd) {
			t.Errorf("%s: emitted %d end-to-end metrics, want %d", w.Name, len(got), len(endToEnd))
		}
		for _, d := range endToEnd {
			if s, ok := got[d.Name]; !ok || s.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", w.Name, d.Name, s)
			}
		}
	}
}

// The per-layer pass (ladder, untraced and traced repetition) emits exactly
// the per-layer metrics BENCHMARK.json names and writes the ladder's spans.
func TestPerLayerMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if j := b.PerLayer[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, j, d)
		}
	}
	w, _ := findWorkload("replica-read")
	r := toyRun(t, w)
	got, err := r.perLayer()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.report(); !ok {
		t.Errorf("output checks failed")
	}
	if len(got) != len(perLayer) {
		t.Errorf("emitted %d per-layer metrics, want %d", len(got), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := got[d.Name]; !ok {
			t.Errorf("per-layer metric %s not emitted", d.Name)
		}
	}
	for _, name := range []string{"wire.frame_rt_us", "gateway.stub_rt_us", "cluster.read_cold_us_h80", "trace.client_sync_us", "cluster.shipped_per_commit"} {
		if got[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, got[name].Value)
		}
	}
	raw, err := os.ReadFile(filepath.Join(r.out, "trace-replica-read.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.End < s.Start || (s.Parent != 0 && !ids[s.Parent]) {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// Inputs are a function of the seed alone.
func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		w = toy(w)
		a, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7)
		c, _ := generate(w, 8)
		if a.Digest != b.Digest {
			t.Errorf("%s: same seed, digests %s and %s", w.Name, a.Digest, b.Digest)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", w.Name)
		}
		for _, o := range a.Owners {
			if len(o.Batches) != w.Visits {
				t.Fatalf("%s: %s has %d batches, want %d", w.Name, o.Name, len(o.Batches), w.Visits)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(1000 - i) // unsorted on purpose: 1000..1
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{0.50, 500, 500}, {0.99, 990, 10}, {1, 1000, 0}, {0.001, 1, 999}} {
		got, beyond := percentile(s, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("percentile(%v) = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if s[0] != 1000 {
		t.Error("percentile sorted its argument in place")
	}
	if v, n := percentile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, n)
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	got := summarize([]float64{5, 9, 1, 7, 3})
	if want := (summary{N: 5, Value: 5, Median: 5, Min: 1, Max: 9}); got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v", got)
	}
	// Two repetitions of four operations in two segments: the first lost
	// 30ns in its first segment, the second 50ns in its second.
	a := segmentTimes([]float64{40, 20, 50, 60}, 2)
	b := segmentTimes([]float64{5, 10, 70, 50}, 2)
	if a[0] != 40 || a[1] != 20 || b[0] != 10 || b[1] != 60 {
		t.Errorf("segmentTimes = %v, %v", a, b)
	}
	if got := bestRate([][]float64{a, b}, 4); got != 4/30e-9 {
		t.Errorf("bestRate = %v, want 4 operations in 10+20 ns", got)
	}
}

// -record appends and never rewrites.
func TestHistoryAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	res := map[string]map[string]summary{"sync-small": {"sync_per_s": {N: 5, Value: 2, Median: 2, Min: 1, Max: 3}}}
	if err := appendHistory(path, machine{NProc: 2}, 1, 5, res); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(path)
	if err := appendHistory(path, machine{NProc: 2}, 2, 5, res); err != nil {
		t.Fatal(err)
	}
	both, _ := os.ReadFile(path)
	if len(both) <= len(first) || string(both[:len(first)]) != string(first) {
		t.Errorf("second record rewrote the first line")
	}
}
