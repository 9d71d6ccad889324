// Command benchmark is the repository's benchmark: four workloads driven
// from one single-threaded generator process, through internal/client,
// against separately pinned dpsync-server processes, with every output
// checked. See README.md for the metric → layer → workload table.
//
//	go run ./benchmark -seed 1                    # all workloads, 5 interleaved repetitions + a traced one
//	go run ./benchmark -seed 1 -record            # ... and append the medians to benchmark/history.jsonl
//	go run ./benchmark --workload sync-small --seed 7 --seconds 15 --trace 0
//
// The last form is what the PR driver runs: one workload, five
// repetitions, and one JSON object on the last line of standard output —
// the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

const (
	outDir = "benchmark/out"
	// reps is the repetitions per workload: fresh servers and stores each
	// time. A driver invocation's share one run length; the stand-alone run
	// interleaves them across workloads.
	reps = 5
	// setups is how many times a workload's set-up is timed: once in every
	// repetition and the rest on their own, because set-up is a fraction of
	// a second and its median needs more than five samples to hold still.
	setups = 9
)

// machine is where and how a result was taken; it rides in every result.
type machine struct {
	NProc      int    `json:"nproc"`
	Pinning    string `json:"pinning"`
	StoreFS    string `json:"store_fs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	ServerCPUs int    `json:"server_cpus"`
}

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		workload = flag.String("workload", "", "run only this workload and print the driver's JSON line (default: all four)")
		seconds  = flag.Float64("seconds", refSeconds, "run length the fixed work is scaled to")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer ones")
		record   = flag.Bool("record", false, "append this run's medians to benchmark/history.jsonl")
	)
	flag.Parse()
	if err := run(*seed, *workload, *seconds, *trace == 1, *record); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(seed uint64, only string, seconds float64, traced, record bool) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	specs := workloads
	if only != "" {
		w, ok := findWorkload(only)
		if !ok {
			return fmt.Errorf("unknown workload %q", only)
		}
		specs = []spec{w}
	}
	l, m, err := prepare()
	if err != nil {
		return err
	}
	defer os.RemoveAll(l.dir)
	fmt.Printf("machine: nproc=%d pinning=%s server_cpus=%d store_fs=%s go=%s commit=%s\n",
		m.NProc, m.Pinning, m.ServerCPUs, m.StoreFS, m.GoVersion, m.Commit)

	runs := make([]*workloadRun, len(specs))
	for i, w := range specs {
		w = w.scaled(seconds / refSeconds)
		in, err := generate(w, seed)
		if err != nil {
			return err
		}
		runs[i] = &workloadRun{w: w, in: in, seed: seed, l: l, scratch: l.dir, out: outDir}
		fmt.Printf("%s: %d owners x %d visits, input digest %s, batch sizes %s, dummy share %.3f\n",
			w.Name, w.Owners, w.Visits, in.Digest[:16], histString(in.SizeHist), in.dummyShare())
	}

	if only != "" {
		r, defs, measure := runs[0], endToEnd, (*workloadRun).measureEndToEnd
		if traced {
			defs, measure = perLayer, (*workloadRun).perLayer
		}
		metrics, err := measure(r)
		if err != nil {
			return err
		}
		printTable(r.w.Name, defs, metrics)
		return r.printDriverLine(defs, metrics)
	}

	// Repetitions interleave round-robin across workloads, so slow drift in
	// the machine lands on all of them alike.
	for rep := 0; rep < reps; rep++ {
		for _, r := range runs {
			if err := r.repeat(1); err != nil {
				return err
			}
		}
	}
	correct := true
	results := map[string]map[string]summary{}
	for _, r := range runs {
		if err := r.moreSetups(setups - reps); err != nil {
			return err
		}
		layer, err := r.perLayer()
		if err != nil {
			return err
		}
		e2e := r.endToEnd()
		printTable(r.w.Name, endToEnd, e2e)
		printTable(r.w.Name, perLayer, layer)
		for k, v := range layer {
			e2e[k] = v
		}
		results[r.w.Name] = e2e
		_, _, ok := r.report()
		correct = correct && ok
	}
	if record {
		if err := appendHistory(filepath.Join("benchmark", "history.jsonl"), m, seed, reps, results); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// prepare pins this process to the last CPU, leaves the others to the
// servers, and builds the server binary.
func prepare() (*procLauncher, machine, error) {
	m := machine{NProc: runtime.NumCPU(), Pinning: "none", GoVersion: runtime.Version(), Commit: "unknown"}
	if _, err := os.Stat("cmd/dpsync-server"); err != nil {
		return nil, m, fmt.Errorf("run from the repository root: %w", err)
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	dir, err := filepath.Abs(filepath.Join(outDir, "run-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, m, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, m, err
	}
	m.StoreFS = fsName(dir)
	l := &procLauncher{bin: filepath.Join(filepath.Dir(dir), "bin", "dpsync-server"), dir: dir, ncpu: m.NProc}

	// One thread of generator, so its cost is one CPU's at most and that CPU
	// is not one the servers run on.
	runtime.GOMAXPROCS(1)
	if _, err := exec.LookPath("taskset"); err == nil && m.NProc > 1 {
		last := m.NProc - 1
		l.ncpu = min(last, 3)
		l.cpus = "0"
		if l.ncpu > 1 {
			l.cpus = "0-" + strconv.Itoa(l.ncpu-1)
		}
		if err := exec.Command("taskset", "-a", "-cp", strconv.Itoa(last), strconv.Itoa(os.Getpid())).Run(); err != nil {
			return nil, m, fmt.Errorf("pinning the generator: %w", err)
		}
		m.Pinning = fmt.Sprintf("generator=%d servers=%s", last, l.cpus)
	}
	m.ServerCPUs = l.ncpu

	build := exec.Command("go", "build", "-o", l.bin, "./cmd/dpsync-server")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, m, fmt.Errorf("building dpsync-server: %w", err)
	}
	return l, m, nil
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func histString(h [6]int) string {
	var parts []string
	for i, n := range h {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", sizeHistLabels[i], n))
		}
	}
	return strings.Join(parts, " ")
}

// workloadRun accumulates one workload's repetitions.
type workloadRun struct {
	w    spec
	in   *inputs
	seed uint64
	l    launcher
	// scratch holds each repetition's directory while it runs; out is where
	// the trace files go.
	scratch string
	out     string
	reps    []*repResult
	// extraSetups are the set-up times measured outside a repetition.
	extraSetups []float64
	// layerReps are the untraced and traced repetitions behind the per-layer
	// metrics; they count towards the verdict, not the end-to-end medians.
	layerReps []*repResult
	// invalid counts repetitions discarded because the generator, not the
	// server, was the busier side; each is re-run once.
	invalid int
	nextDir int
}

func (r *workloadRun) dir() string {
	r.nextDir++
	return filepath.Join(r.scratch, fmt.Sprintf("%s-%d", r.w.Name, r.nextDir))
}

// one runs a repetition, and once more if the first measured the generator.
func (r *workloadRun) one(traced bool) (*repResult, error) {
	res, err := runRep(r.w, r.in, r.seed, r.l, r.dir(), traced)
	if err != nil || !res.generatorBound() {
		return res, err
	}
	r.invalid++
	return runRep(r.w, r.in, r.seed, r.l, r.dir(), traced)
}

func (r *workloadRun) repeat(n int) error {
	for i := 0; i < n; i++ {
		res, err := r.one(false)
		if err != nil {
			return fmt.Errorf("%s: %w", r.w.Name, err)
		}
		r.reps = append(r.reps, res)
		fmt.Printf("%s repetition %d: set-up %.3fs, load %.2fs, %.0f syncs/s, sync p50 %.3f ms, CPU per op: servers %.1f us, generator %.1f us\n",
			r.w.Name, len(r.reps), res.SetupS, res.Elapsed.Seconds(), res.syncPerSWall(), p(res.SyncLatMs, 0.5),
			float64((res.ServerCPU+res.FollowerCPU).Microseconds())/float64(res.ops()), float64(res.LoadgenCPU.Microseconds())/float64(res.ops()))
	}
	return nil
}

// moreSetups brings the topology up and sets every owner up n more times,
// without load.
func (r *workloadRun) moreSetups(n int) error {
	for i := 0; i < n; i++ {
		f, s, err := startFleet(r.w, r.in, r.l, r.dir())
		f.stop()
		if err != nil {
			return fmt.Errorf("%s set-up: %w", r.w.Name, err)
		}
		r.extraSetups = append(r.extraSetups, s)
	}
	return nil
}

// measureEndToEnd is a driver invocation's untraced pass.
func (r *workloadRun) measureEndToEnd() (map[string]summary, error) {
	if err := r.repeat(reps); err != nil {
		return nil, err
	}
	if err := r.moreSetups(setups - reps); err != nil {
		return nil, err
	}
	return r.endToEnd(), nil
}

// each collects one per-repetition value across the repetitions.
func (r *workloadRun) each(f func(*repResult) float64) []float64 {
	vals := make([]float64, len(r.reps))
	for i, rep := range r.reps {
		vals[i] = f(rep)
	}
	return vals
}

func p(samples []float64, q float64) float64 {
	v, _ := percentile(samples, q)
	return v
}

// rate summarizes a phase's rate over the repetitions: bestRate as the
// value, next to the repetitions' own whole-phase rates.
func rate(segs [][]float64, ops int) summary {
	walls := make([]float64, len(segs))
	for i, seg := range segs {
		walls[i] = bestRate([][]float64{seg}, ops)
	}
	s := summarize(walls)
	s.Value = bestRate(segs, ops)
	return s
}

// endToEnd is each end-to-end metric over the repetitions.
func (r *workloadRun) endToEnd() map[string]summary {
	var load, sweep [][]float64
	for _, rep := range r.reps {
		load = append(load, rep.LoadSegNs)
		sweep = append(sweep, rep.SweepSegNs)
	}
	// Where visits have queries, the query rate is the same clock as the
	// sync rate divided into a different count; on the sync-only workloads
	// it is the read-back sweep's.
	x := r.reps[0]
	queries := rate(load, x.Queries)
	if x.Queries == 0 {
		queries = rate(sweep, len(x.QueryLatMs))
	}
	return map[string]summary{
		"setup_s":           summarize(append(r.each(func(x *repResult) float64 { return x.SetupS }), r.extraSetups...)),
		"sync_per_s":        rate(load, x.Syncs),
		"query_per_s":       queries,
		"wire_bytes_per_op": summarize(r.each(func(x *repResult) float64 { return float64(x.WireBytes) / float64(x.ops()) })),
	}
}

// report prints the run's verdict and returns the operations attempted and
// failed over every repetition, and whether every check held.
func (r *workloadRun) report() (attempted, failed int, ok bool) {
	var errs []string
	all := append(append([]*repResult(nil), r.reps...), r.layerReps...)
	var busy, served []float64
	for _, rep := range all {
		attempted += rep.Attempted
		failed += rep.Failed
		errs = append(errs, rep.CheckErrs...)
		busy = append(busy, rep.LoadgenCPU.Seconds()/rep.Elapsed.Seconds())
		served = append(served, (rep.ServerCPU+rep.FollowerCPU).Seconds()/rep.Elapsed.Seconds())
	}
	_, beyond := percentile(all[0].SyncLatMs, 0.99)
	fmt.Printf("%s: %d repetitions (%d re-run as generator-bound), %d operations attempted, %d failed, %d samples per repetition beyond sync p99\n",
		r.w.Name, len(all), r.invalid, attempted, failed, beyond)
	fmt.Printf("%s: generator busy %.2f of one CPU, servers %.2f (medians)\n", r.w.Name, median(busy), median(served))
	if r.w.Durable {
		fmt.Printf("%s: every acked sync was present after SIGKILL and restart (process-crash durability: the OS page cache survives a kill)\n", r.w.Name)
	}
	for _, e := range errs {
		fmt.Printf("%s: CHECK FAILED: %s\n", r.w.Name, e)
	}
	return attempted, failed, failed == 0 && len(errs) == 0
}

func printTable(workload string, defs []metricDef, metrics map[string]summary) {
	fmt.Printf("%-14s %-36s %-6s %3s %14s %14s %14s %14s\n", "workload", "metric", "unit", "n", "value", "median", "min", "max")
	for _, d := range defs {
		s := metrics[d.Name]
		fmt.Printf("%-14s %-36s %-6s %3d %14.4f %14.4f %14.4f %14.4f\n", workload, d.Name, d.Unit, s.N, s.Value, s.Median, s.Min, s.Max)
	}
}

// printDriverLine prints the one JSON object the PR driver reads.
func (r *workloadRun) printDriverLine(defs []metricDef, metrics map[string]summary) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	out.Attempted, out.Failed, out.Correct = r.report()
	for _, d := range defs {
		out.Metrics[d.Name] = value{metrics[d.Name].Value, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: output checks failed", r.w.Name)
	}
	return nil
}
