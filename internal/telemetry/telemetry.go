// Package telemetry is the runtime metrics and observability layer: lock-
// free counters and fixed-bucket histograms behind a registry, scrape-time
// collectors for gauges and labelled series, a Prometheus/JSON/statusz admin
// HTTP plane (ServeAdmin), and the structured logging helpers the serving
// stack shares.
//
// # Hot-path contract
//
// Every instrument is a handle the caller resolves once (at construction)
// and then touches with single atomic operations — no locks, no
// allocations, no map lookups on the sync path. A scrape (Snapshot, or any
// admin endpoint) reads the same atomics; it never blocks a writer and a
// writer never blocks it. Histogram counts are *derived* from the bucket
// atomics at snapshot time, so "bucket sums equal the count" holds by
// construction under any interleaving — a scrape racing GOMAXPROCS writers
// is torn at worst by single observations, never internally inconsistent.
//
// # Privacy rule: aggregate by default
//
// DP-Sync's threat model makes the metrics endpoint part of the adversary's
// view: per-tenant update-pattern detail (per-owner sync counts, per-owner
// ε series) would leak exactly what the synchronization strategies pay ε to
// hide. The convention this package's users follow is therefore aggregate-
// by-default: fleet-wide counters and population histograms (e.g. the
// ε-spent distribution across all tenants) are always exported; anything
// keyed by an individual owner appears only behind an explicit debug switch
// (gateway.Config.DebugTenantMetrics) and is labeled by owner hash, never
// by owner ID.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind tags a sample with its Prometheus metric type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// Counter is a monotonically increasing atomic counter. The zero value is
// usable; a nil *Counter no-ops, so optional instrumentation needs no
// branches at call sites.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram: bounds are the bucket upper bounds
// (strictly increasing); one extra overflow bucket catches everything above
// the last bound. Observations are two atomic ops (bucket increment + sum
// add); there is no separate count field — Count is the sum of the bucket
// atomics, which is what makes concurrent snapshots internally consistent.
// A nil *Histogram no-ops.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1
	sumBits atomic.Uint64  // float64 bits, CAS-added
	// ex holds one exemplar pointer per bucket — the last sampled-trace
	// observation to land there — linking /metrics stage buckets to trace
	// IDs. Written only on the sampled path (ObserveEx with a trace ID),
	// so the unsampled hot path never touches it.
	ex []atomic.Pointer[Exemplar]
}

// Exemplar ties one observed value to the trace that produced it.
type Exemplar struct {
	TraceID uint64
	Value   float64
}

func (h *Histogram) bucketFor(v float64) int {
	// Binary search; bounds are short (≲24) so this is a handful of
	// well-predicted branches.
	return sort.SearchFloat64s(h.bounds, v)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketFor(v)].Add(1)
	h.addSum(v)
}

// ObserveEx records one value and, when traceID is non-zero, stamps the
// bucket's exemplar with the trace that produced it.
func (h *Histogram) ObserveEx(v float64, traceID uint64) {
	if h == nil {
		return
	}
	b := h.bucketFor(v)
	h.counts[b].Add(1)
	h.addSum(v)
	if traceID != 0 && h.ex != nil {
		h.ex[b].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// ObserveSince records the elapsed time since start, in microseconds — the
// unit every latency histogram in this codebase uses.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(float64(time.Since(start).Nanoseconds()) / 1e3)
}

// ObserveNs records a duration given in nanoseconds, as microseconds.
func (h *Histogram) ObserveNs(ns int64) {
	if h == nil {
		return
	}
	h.Observe(float64(ns) / 1e3)
}

func (h *Histogram) addSum(delta float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// snapshot reads the histogram race-cleanly. Count is derived from the
// buckets, never stored separately.
func (h *Histogram) snapshot() *HistogramData {
	d := &HistogramData{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		d.Counts[i] = c
		d.Count += c
	}
	if h.ex != nil {
		d.Exemplars = make([]*Exemplar, len(h.ex))
		for i := range h.ex {
			d.Exemplars[i] = h.ex[i].Load()
		}
	}
	return d
}

// Distribution is a population histogram: it describes the current state of
// a set of members (e.g. every tenant's cumulative ε spend) rather than a
// stream of events. Add enrolls a member at a value; Move re-buckets one
// member whose value changed. Count therefore tracks membership, not
// observations, and stays constant across Moves. A nil *Distribution
// no-ops.
type Distribution struct {
	h Histogram
}

// Add enrolls one member at value v.
func (d *Distribution) Add(v float64) {
	if d != nil {
		d.h.Observe(v)
	}
}

// Move re-buckets one member from old to new. The two bucket updates are
// separate atomics, so a concurrent snapshot can see the member in both
// buckets or neither for an instant — off by one membership, never
// internally broken.
func (d *Distribution) Move(old, new float64) {
	if d == nil {
		return
	}
	ob, nb := d.h.bucketFor(old), d.h.bucketFor(new)
	if ob != nb {
		d.h.counts[ob].Add(-1)
		d.h.counts[nb].Add(1)
	}
	d.h.addSum(new - old)
}

// HistogramData is a histogram's snapshot. Counts are per-bucket (not
// cumulative); Counts[len(Bounds)] is the overflow bucket. Count == Σ
// Counts by construction.
type HistogramData struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
	// Exemplars is per-bucket (same indexing as Counts), entries nil where
	// no sampled observation has landed; nil when the histogram keeps none.
	Exemplars []*Exemplar
}

// Sample is one metric's snapshot. Name may carry a Prometheus label set
// (`foo{follower="b"}`); the exposition writer splits it.
type Sample struct {
	Name  string
	Help  string
	Kind  Kind
	Value float64        // counter/gauge value
	Hist  *HistogramData // histogram payload (nil otherwise)
}

// Collector contributes samples computed at scrape time — how components
// that already keep their own atomics (store.Metrics, hub stats) export
// them without double-counting on the hot path, and how dynamic series
// (per-follower lag) appear and disappear with their subjects.
type Collector func(emit func(Sample))

// Registry holds named instruments and collectors. Get-or-create accessors
// (Counter, Gauge, Histogram, Distribution) take the registry lock once at
// construction; the returned handles are lock-free thereafter.
type Registry struct {
	mu         sync.Mutex
	metrics    map[string]*regEntry
	order      []string
	collectors map[int]Collector
	collOrder  []int
	collSeq    int
}

type regEntry struct {
	help string
	kind Kind
	c    *Counter
	h    *Histogram
	d    *Distribution
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{metrics: map[string]*regEntry{}, collectors: map[int]Collector{}}
}

// Default is the process-wide registry cmd binaries expose on -admin.
// Library components accept an explicit *Registry and fall back to nothing
// (nil handles no-op) — sharing Default across unrelated instances in one
// process would merge their series.
var Default = New()

func (r *Registry) lookup(name, help string, kind Kind) *regEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as a different kind", name))
		}
		return e
	}
	e := &regEntry{help: help, kind: kind}
	r.metrics[name] = e
	r.order = append(r.order, name)
	return e
}

// Counter returns (creating if needed) the named counter. Nil registries
// return nil handles, which no-op.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.lookup(name, help, KindCounter)
	if e == nil {
		return nil
	}
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Histogram returns (creating if needed) the named histogram. bounds is
// only used on first creation.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	e := r.lookup(name, help, KindHistogram)
	if e == nil {
		return nil
	}
	if e.h == nil {
		e.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1),
			ex: make([]atomic.Pointer[Exemplar], len(bounds)+1)}
	}
	return e.h
}

// Distribution returns (creating if needed) the named population histogram.
func (r *Registry) Distribution(name, help string, bounds []float64) *Distribution {
	e := r.lookup(name, help, KindHistogram)
	if e == nil {
		return nil
	}
	if e.d == nil {
		e.d = &Distribution{h: Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}}
	}
	return e.d
}

// RegisterCollector adds a scrape-time collector and returns its remover —
// call it when the collector's subject (a hub, a store) closes, so a
// process that cycles components does not accumulate dead emitters.
func (r *Registry) RegisterCollector(c Collector) (unregister func()) {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	id := r.collSeq
	r.collSeq++
	r.collectors[id] = c
	r.collOrder = append(r.collOrder, id)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.collectors, id)
		r.mu.Unlock()
	}
}

// Snapshot reads every instrument and collector into a stable-ordered
// sample list. It takes the registry lock only to walk the name index —
// instrument reads are the same atomics the hot path writes, so a snapshot
// cannot block a writer.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	entries := make([]*regEntry, len(names))
	for i, n := range names {
		entries[i] = r.metrics[n]
	}
	colls := make([]Collector, 0, len(r.collOrder))
	for _, id := range r.collOrder {
		if c, ok := r.collectors[id]; ok {
			colls = append(colls, c)
		}
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(names)+8)
	for i, e := range entries {
		s := Sample{Name: names[i], Help: e.help, Kind: e.kind}
		switch {
		case e.c != nil:
			s.Value = float64(e.c.Value())
		case e.h != nil:
			s.Hist = e.h.snapshot()
		case e.d != nil:
			s.Hist = e.d.h.snapshot()
		}
		out = append(out, s)
	}
	for _, c := range colls {
		c(func(s Sample) { out = append(out, s) })
	}
	return out
}

// Shared bucket layouts. Latency buckets are microseconds (the unit
// ObserveSince/ObserveNs record), spanning sub-µs atomic paths to multi-
// second fsync stalls.
var (
	// LatencyBucketsUs covers 1µs..10s.
	LatencyBucketsUs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1e6, 2.5e6, 5e6, 1e7}
	// GroupSizeBuckets covers WAL group-commit batch sizes.
	GroupSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	// EpsilonBuckets covers cumulative per-tenant ε spend for the fleet
	// distribution.
	EpsilonBuckets = []float64{0, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
)
