package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing: a sampled span recorder whose unit of capture is
// one sync's span tree — client-admit at the gateway, queue-wait and apply
// on the shard worker, the WAL group commit (its flush span with the entry's
// commit span under it), the replication ship, and the
// follower's apply on the far side of the wire. The follower joins the tree
// by the trace context the replication codec propagates (trace ID + parent
// span ID), publishing its spans as a fragment keyed by the same trace ID.
//
// # Hot-path contract
//
// The sampling decision is one atomic add. An unsampled request allocates
// nothing: its TraceContext is a stack value carrying only the admission
// timestamp, so the slow-sync check at finish costs a subtraction. Only the
// 1-in-SampleEvery sampled requests allocate a TraceRec and record spans
// (mutex-guarded appends — sampled traffic is too sparse to contend).
// Completed traces publish into a fixed ring of atomic slots; a /tracez
// render reads the rings without ever blocking a recorder.
//
// Spans may be appended to a trace after it has finished and published —
// the replication ship completes asynchronously, after the client has its
// ack — so a snapshot copies each trace's spans under its lock and a late
// span simply appears in the next scrape.
//
// # Privacy
//
// Traces follow the package's aggregate-by-default rule: span names are
// stage names, never tenant identity. The only tenant-correlated field is
// the optional root attribute the gateway sets — and it does so only behind
// DebugTenantMetrics, and only with the owner hash.

const (
	// DefaultSampleEvery samples 1 in N admitted requests.
	DefaultSampleEvery = 64
	// DefaultSlowThreshold is the always-capture bound: any sync slower than
	// this lands in the slow-exemplar ring even if the sampler passed it by.
	DefaultSlowThreshold = 50 * time.Millisecond
	// DefaultTraceCapacity is the recent-trace ring size.
	DefaultTraceCapacity = 64
	// DefaultSlowCapacity is the slow-exemplar ring size. Slow traces live in
	// their own ring so a burst of fast sampled traffic can never evict the
	// tail-latency evidence.
	DefaultSlowCapacity = 32
	// fragSpanBase offsets follower-side span IDs so a fragment's spans can
	// be merged into the primary's tree without colliding with its IDs.
	fragSpanBase = 1 << 16
)

// Span is one recorded stage of a trace. Parent is the span ID this span
// hangs under (0 = tree root); End is zero while the span is still open.
type Span struct {
	ID     uint32
	Parent uint32
	Name   string
	Start  time.Time
	End    time.Time
}

// TraceRec is one captured trace: a span tree under a single trace ID.
// Fragment recs hold the follower-side spans of a trace whose root lives on
// the primary; they carry the propagated trace ID so offline analysis (and
// the e2e test) can join the two halves.
type TraceRec struct {
	TraceID  uint64
	Start    time.Time
	Fragment bool
	// Attr is an optional root annotation (owner hash under the debug gate).
	Attr string

	nextID atomic.Uint32
	endNs  atomic.Int64

	mu    sync.Mutex
	spans []Span
}

func (r *TraceRec) alloc() uint32 { return r.nextID.Add(1) }

func (r *TraceRec) append(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// TraceContext rides through the task structs. The zero value means "not
// sampled, admission time unknown"; an unsampled admission still carries
// its start time so the slow-sync check at finish needs no extra clock
// read. Span is the current span — the parent any child recorded through
// this context hangs under.
type TraceContext struct {
	start time.Time
	rec   *TraceRec
	span  uint32
}

// Sampled reports whether this request is recording spans.
func (tc TraceContext) Sampled() bool { return tc.rec != nil }

// TraceID returns the trace ID (0 when unsampled).
func (tc TraceContext) TraceID() uint64 {
	if tc.rec == nil {
		return 0
	}
	return tc.rec.TraceID
}

// Span returns the context's current span ID (0 when unsampled).
func (tc TraceContext) Span() uint32 { return tc.span }

// At returns the same trace context re-rooted at span — children recorded
// through the result hang under it.
func (tc TraceContext) At(span uint32) TraceContext {
	tc.span = span
	return tc
}

// Record appends a completed span under the context's current span and
// returns its ID (0 when unsampled).
func (tc TraceContext) Record(name string, start, end time.Time) uint32 {
	if tc.rec == nil {
		return 0
	}
	id := tc.rec.alloc()
	tc.rec.append(Span{ID: id, Parent: tc.span, Name: name, Start: start, End: end})
	return id
}

// Alloc reserves a span ID under this trace without recording anything —
// for spans whose identity must travel (the replication ship span, whose ID
// is the parent the follower's spans join under) before their end is known.
// Complete it later with RecordSpan.
func (tc TraceContext) Alloc() uint32 {
	if tc.rec == nil {
		return 0
	}
	return tc.rec.alloc()
}

// RecordSpan appends a fully specified span (an Alloc'd ID, an explicit
// parent). Late appends — after the trace has finished and published — are
// the expected use.
func (tc TraceContext) RecordSpan(s Span) {
	if tc.rec == nil || s.ID == 0 {
		return
	}
	tc.rec.append(s)
}

// SetAttr annotates the trace root (debug-gated owner hash).
func (tc TraceContext) SetAttr(attr string) {
	if tc.rec != nil {
		tc.rec.Attr = attr
	}
}

// TracerConfig sizes a Tracer; zero values take the defaults above. A
// negative SampleEvery disables sampling entirely (slow capture remains).
type TracerConfig struct {
	SampleEvery   int
	SlowThreshold time.Duration
	Capacity      int
	SlowCapacity  int
}

// Tracer is the span recorder. A nil *Tracer no-ops everywhere, so tracing
// is optional at every call site without branches.
type Tracer struct {
	sampleEvery uint64
	slowNs      int64
	seq         atomic.Uint64
	idSeq       atomic.Uint64
	sampled     atomic.Int64
	slowTaken   atomic.Int64

	ring     []atomic.Pointer[TraceRec]
	ringHead atomic.Uint64
	slow     []atomic.Pointer[TraceRec]
	slowHead atomic.Uint64
}

// NewTracer builds a tracer from cfg.
func NewTracer(cfg TracerConfig) *Tracer {
	t := &Tracer{}
	switch {
	case cfg.SampleEvery < 0:
		t.sampleEvery = 0
	case cfg.SampleEvery == 0:
		t.sampleEvery = DefaultSampleEvery
	default:
		t.sampleEvery = uint64(cfg.SampleEvery)
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	t.slowNs = cfg.SlowThreshold.Nanoseconds()
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultTraceCapacity
	}
	if cfg.SlowCapacity <= 0 {
		cfg.SlowCapacity = DefaultSlowCapacity
	}
	t.ring = make([]atomic.Pointer[TraceRec], cfg.Capacity)
	t.slow = make([]atomic.Pointer[TraceRec], cfg.SlowCapacity)
	// Trace IDs are splitmix64 over a time-seeded counter: unique within a
	// process and unlikely to collide across the cluster's nodes.
	t.idSeq.Store(uint64(time.Now().UnixNano()))
	return t
}

// newID mints a non-zero trace ID (splitmix64 finalizer).
func (t *Tracer) newID() uint64 {
	x := t.idSeq.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Admit makes the sampling decision for one request — a single atomic add
// on the unsampled path — and, when sampled, opens the trace with its root
// span. now is the admission timestamp the caller already read.
func (t *Tracer) Admit(name string, now time.Time) TraceContext {
	if t == nil {
		return TraceContext{}
	}
	if t.sampleEvery == 0 || t.seq.Add(1)%t.sampleEvery != 0 {
		return TraceContext{start: now}
	}
	t.sampled.Add(1)
	rec := &TraceRec{TraceID: t.newID(), Start: now, spans: make([]Span, 1, 8)}
	rec.nextID.Store(1)
	rec.spans[0] = Span{ID: 1, Name: name, Start: now}
	return TraceContext{start: now, rec: rec, span: 1}
}

// Finish closes a request's trace: a sampled trace gets its root span ended
// and publishes into the recent ring (and the slow ring past the
// threshold); an unsampled request that crossed the slow threshold is
// captured anyway, as a degenerate single-span exemplar minted from the
// admission timestamp the context carried — the only allocation an
// unsampled request can ever cause, and only on the slow path. now is the
// finish time, which the caller has read — the gateway's writer finishes
// every response a flush carried at that flush's one clock read.
func (t *Tracer) Finish(tc TraceContext, name string, now time.Time) {
	if t == nil || tc.start.IsZero() {
		return
	}
	if tc.rec == nil {
		if dNs := now.Sub(tc.start).Nanoseconds(); dNs >= t.slowNs {
			rec := &TraceRec{TraceID: t.newID(), Start: tc.start,
				spans: []Span{{ID: 1, Name: name, Start: tc.start, End: now}}}
			rec.nextID.Store(1)
			rec.endNs.Store(now.UnixNano())
			t.slowTaken.Add(1)
			publish(t.slow, &t.slowHead, rec)
		}
		return
	}
	rec := tc.rec
	rec.mu.Lock()
	rec.spans[0].End = now
	rec.mu.Unlock()
	rec.endNs.Store(now.UnixNano())
	publish(t.ring, &t.ringHead, rec)
	if now.Sub(rec.Start).Nanoseconds() >= t.slowNs {
		t.slowTaken.Add(1)
		publish(t.slow, &t.slowHead, rec)
	}
}

// Fragment records a follower-side span tree joined to a primary's trace by
// the propagated context: trace ID plus the parent span ID carried on the
// wire. The fragment publishes immediately (it is complete when recorded);
// its span IDs live above fragSpanBase so merging with the primary's tree
// cannot collide.
func (t *Tracer) Fragment(traceID uint64, parent uint32, name string, start, end time.Time) {
	if t == nil || traceID == 0 {
		return
	}
	rec := &TraceRec{TraceID: traceID, Start: start, Fragment: true}
	rec.nextID.Store(fragSpanBase)
	id := rec.alloc()
	rec.spans = []Span{{ID: id, Parent: parent, Name: name, Start: start, End: end}}
	rec.endNs.Store(end.UnixNano())
	publish(t.ring, &t.ringHead, rec)
}

func publish(ring []atomic.Pointer[TraceRec], head *atomic.Uint64, rec *TraceRec) {
	slot := head.Add(1) - 1
	ring[slot%uint64(len(ring))].Store(rec)
}

// Stats returns the tracer's capture counters for scrape-time export.
func (t *Tracer) Stats() (sampled, slow int64) {
	if t == nil {
		return 0, 0
	}
	return t.sampled.Load(), t.slowTaken.Load()
}

// SpanSnap is one span in a trace snapshot. Offset is the span start
// relative to the trace start; a still-open span has Dur < 0.
type SpanSnap struct {
	ID       uint32 `json:"id"`
	Parent   uint32 `json:"parent"`
	Name     string `json:"name"`
	OffsetUs int64  `json:"offset_us"`
	DurUs    int64  `json:"dur_us"`
}

// TraceSnap is one trace's snapshot: the JSON shape of /tracez?format=json
// and dpsync-loadgen -trace-out.
type TraceSnap struct {
	TraceID  string     `json:"trace_id"`
	Start    time.Time  `json:"start"`
	DurUs    int64      `json:"dur_us"`
	Fragment bool       `json:"fragment,omitempty"`
	Attr     string     `json:"attr,omitempty"`
	Spans    []SpanSnap `json:"spans"`
}

// TraceDump is a tracer's full snapshot: the recent sampled ring and the
// slow-sync exemplar ring, newest first.
type TraceDump struct {
	Recent []TraceSnap `json:"recent"`
	Slow   []TraceSnap `json:"slow"`
}

func snapRing(ring []atomic.Pointer[TraceRec], head *atomic.Uint64) []TraceSnap {
	n := head.Load()
	cap64 := uint64(len(ring))
	count := n
	if count > cap64 {
		count = cap64
	}
	out := make([]TraceSnap, 0, count)
	// Walk newest to oldest; a slot being overwritten mid-walk yields a
	// newer trace, never a torn one (the slot is one atomic pointer).
	for i := uint64(0); i < count; i++ {
		rec := ring[(n-1-i)%cap64].Load()
		if rec == nil {
			continue
		}
		out = append(out, snapTrace(rec))
	}
	return out
}

func snapTrace(rec *TraceRec) TraceSnap {
	rec.mu.Lock()
	spans := make([]Span, len(rec.spans))
	copy(spans, rec.spans)
	rec.mu.Unlock()
	ts := TraceSnap{
		TraceID:  fmt.Sprintf("%016x", rec.TraceID),
		Start:    rec.Start,
		Fragment: rec.Fragment,
		Attr:     rec.Attr,
		Spans:    make([]SpanSnap, len(spans)),
	}
	if end := rec.endNs.Load(); end != 0 {
		ts.DurUs = (end - rec.Start.UnixNano()) / 1e3
	}
	for i, s := range spans {
		ss := SpanSnap{ID: s.ID, Parent: s.Parent, Name: s.Name,
			OffsetUs: s.Start.Sub(rec.Start).Microseconds(), DurUs: -1}
		if !s.End.IsZero() {
			ss.DurUs = s.End.Sub(s.Start).Microseconds()
		}
		ts.Spans[i] = ss
	}
	return ts
}

// Dump snapshots both rings, newest first.
func (t *Tracer) Dump() TraceDump {
	if t == nil {
		return TraceDump{}
	}
	return TraceDump{
		Recent: snapRing(t.ring, &t.ringHead),
		Slow:   snapRing(t.slow, &t.slowHead),
	}
}

// WriteTracez renders a dump as the /tracez text page: each trace as an
// indented span tree with offsets and durations.
func WriteTracez(w io.Writer, d TraceDump) error {
	sampled := 0
	for _, tr := range d.Recent {
		if !tr.Fragment {
			sampled++
		}
	}
	if _, err := fmt.Fprintf(w, "dpsync /tracez — %d recent (%d fragments), %d slow exemplars\n",
		len(d.Recent), len(d.Recent)-sampled, len(d.Slow)); err != nil {
		return err
	}
	write := func(title string, traces []TraceSnap) error {
		if _, err := fmt.Fprintf(w, "\n[%s]\n", title); err != nil {
			return err
		}
		for _, tr := range traces {
			if err := writeTrace(w, tr); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("recent sampled traces", d.Recent); err != nil {
		return err
	}
	return write("slow-sync exemplars", d.Slow)
}

func writeTrace(w io.Writer, tr TraceSnap) error {
	kind := ""
	if tr.Fragment {
		kind = " (fragment)"
	}
	attr := ""
	if tr.Attr != "" {
		attr = " " + tr.Attr
	}
	if _, err := fmt.Fprintf(w, "trace %s%s start=%s dur=%dµs%s\n",
		tr.TraceID, kind, tr.Start.UTC().Format(time.RFC3339Nano), tr.DurUs, attr); err != nil {
		return err
	}
	children := map[uint32][]SpanSnap{}
	ids := map[uint32]bool{}
	for _, s := range tr.Spans {
		ids[s.ID] = true
	}
	for _, s := range tr.Spans {
		p := s.Parent
		if !ids[p] {
			p = 0 // orphan (fragment parent lives on another node): render at root
		}
		children[p] = append(children[p], s)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].OffsetUs < kids[j].OffsetUs })
	}
	var walk func(parent uint32, depth int) error
	walk = func(parent uint32, depth int) error {
		for _, s := range children[parent] {
			dur := "open"
			if s.DurUs >= 0 {
				dur = fmt.Sprintf("%dµs", s.DurUs)
			}
			if _, err := fmt.Fprintf(w, "%*s%s +%dµs %s\n", 2+2*depth, "", s.Name, s.OffsetUs, dur); err != nil {
				return err
			}
			if s.ID != parent { // guard against a malformed self-parented span
				if err := walk(s.ID, depth+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(0, 0)
}

// WriteTraceJSON renders a dump as indented JSON.
func WriteTraceJSON(w io.Writer, d TraceDump) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
