package telemetry

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerSamplingCadence(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 16; i++ {
		tc := tr.Admit("client-admit", time.Now())
		if tc.Sampled() {
			sampled++
			if tc.TraceID() == 0 {
				t.Fatal("sampled trace has zero trace ID")
			}
		} else if tc.TraceID() != 0 {
			t.Fatal("unsampled trace has non-zero trace ID")
		}
		tr.Finish(tc, "client-admit", time.Now())
	}
	if sampled != 4 {
		t.Fatalf("SampleEvery=4 over 16 admissions sampled %d, want 4", sampled)
	}
	if s, _ := tr.Stats(); s != 4 {
		t.Fatalf("Stats sampled = %d, want 4", s)
	}
	if d := tr.Dump(); len(d.Recent) != 4 {
		t.Fatalf("recent ring holds %d traces, want 4", len(d.Recent))
	}
}

func TestTracerSamplingDisabled(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: -1})
	for i := 0; i < 100; i++ {
		tc := tr.Admit("client-admit", time.Now())
		if tc.Sampled() {
			t.Fatal("negative SampleEvery must disable sampling")
		}
		tr.Finish(tc, "client-admit", time.Now())
	}
	if s, _ := tr.Stats(); s != 0 {
		t.Fatalf("disabled tracer sampled %d", s)
	}
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	tc := tr.Admit("x", time.Now())
	if tc.Sampled() || tc.TraceID() != 0 {
		t.Fatal("nil tracer minted a sampled context")
	}
	if tc.Record("y", time.Now(), time.Now()) != 0 || tc.Alloc() != 0 {
		t.Fatal("unsampled context allocated span IDs")
	}
	tc.RecordSpan(Span{ID: 5})
	tc.SetAttr("attr")
	tr.Finish(tc, "x", time.Now())
	tr.Fragment(1, 1, "y", time.Now(), time.Now())
	if d := tr.Dump(); d.Recent != nil || d.Slow != nil {
		t.Fatal("nil tracer dumped traces")
	}
}

// TestSlowCaptureUnsampled pins the always-capture rule: a sync the sampler
// passed by still lands in the slow ring (as a degenerate single-span
// exemplar) when it crosses the threshold.
func TestSlowCaptureUnsampled(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: -1, SlowThreshold: time.Nanosecond})
	tc := tr.Admit("client-admit", time.Now().Add(-time.Millisecond))
	tr.Finish(tc, "client-admit", time.Now())
	d := tr.Dump()
	if len(d.Slow) != 1 {
		t.Fatalf("slow ring holds %d exemplars, want 1", len(d.Slow))
	}
	ex := d.Slow[0]
	if len(ex.Spans) != 1 || ex.Spans[0].Name != "client-admit" || ex.Spans[0].DurUs < 0 {
		t.Fatalf("slow exemplar malformed: %+v", ex)
	}
	if _, slow := tr.Stats(); slow != 1 {
		t.Fatalf("Stats slow = %d, want 1", slow)
	}
}

// TestSlowSampledAlsoInSlowRing: a sampled trace past the threshold appears
// in both rings — once as recent, once as a slow exemplar.
func TestSlowSampledAlsoInSlowRing(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1, SlowThreshold: time.Nanosecond})
	tc := tr.Admit("client-admit", time.Now().Add(-time.Millisecond))
	tr.Finish(tc, "client-admit", time.Now())
	d := tr.Dump()
	if len(d.Recent) != 1 || len(d.Slow) != 1 {
		t.Fatalf("recent=%d slow=%d, want 1/1", len(d.Recent), len(d.Slow))
	}
	if d.Recent[0].TraceID != d.Slow[0].TraceID {
		t.Fatal("the two rings hold different traces")
	}
}

// TestSpanTreeAndFragmentJoin drives the full span sequence a durable
// clustered sync records, plus a follower fragment joined by the propagated
// context, and checks the parentage end to end.
func TestSpanTreeAndFragmentJoin(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	now := time.Now()
	tc := tr.Admit("client-admit", now)
	if !tc.Sampled() || tc.Span() != 1 {
		t.Fatalf("root span = %d, want 1", tc.Span())
	}
	qw := tc.Record("queue-wait", now, now.Add(time.Microsecond))
	ap := tc.Record("apply", now, now.Add(2*time.Microsecond))
	flush := tc.Record("wal-flush", now, now.Add(3*time.Microsecond))
	commit := tc.At(flush).Record("wal-commit", now, now.Add(3*time.Microsecond))
	ship := tc.At(commit).Alloc()
	tr.Finish(tc, "client-admit", time.Now())
	// The ship span completes after the client ack — the late-append path.
	tc.At(commit).RecordSpan(Span{ID: ship, Parent: commit, Name: "repl-ship",
		Start: now, End: now.Add(4 * time.Microsecond)})
	tr.Fragment(tc.TraceID(), ship, "follower-apply", now.Add(4*time.Microsecond), now.Add(5*time.Microsecond))

	d := tr.Dump()
	if len(d.Recent) != 2 {
		t.Fatalf("recent ring holds %d recs, want trace + fragment", len(d.Recent))
	}
	// Newest first: the fragment published last.
	frag, main := d.Recent[0], d.Recent[1]
	if !frag.Fragment || main.Fragment {
		t.Fatalf("ring order wrong: %+v / %+v", frag, main)
	}
	if frag.TraceID != main.TraceID {
		t.Fatal("fragment did not join the primary trace ID")
	}
	if len(frag.Spans) != 1 || frag.Spans[0].Parent != ship || frag.Spans[0].ID < fragSpanBase {
		t.Fatalf("fragment span misparented: %+v (ship=%d)", frag.Spans[0], ship)
	}
	parent := map[string]uint32{}
	byID := map[uint32]string{}
	for _, s := range main.Spans {
		parent[s.Name] = s.Parent
		byID[s.ID] = s.Name
	}
	for name, wantParent := range map[string]uint32{
		"client-admit": 0, "queue-wait": 1, "apply": 1, "wal-flush": 1,
		"wal-commit": flush, "repl-ship": commit,
	} {
		if parent[name] != wantParent {
			t.Errorf("%s parent = %d (%s), want %d", name, parent[name], byID[parent[name]], wantParent)
		}
	}
	_ = qw
	_ = ap
}

func TestWriteTracezRender(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	now := time.Now()
	tc := tr.Admit("client-admit", now)
	flush := tc.Record("wal-flush", now, now.Add(time.Microsecond))
	tc.At(flush).Record("wal-commit", now, now.Add(time.Microsecond))
	tr.Finish(tc, "client-admit", time.Now())

	var b strings.Builder
	if err := WriteTracez(&b, tr.Dump()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"dpsync /tracez", "[recent sampled traces]", "[slow-sync exemplars]",
		"client-admit", "  wal-flush", "    wal-commit",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tracez render missing %q:\n%s", want, out)
		}
	}

	var j strings.Builder
	if err := WriteTraceJSON(&j, tr.Dump()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j.String(), `"trace_id"`) || !strings.Contains(j.String(), `"wal-commit"`) {
		t.Errorf("trace JSON missing fields:\n%s", j.String())
	}
}

// TestHistogramExemplar pins the /metrics linkage: a bucket observed with a
// trace ID renders an OpenMetrics exemplar suffix carrying that ID.
func TestHistogramExemplar(t *testing.T) {
	reg := New()
	h := reg.Histogram("stage_us", "test", LatencyBucketsUs)
	h.ObserveEx(42, 0xabcdef)
	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `# {trace_id="0000000000abcdef"}`) {
		t.Errorf("exemplar suffix missing:\n%s", b.String())
	}
	// A zero trace ID must leave the bucket exemplar-free.
	reg2 := New()
	h2 := reg2.Histogram("stage_us", "test", LatencyBucketsUs)
	h2.ObserveEx(42, 0)
	b.Reset()
	if err := WritePrometheus(&b, reg2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "trace_id") {
		t.Errorf("zero trace ID produced an exemplar:\n%s", b.String())
	}
}

// TestTraceRaceHammer is the CI -race target: recorders, late appenders,
// fragment publishers, and scrapers all hitting one tracer concurrently.
func TestTraceRaceHammer(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 2, Capacity: 8, SlowCapacity: 4})
	const workers = 8
	const iters = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				now := time.Now()
				tc := tr.Admit("client-admit", now)
				flush := tc.Record("wal-flush", now, now)
				commit := tc.At(flush).Record("wal-commit", now, now)
				ship := tc.At(commit).Alloc()
				tr.Finish(tc, "client-admit", time.Now())
				// Late append + fragment after publication, like the
				// replication sender and the follower.
				tc.At(commit).RecordSpan(Span{ID: ship, Parent: commit, Name: "repl-ship", Start: now, End: time.Now()})
				tr.Fragment(tc.TraceID(), ship, "follower-apply", now, time.Now())
			}
		}(w)
	}
	stop := make(chan struct{})
	var scr sync.WaitGroup
	for s := 0; s < 2; s++ {
		scr.Add(1)
		go func() {
			defer scr.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var b strings.Builder
					if err := WriteTracez(&b, tr.Dump()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scr.Wait()
	if sampled, _ := tr.Stats(); sampled != workers*iters/2 {
		t.Fatalf("sampled %d, want %d", sampled, workers*iters/2)
	}
}

// durableSyncSpans records the span sequence a durable sync leaves: admit,
// queue-wait, apply, wal-flush with wal-commit under it, finish.
func durableSyncSpans(tr *Tracer, now time.Time, step time.Duration) {
	tc := tr.Admit("client-admit", now)
	tc.Record("queue-wait", now, now.Add(step))
	tc.Record("apply", now, now.Add(2*step))
	flush := tc.Record("wal-flush", now, now.Add(3*step))
	tc.At(flush).Record("wal-commit", now, now.Add(3*step))
	tr.Finish(tc, "client-admit", time.Now())
}

// BenchmarkTraceSampled prices the tracing plane for a request that IS
// sampled. "sampled" records, publishes and finishes the durable-sync span
// sequence through an always-sampling tracer; "disabled" drives the same
// calls through a sampling-disabled one, whose per-request cost is one atomic
// add. Their difference is what tracing costs a captured request (the
// trace_overhead_ns of the frozen baseline).
func BenchmarkTraceSampled(b *testing.B) {
	for _, mode := range []struct {
		name  string
		every int
	}{{"sampled", 1}, {"disabled", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			tr := NewTracer(TracerConfig{SampleEvery: mode.every})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				durableSyncSpans(tr, time.Now(), 0)
			}
		})
	}
}

// BenchmarkTracezRender prices one /tracez text render — ring snapshot plus
// span tree encoding — over a tracer whose rings are full (the
// tracez_render_us of the frozen baseline).
func BenchmarkTracezRender(b *testing.B) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	for i := 0; i < 2*DefaultTraceCapacity; i++ {
		durableSyncSpans(tr, time.Now(), time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTracez(io.Discard, tr.Dump()); err != nil {
			b.Fatal(err)
		}
	}
}
