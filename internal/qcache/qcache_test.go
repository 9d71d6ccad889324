package qcache

import (
	"math"
	"testing"
	"time"

	"dpsync/internal/wire"
)

func spec(kind int, lo uint16) wire.QuerySpec {
	return wire.QuerySpec{Kind: kind, Provider: 1, Lo: lo, Hi: lo + 1}
}

func resp(scalar float64) wire.Response {
	return wire.Response{OK: true, Answer: &wire.AnswerSpec{Scalar: scalar}}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(4)
	if _, ok := c.Get(spec(1, 0)); ok {
		t.Fatal("empty cache reported a hit")
	}
	if evicted := c.Put(spec(1, 0), resp(42)); evicted {
		t.Fatal("insert below capacity evicted")
	}
	got, ok := c.Get(spec(1, 0))
	if !ok || got.Answer.Scalar != 42 {
		t.Fatalf("Get = %+v, %v; want scalar 42 hit", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCapacityBoundAndLFUEviction(t *testing.T) {
	c := New(3)
	c.Put(spec(1, 0), resp(1))
	c.Put(spec(1, 1), resp(2))
	c.Put(spec(1, 2), resp(3))
	// Heat up entries 0 and 2; entry 1 stays cold.
	for i := 0; i < 3; i++ {
		c.Get(spec(1, 0))
		c.Get(spec(1, 2))
	}
	if evicted := c.Put(spec(1, 3), resp(4)); !evicted {
		t.Fatal("insert at capacity did not evict")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d after eviction, want 3", c.Len())
	}
	if _, ok := c.Get(spec(1, 1)); ok {
		t.Fatal("least-frequently-used entry survived eviction")
	}
	for _, s := range []wire.QuerySpec{spec(1, 0), spec(1, 2), spec(1, 3)} {
		if _, ok := c.Get(s); !ok {
			t.Fatalf("entry %+v missing after LFU eviction", s)
		}
	}
}

func TestEvictionTieBreaksFIFO(t *testing.T) {
	c := New(2)
	c.Put(spec(1, 0), resp(1)) // oldest, zero hits
	c.Put(spec(1, 1), resp(2)) // newer, zero hits
	c.Put(spec(1, 2), resp(3)) // evicts the oldest cold entry
	if _, ok := c.Get(spec(1, 0)); ok {
		t.Fatal("oldest of the equally-cold entries survived")
	}
	if _, ok := c.Get(spec(1, 1)); !ok {
		t.Fatal("newer equally-cold entry was evicted instead")
	}
}

func TestPutSameSpecRefreshesWithoutEviction(t *testing.T) {
	c := New(1)
	c.Put(spec(1, 0), resp(1))
	if evicted := c.Put(spec(1, 0), resp(9)); evicted {
		t.Fatal("refreshing an existing key must not evict")
	}
	got, _ := c.Get(spec(1, 0))
	if got.Answer.Scalar != 9 {
		t.Fatalf("refresh did not replace value: %v", got.Answer.Scalar)
	}
}

func TestInvalidateDropsEverything(t *testing.T) {
	c := New(4)
	c.Put(spec(1, 0), resp(1))
	c.Put(spec(2, 0), resp(2))
	if n := c.Invalidate(); n != 2 {
		t.Fatalf("Invalidate = %d, want 2", n)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after invalidate, want 0", c.Len())
	}
	if _, ok := c.Get(spec(1, 0)); ok {
		t.Fatal("entry survived invalidation")
	}
	if n := c.Invalidate(); n != 0 {
		t.Fatalf("Invalidate on empty cache = %d, want 0", n)
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(0)
	for i := 0; i < DefaultCapacity+10; i++ {
		c.Put(spec(1, uint16(i)), resp(float64(i)))
	}
	if c.Len() != DefaultCapacity {
		t.Fatalf("Len = %d, want DefaultCapacity %d", c.Len(), DefaultCapacity)
	}
}

var sink Cache

// TestNewAllocatesNothing pins that a cache costs nothing until it holds an
// answer: a tenant that is never queried carries no entry storage.
func TestNewAllocatesNothing(t *testing.T) {
	for _, capacity := range []int{0, 4, DefaultCapacity} {
		if n := testing.AllocsPerRun(100, func() { sink = New(capacity) }); n != 0 {
			t.Errorf("New(%d) allocates %.1f objects, want 0", capacity, n)
		}
	}
}

// TestZeroCacheHoldsNothing pins the disabled cache the gateway keeps when
// its QueryCache is negative: the zero Cache misses every Get and drops
// every Put.
func TestZeroCacheHoldsNothing(t *testing.T) {
	var c Cache
	if evicted := c.Put(spec(1, 0), resp(1)); evicted {
		t.Fatal("zero cache reported an eviction")
	}
	if _, ok := c.Get(spec(1, 0)); ok || c.Len() != 0 || c.Invalidate() != 0 {
		t.Fatal("zero cache held an entry")
	}
}

// TestInvalidateCostIndependentOfCapacity pins that invalidation is O(live
// entries): dropping one live entry from a DefaultCapacity cache costs what it
// costs in a capacity-4 one, and neither allocates — Put after Invalidate
// reuses the entry slice. (A map preallocated to capacity made the large
// cache's cycle several times the small one's.)
func TestInvalidateCostIndependentOfCapacity(t *testing.T) {
	r := resp(1)
	cycle := func(capacity int) func() {
		c := New(capacity)
		return func() {
			c.Put(spec(1, 0), r)
			c.Invalidate()
		}
	}
	for _, capacity := range []int{4, DefaultCapacity} {
		f := cycle(capacity)
		f()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("capacity %d: a Put+Invalidate cycle allocates %.1f objects, want 0", capacity, n)
		}
	}
	// Best of five timed runs each, so one descheduled run cannot fail it.
	ns := func(capacity int) float64 {
		const iters = 20_000
		f := cycle(capacity)
		best := math.Inf(1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			for j := 0; j < iters; j++ {
				f()
			}
			best = min(best, float64(time.Since(start).Nanoseconds())/iters)
		}
		return best
	}
	small, large := ns(4), ns(DefaultCapacity)
	t.Logf("one live entry, Put+Invalidate: %.1f ns at capacity 4, %.1f ns at capacity %d", small, large, DefaultCapacity)
	if large > 1.5*small+10 {
		t.Fatalf("capacity %d costs %.1f ns against %.1f ns at capacity 4: invalidation is not O(live)", DefaultCapacity, large, small)
	}
}
