// Package qcache is the gateway's noise-reuse answer cache: a per-tenant,
// bounded-capacity store of released DP query answers keyed by the full
// wire.QuerySpec.
//
// The privacy argument is DP-Sync's free lunch: a released answer is already
// noised, so re-serving the exact same bytes to the exact same question
// costs zero additional ε — differential privacy is closed under
// post-processing, and a cache hit is pure post-processing. The cache
// therefore never touches the ledger; its only correctness obligation is
// that a cached answer must never outlive the state transition that could
// change it. The gateway enforces that by invalidating the owner's cache at
// sync *commit* time (not apply time): in durable mode the entry clears
// inside the WAL completion where the committed clock advances, so a crash
// between apply and commit cannot resurrect a stale answer — the cache is
// RAM-only and recovery starts cold by construction.
//
// This is deliberately not internal/cache, which is the paper's owner-side
// update buffer (the thing the DP strategies flush); this package lives on
// the server read path. Each instance belongs to one shard-worker-owned
// tenant, so it needs no locking: the shard worker is the only goroutine
// that ever touches it.
//
// Eviction is LFU with FIFO tie-breaking. The query-spec space is tiny
// (kind × provider × range bounds), capacities are small, and hot analyst
// dashboards re-ask the same handful of specs — frequency, not recency, is
// the signal that matters.
//
// A cache costs what it holds. New allocates nothing; the first Put allocates
// a slice of a few entries (80 bytes each), grown by append up to the
// capacity and kept across invalidations, so a tenant that is never queried
// holds no entry storage and one that is reuses its slice. Lookup, insert,
// eviction's search for the minimum and Invalidate each walk the live
// entries once — O(live), never O(capacity) while the cache is not full: a
// tenant's live specs are the handful its analysts ask (Q1–Q4 in the paper),
// and even a full DefaultCapacity walk is well under a microsecond.
package qcache

import "dpsync/internal/wire"

// DefaultCapacity is the per-tenant entry bound used when the gateway
// config does not name one.
const DefaultCapacity = 64

// firstAlloc is the entry slice the first Put allocates: the paper's four
// queries fit without a second allocation.
const firstAlloc = 4

type entry struct {
	spec wire.QuerySpec
	resp wire.Response
	hits uint64
	// seq is the insertion sequence, the LFU tie-breaker: among equally
	// cold entries the oldest goes first.
	seq uint64
}

// Cache is a bounded LFU cache of released query responses for one tenant.
// Not safe for concurrent use — by design it is owned by a single shard
// worker goroutine. The zero Cache holds nothing: every Get misses and
// every Put is dropped.
type Cache struct {
	cap     int
	seq     uint64
	entries []entry
}

// New returns an empty cache bounded to capacity entries (DefaultCapacity if
// capacity <= 0). It allocates nothing.
func New(capacity int) Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return Cache{cap: capacity}
}

// find returns the index of spec's entry, -1 if it has none.
func (c *Cache) find(spec wire.QuerySpec) int {
	for i := range c.entries {
		if c.entries[i].spec == spec {
			return i
		}
	}
	return -1
}

// Get returns the cached response for spec and bumps its frequency.
func (c *Cache) Get(spec wire.QuerySpec) (wire.Response, bool) {
	i := c.find(spec)
	if i < 0 {
		return wire.Response{}, false
	}
	e := &c.entries[i]
	e.hits++
	return e.resp, true
}

// Put stores the released response for spec, evicting the least-frequently-
// used entry if the cache is at capacity. It reports whether an eviction
// happened (for telemetry).
func (c *Cache) Put(spec wire.QuerySpec, resp wire.Response) (evicted bool) {
	if c.cap == 0 {
		return false
	}
	if i := c.find(spec); i >= 0 {
		// Same spec, same committed state — the bytes cannot differ, but
		// refreshing costs nothing and keeps Put idempotent.
		c.entries[i].resp = resp
		return false
	}
	c.seq++
	e := entry{spec: spec, resp: resp, seq: c.seq}
	if len(c.entries) < c.cap {
		if c.entries == nil {
			c.entries = make([]entry, 0, min(firstAlloc, c.cap))
		}
		c.entries = append(c.entries, e)
		return false
	}
	victim := 0
	for i := 1; i < len(c.entries); i++ {
		v, x := &c.entries[victim], &c.entries[i]
		if x.hits < v.hits || (x.hits == v.hits && x.seq < v.seq) {
			victim = i
		}
	}
	c.entries[victim] = e
	return true
}

// Invalidate drops every entry — the owner committed a sync, so any cached
// answer may now be stale — and returns how many were dropped. It touches
// only the live entries and keeps the slice for the next fill.
func (c *Cache) Invalidate() int {
	n := len(c.entries)
	clear(c.entries)
	c.entries = c.entries[:0]
	return n
}

// Len returns the live entry count.
func (c *Cache) Len() int { return len(c.entries) }
