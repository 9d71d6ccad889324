package cluster

import (
	"fmt"
	"testing"
	"time"

	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/wire"
)

// The follower's two layer rungs: one read through the replica gateway's
// request path (a loopback read-only connection: reader → shard worker →
// writer) and one shipped entry through the follower's frame entry
// (followerCore.applyFrame: the hand-off to the shard worker, the apply, the
// WAL append and the wait for its outcome). Run them with a fixed iteration
// count, e.g. -benchtime=320x: every iteration deepens some owner's history by
// one batch, so the depth in a benchmark's name is where its owners start.

const (
	benchWindow    = 16 // depth 80 has spilled history, depth 8 has not
	benchSnapEvery = 64
	benchPool      = 32 // owners an advancing benchmark cycles through
)

// benchOwners ships depth ticks to each of n owners and returns their names.
func benchOwners(r *replica, n, depth int) []string {
	names := make([]string, n)
	for o := range names {
		names[o] = fmt.Sprintf("owner-%d", o)
		for tick := uint64(1); tick <= uint64(depth); tick++ {
			if err := r.ship(names[o], tick, rigRecords(o, tick), rigEps); err != nil {
				r.tb.Fatal(err)
			}
		}
	}
	return names
}

func mustRead(b *testing.B, r *replica, owner string, req wire.Request) {
	if resp := r.read(owner, req); !resp.OK {
		b.Fatalf("%s: %v", owner, resp.Refusal)
	}
}

// BenchmarkFollowerRead is one Q1 through the replica: cold (the owner's
// first read — every owner is resident from its first entry, so only its
// answer cache is cold and history depth must not show), warm (a repeat at an
// unchanged clock: an answer-cache hit), and after-advance (the first read
// after one more batch was applied: a cache miss, which must not depend on
// depth either).
func BenchmarkFollowerRead(b *testing.B) {
	q1 := queryReq(query.Q1())
	for _, depth := range []int{8, 80} {
		b.Run(fmt.Sprintf("cold/h=%d", depth), func(b *testing.B) {
			r := newReplica(b, gateway.Config{HistoryWindow: benchWindow}, benchSnapEvery)
			owners := benchOwners(r, b.N, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for _, owner := range owners {
				mustRead(b, r, owner, q1)
			}
		})
	}
	b.Run("warm", func(b *testing.B) {
		r := newReplica(b, gateway.Config{HistoryWindow: benchWindow}, benchSnapEvery)
		owner := benchOwners(r, 1, 8)[0]
		mustRead(b, r, owner, q1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustRead(b, r, owner, q1)
		}
	})
	for _, depth := range []int{8, 80} {
		b.Run(fmt.Sprintf("after-advance/h=%d", depth), func(b *testing.B) {
			r := newReplica(b, gateway.Config{HistoryWindow: benchWindow}, benchSnapEvery)
			owners := benchOwners(r, benchPool, depth)
			for _, owner := range owners {
				mustRead(b, r, owner, q1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o := i % benchPool
				tick := uint64(depth + 1 + i/benchPool)
				if err := r.ship(owners[o], tick, rigRecords(o, tick), rigEps); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				mustRead(b, r, owners[o], q1)
			}
		})
	}
}

// BenchmarkFollowerApply is one shipped entry through applyFrame — the step
// onto the shard worker, frame check, commit, ingest, WAL append, window and
// rotation upkeep, and the outcome back — for owners nobody has read and for
// owners with a populated answer cache to drop.
func BenchmarkFollowerApply(b *testing.B) {
	for _, read := range []bool{false, true} {
		name := "never-read"
		if read {
			name = "read"
		}
		b.Run(name, func(b *testing.B) {
			const depth = 8
			r := newReplica(b, gateway.Config{HistoryWindow: benchWindow}, benchSnapEvery)
			owners := benchOwners(r, benchPool, depth)
			if read {
				for _, owner := range owners {
					mustRead(b, r, owner, queryReq(query.Q1()))
				}
			}
			frames := make([]wire.ReplFrame, b.N)
			for i := range frames {
				o := i % benchPool
				tick := uint64(depth + 1 + i/benchPool)
				r.heads[0]++
				frames[i] = wire.ReplFrame{
					Kind: wire.ReplEntry, Offset: r.heads[0],
					Entry: r.frame(owners[o], tick, rigRecords(o, tick), rigEps),
				}
			}
			now := time.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for _, fr := range frames {
				if err := r.f.applyFrame(fr, now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
