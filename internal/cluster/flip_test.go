package cluster_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/cluster"
	"dpsync/internal/dp"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/refdb"
	"dpsync/internal/seal"
)

// flipGatewayConfig is the serving shape of the flip differential: windowed,
// with a low rotation floor, so a hundred ticks put spills and rotations
// behind the promotion.
func flipGatewayConfig(key []byte) gateway.Config {
	return gateway.Config{Key: key, Shards: 2, SnapshotEvery: 16, HistoryWindow: 8, SyncEpsilon: failoverSyncEps}
}

func startFlipNode(t *testing.T, id, dir string, key []byte, lease cluster.Lease, replicaOf string) *cluster.Node {
	t.Helper()
	n, err := cluster.Start(cluster.Config{
		Addr: "127.0.0.1:0", NodeID: id, StoreDir: dir, Gateway: flipGatewayConfig(key),
		Lease: lease, LeaseTTL: failoverTTL, Heartbeat: 20 * time.Millisecond, RingSize: 64,
		ReplicaOf: replicaOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	if err := os.CopyFS(out, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	return out
}

// flipBatch is owner o's upload at tick (tick 0 is the setup): every record
// lands in Q1's range, so the answers tell committed prefixes apart.
func flipBatch(o, tick int) []record.Record {
	rs := []record.Record{yellow(tick, uint16(50+(tick+7*o)%50))}
	if tick%3 == 0 {
		rs = append(rs, yellow(tick, uint16(50+o)))
	}
	return rs
}

// TestPromotionByFlipEqualsRecovery pins what the role flip rests on: at the
// promotion instant of a seeded failover — windowed, with spills and rotations
// behind it — the tenants the promoted node serves from RAM are, owner for
// owner, what gateway.New recovers from a copy of its directory taken at that
// instant, and what the single-owner reference holds for the same prefix:
// clock, ε ledger bytes, transcript event for event, Q1–Q4 answer bits with
// their deterministic cost counters, and storage stats. And the hub the flip
// bound continues the stream the follower applied: a third node whose cursors
// are that directory's joins the promoted node without a snapshot transfer.
func TestPromotionByFlipEqualsRecovery(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			key, err := seal.NewRandomKey()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			lease := cluster.NewMemLease(nil)
			dirB := t.TempDir()
			a := startFlipNode(t, "node-a", t.TempDir(), key, lease, "")
			b := startFlipNode(t, "node-b", dirB, key, lease, "")
			waitFor(t, 10*time.Second, "the follower to connect", func() bool { return a.Stats().Hub.Followers > 0 })

			names := []string{"owner-x", "owner-y", "owner-z"}
			conn, err := client.DialGateway(a.Addr(), key)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for o, name := range names {
				if err := conn.Owner(name).Setup(flipBatch(o, 0)); err != nil {
					t.Fatal(err)
				}
			}
			// The follower is level a few ticks before the kill, so the kill
			// lands on a prefix that has the rotations behind it but is cut by
			// the seed and by replication's own timing, not by the test.
			killTick := 90 + rng.Intn(30)
			level := killTick - 1 - rng.Intn(6)
			for tick := 1; tick <= killTick; tick++ {
				for o, name := range names {
					if err := conn.Owner(name).Update(flipBatch(o, tick)); err != nil {
						t.Fatal(err)
					}
				}
				if tick == level {
					waitFor(t, 10*time.Second, "the replica to level with the primary", func() bool {
						return b.Stats().Follower.Applied >= uint64(len(names)*(level+1))
					})
				}
			}
			a.Kill()
			waitPromoted(t, b, 10*time.Second)
			flipped := b.Gateway()
			if m, _ := flipped.StoreMetrics(); m.Snapshots < 2 || m.SpillBatches == 0 {
				t.Fatalf("promoted over %d rotations and %d spilled batches: the run does not exercise them", m.Snapshots, m.SpillBatches)
			}

			// The promotion instant: nobody writes to b, so its directory now is
			// its directory then.
			cfg := flipGatewayConfig(key)
			cfg.StoreDir = copyDir(t, dirB)
			thirdDir := copyDir(t, dirB)
			recovered, err := gateway.New("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatalf("recovering the promoted node's directory: %v", err)
			}
			go func() { _ = recovered.Serve() }()
			defer recovered.Kill()

			fconn, err := client.DialGateway(b.Addr(), key)
			if err != nil {
				t.Fatal(err)
			}
			defer fconn.Close()
			rconn, err := client.DialGateway(recovered.Addr(), key)
			if err != nil {
				t.Fatal(err)
			}
			defer rconn.Close()
			for o, name := range names {
				fp, rp := flipped.ObservedPattern(name), recovered.ObservedPattern(name)
				clock := fp.Updates()
				if clock < level+1 || clock > killTick+1 {
					t.Fatalf("%s: promoted at clock %d, outside what was replicated (%d) and sent (%d)", name, clock, level+1, killTick+1)
				}
				ref, err := refdb.New(key)
				if err != nil {
					t.Fatal(err)
				}
				ledger := dp.NewBudget()
				for tick := 0; tick < clock; tick++ {
					charge := "m_update"
					if tick == 0 {
						charge, err = "m_setup", ref.Setup(flipBatch(o, tick))
					} else {
						err = ref.Update(flipBatch(o, tick))
					}
					if err == nil {
						err = ledger.Charge(charge, failoverSyncEps, dp.Sequential)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				want := ref.ObservedPattern()
				if fp.String() != rp.String() || fp.String() != want.String() {
					t.Fatalf("%s transcript at clock %d:\n flipped:   %s\n recovered: %s\n reference: %s", name, clock, fp, rp, want)
				}
				for i := range want.Events {
					if fp.Events[i] != want.Events[i] || rp.Events[i] != want.Events[i] {
						t.Fatalf("%s event %d: flipped %+v, recovered %+v, reference %+v", name, i, fp.Events[i], rp.Events[i], want.Events[i])
					}
				}
				fl, _ := flipped.ObservedLedger(name).MarshalBinary()
				rl, _ := recovered.ObservedLedger(name).MarshalBinary()
				wl, _ := ledger.MarshalBinary()
				if string(fl) != string(rl) || string(fl) != string(wl) {
					t.Fatalf("%s ε ledger at clock %d: flipped %q, recovered %q, reference %q", name, clock,
						flipped.ObservedLedger(name).Describe(), recovered.ObservedLedger(name).Describe(), ledger.Describe())
				}
				fown, rown := fconn.Owner(name), rconn.Owner(name)
				for _, q := range []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()} {
					fAns, fCost, err := fown.Query(q)
					if err != nil {
						t.Fatalf("%s %v on the flipped node: %v", name, q.Kind, err)
					}
					rAns, rCost, err := rown.Query(q)
					if err != nil {
						t.Fatalf("%s %v on the recovered copy: %v", name, q.Kind, err)
					}
					wAns, wCost, err := ref.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					got, rec, want := readFingerprint(fAns, fCost), readFingerprint(rAns, rCost), readFingerprint(wAns, wCost)
					if got != rec || got != want {
						t.Fatalf("%s %v at clock %d:\n flipped:   %s\n recovered: %s\n reference: %s", name, q.Kind, clock, got, rec, want)
					}
				}
				fst, err := fown.RemoteStats()
				if err != nil {
					t.Fatal(err)
				}
				rst, err := rown.RemoteStats()
				if err != nil {
					t.Fatal(err)
				}
				wst := ref.Stats()
				if fst.Records != rst.Records || fst.Bytes != rst.Bytes || fst.Updates != rst.Updates ||
					fst.Records != wst.Records || fst.Bytes != wst.Bytes || fst.Updates != wst.Updates {
					t.Fatalf("%s stats at clock %d: flipped %+v, recovered %+v, reference %+v", name, clock, fst, rst, wst)
				}
			}

			// The stream goes on where the follower left it: a node holding the
			// same directory joins at the hub's heads and tails the new primary
			// from its cursors.
			c := startFlipNode(t, "node-c", thirdDir, key, nil, b.Addr())
			waitFor(t, 10*time.Second, "the third node to join the promoted primary", func() bool { return b.Stats().Hub.Followers > 0 })
			const more = 5
			for o, name := range names {
				own := fconn.Owner(name)
				if err := own.Resume(); err != nil {
					t.Fatal(err)
				}
				clock := flipped.ObservedPattern(name).Updates()
				for i := 0; i < more; i++ {
					if err := own.Update(flipBatch(o, clock+i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			waitFor(t, 10*time.Second, "the third node to apply the new primary's syncs", func() bool {
				return c.Stats().Follower.Applied >= uint64(more*len(names))
			})
			if hub, fol := b.Stats().Hub, c.Stats().Follower; hub.Snapshots != 0 || fol.Snapshots != 0 {
				t.Fatalf("a cursor at the flipped stream's head needed a snapshot transfer (served %d, applied %d): the hub does not continue the applied stream",
					hub.Snapshots, fol.Snapshots)
			}
		})
	}
}
