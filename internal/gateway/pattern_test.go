package gateway_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/telemetry"
)

// patternRun drives one gateway through a fixed update pattern and query
// sequence — owners, ticks and volumes drawn from a seed both runs share —
// whose records are all real (zones, fares and pickup times drawn from a
// second seed) or all dummy, and returns its admin-plane scrape, wall-clock
// histograms reduced to their counts, and, for a durable run, the size of
// every file under its store directory.
func patternRun(t *testing.T, real, durable bool) (prom, varz string, files map[string]int64) {
	t.Helper()
	reg := telemetry.New()
	cfg := gateway.Config{Telemetry: reg, SyncEpsilon: 0.25}
	if durable {
		cfg.StoreDir, cfg.SnapshotEvery, cfg.HistoryWindow = t.TempDir(), 16, 4
	}
	gw, key := startGateway(t, cfg)
	conn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	pattern, data := rand.New(rand.NewPCG(17, 0xc)), rand.New(rand.NewPCG(99, 0xc))
	batch := func(tick int) []record.Record {
		rs := make([]record.Record, pattern.IntN(9))
		for i := range rs {
			p := record.YellowCab
			if pattern.IntN(3) == 0 {
				p = record.GreenTaxi
			}
			rs[i] = record.NewDummy(p)
			if real {
				rs[i] = record.Record{
					PickupTime: record.Tick(tick - data.IntN(3)),
					PickupID:   uint16(1 + data.IntN(record.NumLocations)),
					Provider:   p,
					FareCents:  uint32(data.IntN(record.MaxFareCents + 1)),
				}
			}
		}
		return rs
	}
	for o := range 6 {
		own := conn.Owner(fmt.Sprintf("owner-%d", o))
		if err := own.Setup(batch(0)); err != nil {
			t.Fatal(err)
		}
		for tick := 1; tick <= 40; tick++ {
			if pattern.IntN(2) == 0 {
				continue
			}
			if err := own.Update(batch(tick)); err != nil {
				t.Fatal(err)
			}
			if tick%10 == 0 {
				for _, q := range []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4(), query.Q1()} {
					if _, _, err := own.Query(q); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	// A response's ack latency is observed once its frame is written, so the
	// last one may land after the client has read it: scrape once the
	// connection, writer included, is gone.
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if live, _ := gw.Live(); live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the gateway never saw the connection close")
		}
	}
	samples := reg.Snapshot()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		switch {
		case !wallClock(s.Name):
		case s.Hist != nil:
			samples[i].Hist = &telemetry.HistogramData{Counts: []int64{s.Hist.Count}, Count: s.Hist.Count}
		default:
			samples[i].Value = 0
		}
	}
	var pb, vb bytes.Buffer
	if err := telemetry.WritePrometheus(&pb, samples); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteVarz(&vb, samples); err != nil {
		t.Fatal(err)
	}
	if durable {
		files = map[string]int64{}
		err := filepath.WalkDir(cfg.StoreDir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(cfg.StoreDir, path)
			files[rel] = info.Size()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pb.String(), vb.String(), files
}

// wallClock reports whether a series measures time — a histogram in µs or
// ms, a counter of ns or µs spent — so that two runs of one pattern agree on
// a histogram's count and on nothing else of it.
func wallClock(name string) bool {
	base, _, _ := strings.Cut(name, "{")
	base = strings.TrimSuffix(base, "_total")
	return strings.HasSuffix(base, "_ns") || strings.HasSuffix(base, "_us") || strings.HasSuffix(base, "_ms")
}

// TestPatternEqualRunsScrapeEqual is the deterministic floor under the
// gateway's side channels: two gateways that take the same update pattern
// and the same queries, one fed only real records and one only dummies, must
// publish equal /metrics and /varz documents — every series, a wall-clock
// histogram by its count — and, durable, leave files of equal sizes.
func TestPatternEqualRunsScrapeEqual(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			rp, rv, rf := patternRun(t, true, durable)
			dp, dv, df := patternRun(t, false, durable)
			if rp != dp {
				t.Errorf("/metrics differs between all-real and all-dummy runs:\n%s", lineDiff(rp, dp))
			}
			if rv != dv {
				t.Errorf("/varz differs between all-real and all-dummy runs:\n%s\n---\n%s", rv, dv)
			}
			spilled := false
			for name, size := range rf {
				spilled = spilled || strings.HasPrefix(name, "hist-")
				if df[name] != size {
					t.Errorf("%s: %d B all real, %d B all dummy", name, size, df[name])
				}
			}
			if durable && !spilled {
				t.Fatalf("the durable run spilled no history (files %v): the sizes compared are not the ciphertexts'", rf)
			}
			for name := range df {
				if _, ok := rf[name]; !ok {
					t.Errorf("%s exists only in the all-dummy run", name)
				}
			}
		})
	}
}

// lineDiff lists the lines of a and b that differ, position by position.
func lineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var out strings.Builder
	for i := range max(len(al), len(bl)) {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			fmt.Fprintf(&out, "- %s\n+ %s\n", x, y)
		}
	}
	return out.String()
}
