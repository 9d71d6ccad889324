package gateway_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dpsync/internal/gateway"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// The sync-durable shape: 500 owners, 8-record syncs of 44-byte ciphertexts,
// a history window of 16, 32 syncs in flight.
const (
	durableOwners   = 500
	durableRecords  = 8
	durableWindow   = 16
	durableInFlight = 32
)

// durableSync drives a store-backed gateway with raw, pipelined sync frames
// from a driver that allocates nothing of its own once warm — each owner's
// sealed batch is built once and re-sent at every tick, frames are encoded in
// place in a reused buffer, acks are read into another — so the process's
// heap counters measure the server.
type durableSync struct {
	fc     *wire.Conn
	reqs   []wire.GatewayRequest // one per owner; ID and Seq are set per send
	next   int                   // the next owner to sync, round robin
	id     uint64
	window chan struct{}
	acks   chan error
	want   chan int
}

func startDurableSync(tb testing.TB, reg *telemetry.Registry) *durableSync {
	tb.Helper()
	gw, key := startGateway(tb, gateway.Config{
		StoreDir: tb.TempDir(), HistoryWindow: durableWindow, SyncEpsilon: 0.001, Telemetry: reg,
	})
	sealer, err := seal.NewSealer(key)
	if err != nil {
		tb.Fatal(err)
	}
	conn := rawGatewayConn(tb, gw.Addr())
	d := &durableSync{
		fc: wire.NewConn(conn), window: make(chan struct{}, durableInFlight),
		acks: make(chan error, 1), want: make(chan int),
	}
	for i := 0; i < durableOwners; i++ {
		rs := make([]record.Record, durableRecords)
		for j := range rs {
			rs[j] = yellow(i, uint16(1+(i+j)%265))
		}
		cts, err := sealer.SealAll(rs)
		if err != nil {
			tb.Fatal(err)
		}
		sealed := make([][]byte, len(cts))
		for j, ct := range cts {
			sealed[j] = ct
		}
		d.reqs = append(d.reqs, wire.GatewayRequest{
			Owner: fmt.Sprintf("owner-%04d", i), Req: wire.Request{Type: wire.MsgSetup, Sealed: sealed},
		})
	}
	go d.readAcks()
	tb.Cleanup(func() { close(d.want) })
	d.run(tb, durableOwners) // every owner's setup
	for i := range d.reqs {
		d.reqs[i].Req.Type = wire.MsgUpdate
	}
	return d
}

// readAcks is the driver's reader: it frees a window slot per ack and reports
// once it has read as many as it was told to wait for.
func (d *durableSync) readAcks() {
	var payload []byte
	for n := range d.want {
		var err error
		for ; n > 0; n-- {
			if payload, err = d.fc.ReadFrame(payload); err != nil {
				break
			}
			resp, derr := wire.CodecBinary.DecodeGatewayResponse(payload)
			if derr != nil || !resp.Resp.OK {
				err = fmt.Errorf("sync %d: %+v %v", resp.ID, resp.Resp.Refusal, derr)
				break
			}
			<-d.window
		}
		d.acks <- err
		if err != nil {
			return
		}
	}
}

// run sends n syncs, owners round robin at their next tick, never more than
// durableInFlight unanswered, and waits for every ack. The buffer is flushed
// whenever the window is full, and at the end.
func (d *durableSync) run(tb testing.TB, n int) {
	tb.Helper()
	d.want <- n
	for i := 0; i < n; i++ {
		select {
		case d.window <- struct{}{}:
		default:
			if err := d.fc.Flush(); err != nil {
				tb.Fatal(err)
			}
			d.window <- struct{}{}
		}
		r := &d.reqs[d.next]
		d.next = (d.next + 1) % len(d.reqs)
		d.id++
		r.ID = d.id
		r.Req.Seq++
		b, err := wire.AppendGatewayRequest(d.fc.BeginFrame(), *r)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := d.fc.EndFrame(b); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.fc.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := <-d.acks; err != nil {
		tb.Fatal(err)
	}
}

// heapPerSync runs n syncs and returns the heap objects and bytes the process
// allocated per sync meanwhile.
func (d *durableSync) heapPerSync(tb testing.TB, n int) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.run(tb, n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestDurableSyncAllocations pins what one durable sync costs the server's
// heap, from the frame's admission to its ack's flush, at the sync-durable
// shape: the entry frame the reader decodes the sync into and the ciphertext
// headers that point into it, plus the amortised growth of what a sync
// leaves behind (the owner's transcript, its join keys, the spill's refs) —
// at most 3 objects; a payload per frame and a closure per append would make
// it about 8. And the stage histograms, whose boundaries share clock reads,
// see every sync exactly once each.
func TestDurableSyncAllocations(t *testing.T) {
	reg := telemetry.New()
	d := startDurableSync(t, reg)
	d.run(t, 16*durableOwners) // transcripts, tails and spill segments warm
	allocs, bytes := d.heapPerSync(t, 64*durableOwners)
	t.Logf("%.2f heap objects, %.0f B a durable sync", allocs, bytes)
	if allocs > 3 {
		t.Errorf("a durable sync allocated %.2f heap objects, want at most 3", allocs)
	}
	syncs := int64((1 + 16 + 64) * durableOwners)
	counts := map[string]int64{}
	// An ack is observed just after the flush that carried it returns, which
	// the driver's last read may precede: wait for the writer.
	for deadline := time.Now().Add(5 * time.Second); counts["gateway_sync_ack_us"] < syncs && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, s := range reg.Snapshot() {
			if s.Hist != nil {
				counts[s.Name] = s.Hist.Count
			}
		}
	}
	for _, stage := range []string{"gateway_sync_queue_wait_us", "gateway_sync_apply_us", "gateway_sync_commit_us", "gateway_sync_ack_us"} {
		if counts[stage] != syncs {
			t.Errorf("%s observed %d times for %d syncs", stage, counts[stage], syncs)
		}
	}
}

// BenchmarkDurableSync is the durable sync path's rung: pipelined raw frames
// at the sync-durable shape against a store-backed gateway with telemetry on,
// through reader, shard worker, WAL group commit, spill and rotation, and
// writer. ns/sync is wall time per acknowledged sync on this host; allocs/sync
// and B/sync are the process's heap counters per sync, which the driver adds
// nothing to.
func BenchmarkDurableSync(b *testing.B) {
	d := startDurableSync(b, telemetry.New())
	d.run(b, 4*durableOwners)
	b.ResetTimer()
	start := time.Now()
	allocs, bytes := d.heapPerSync(b, b.N)
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N), "ns/sync")
	b.ReportMetric(allocs, "allocs/sync")
	b.ReportMetric(bytes, "B/sync")
}
