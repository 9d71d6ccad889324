package gateway

import (
	"bytes"
	"testing"

	"dpsync/internal/store"
	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// TestAdmitAllocations pins the reader half's cost for one admitted sync: the
// entry frame the sync is decoded into and the ciphertext headers that point
// into it — the two allocations its batch carries to the WAL, the history
// tail and the hub — and nothing else, whether the frame names its owner
// inline or by the handle the first inline frame bound. The payload is the
// connection's one reused buffer and nothing in the task points into it; the
// owner's name is allocated once per connection, when it binds; the request
// rides to its shard inside the task by value, with no closure built to run
// it or to answer it. The shard queue here has no worker, so only the
// reader's own work is counted.
func TestAdmitAllocations(t *testing.T) {
	const runs = 100
	sh := &shard{tasks: make(chan task, runs+1)} // AllocsPerRun makes one warm-up call
	g := &Gateway{
		cfg:    Config{MaxInFlight: 4 * runs},
		log:    telemetry.Discard(),
		shards: []*shard{sh},
		quit:   make(chan struct{}),
	}
	c := &clientConn{g: g, logf: func(string, ...any) {}, respCh: make(chan timedResponse, 1)}
	ct := bytes.Repeat([]byte{0xA5}, 61)
	var tk task
	var payload []byte
	for _, named := range []struct {
		name   string
		owner  string
		handle uint64
	}{{"inline", "owner-0042", 0}, {"bound", "", 1}} {
		var err error
		payload, err = wire.CodecBinary.EncodeGatewayRequest(wire.GatewayRequest{
			ID: 9, Owner: named.owner, Handle: named.handle,
			Req: wire.Request{Type: wire.MsgUpdate, Seq: 3, Sealed: [][]byte{ct}},
		})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(runs, func() {
			if !c.admitFrame(payload) {
				t.Fatal("frame refused")
			}
		})
		if allocs != 2 {
			t.Errorf("admitting one %s sync cost %v allocations, want 2 (entry frame, ciphertext headers)", named.name, allocs)
		}
		if got := len(sh.tasks); got != runs+1 {
			t.Fatalf("%s: %d tasks reached the shard, want %d", named.name, got, runs+1)
		}
		tk = <-sh.tasks
		for len(sh.tasks) > 0 {
			if next := <-sh.tasks; next.owner != tk.owner {
				t.Fatalf("%s: tasks for %q and %q", named.name, tk.owner, next.owner)
			}
		}
		if len(c.bound) != 1 {
			t.Fatalf("%s: %d owners bound, want 1", named.name, len(c.bound))
		}
	}
	if tk.owner != "owner-0042" || !tk.peek || tk.run != nil || tk.reply.id != 9 || tk.reply.conn != c ||
		tk.req.Seq != 3 || tk.req.Sealed != nil || tk.bt.Tick != 3 || tk.bt.Setup || len(tk.bt.Sealed) != 1 {
		t.Fatalf("task = %+v", tk)
	}
	// The batch is the entry SyncEntry builds, and no byte of it is the
	// payload's: the reader reads the next frame over the same buffer.
	want, err := store.SyncEntry("owner-0042", 3, false, g.chargeFor(false), len(ct), ct)
	if err != nil {
		t.Fatal(err)
	}
	wantFrame, _ := want.Frame()
	frame, err := store.Entry{Owner: tk.owner, Batch: tk.bt}.Frame()
	if err != nil || !bytes.Equal(frame, wantFrame) {
		t.Fatalf("the task's batch does not carry the sync's entry frame (err %v)", err)
	}
	clear(payload)
	if !bytes.Equal(tk.bt.Sealed[0], ct) {
		t.Fatal("the task's ciphertext still points into the payload")
	}
}
