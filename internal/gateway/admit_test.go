package gateway

import (
	"testing"

	"dpsync/internal/telemetry"
	"dpsync/internal/wire"
)

// TestAdmitAllocations pins the reader half's cost for one admitted request:
// the decoded envelope's two allocations (the owner string, the ciphertext
// slice) and nothing else — the request rides to its shard inside the task
// by value, with no closure built to run it or to answer it. The shard queue
// here has no worker, so only the reader's own work is counted.
func TestAdmitAllocations(t *testing.T) {
	const runs = 100
	sh := &shard{tasks: make(chan task, runs+1)} // AllocsPerRun makes one warm-up call
	g := &Gateway{
		cfg:    Config{MaxInFlight: 4 * runs, MaxFrameErrors: 1},
		log:    telemetry.Discard(),
		shards: []*shard{sh},
		quit:   make(chan struct{}),
	}
	c := &clientConn{g: g, logf: func(string, ...any) {}, respCh: make(chan timedResponse, 1)}
	payload, err := wire.CodecBinary.EncodeGatewayRequest(wire.GatewayRequest{
		ID: 9, Owner: "owner-0042",
		Req: wire.Request{Type: wire.MsgUpdate, Seq: 3, Sealed: [][]byte{make([]byte, 61)}},
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
		t.Errorf("admitting one request cost %v allocations, want 2 (owner string, ciphertext slice)", allocs)
	}
	if got := len(sh.tasks); got != runs+1 {
		t.Fatalf("%d tasks reached the shard, want %d", got, runs+1)
	}
	tk := <-sh.tasks
	if tk.owner != "owner-0042" || !tk.peek || tk.run != nil || tk.reply.id != 9 || tk.reply.conn != c ||
		tk.req.Seq != 3 || len(tk.req.Sealed) != 1 {
		t.Fatalf("task = %+v", tk)
	}
}
