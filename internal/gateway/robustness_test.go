package gateway_test

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/core"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/faultnet"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/refdb"
	"dpsync/internal/seal"
	"dpsync/internal/store"
	"dpsync/internal/strategy"
	"dpsync/internal/wire"
)

// fleetSpecs builds the three-strategy owner mix with sources derived from
// seed, so every run of the same seed drives bit-identical traces.
func fleetSpecs(t *testing.T, seed int64) []struct {
	name string
	mk   func() strategy.Strategy
} {
	t.Helper()
	mkTimer := func() strategy.Strategy {
		s, err := strategy.NewTimer(strategy.TimerConfig{
			Epsilon: 0.5, Period: 20, FlushInterval: 100, FlushSize: 5,
			Source: dp.NewSeededSource(uint64(seed)*97 + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkANT := func() strategy.Strategy {
		s, err := strategy.NewANT(strategy.ANTConfig{
			Epsilon: 0.5, Threshold: 8, FlushInterval: 100, FlushSize: 5,
			Source: dp.NewSeededSource(uint64(seed)*97 + 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []struct {
		name string
		mk   func() strategy.Strategy
	}{
		{"owner-sur", func() strategy.Strategy { return strategy.NewSUR() }},
		{"owner-timer", mkTimer},
		{"owner-ant", mkANT},
	}
}

// TestFaultMatrixDifferential is the fleet-robustness acceptance test: under
// a seeded matrix of transport faults (resets, torn mid-frame writes,
// duplicated frame delivery) plus connection churn, every owner's transcript
// AND ε ledger must come out bit-identical to an uninterrupted run — the
// reconnect/replay/resume machinery must be invisible to the privacy
// accounting. The transcript reference is the in-process single-owner
// internal/refdb; the ledger reference is a clean gateway run of the same
// traces.
func TestFaultMatrixDifferential(t *testing.T) {
	const ticks = 150
	for _, seed := range []int64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			key, err := seal.NewRandomKey()
			if err != nil {
				t.Fatal(err)
			}

			drive := func(t *testing.T, db edb.Database, strat strategy.Strategy, phase int) {
				t.Helper()
				owner, err := core.New(core.Config{Strategy: strat, Database: db})
				if err != nil {
					t.Fatal(err)
				}
				if err := owner.Setup([]record.Record{yellow(0, 10), yellow(0, 20)}); err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= ticks; i++ {
					var terr error
					if (i+phase)%3 == 0 {
						terr = owner.Tick(yellow(i, uint16(i%record.NumLocations+1)))
					} else {
						terr = owner.Tick()
					}
					if terr != nil {
						t.Fatal(terr)
					}
				}
			}

			// Reference 1: each owner alone against the single-owner reference
			// — the transcript ground truth.
			specs := fleetSpecs(t, seed)
			wantPatterns := map[string]string{}
			for i, spec := range specs {
				ref, err := refdb.New(key)
				if err != nil {
					t.Fatal(err)
				}
				drive(t, ref, spec.mk(), i)
				wantPatterns[spec.name] = ref.ObservedPattern().String()
			}

			// Reference 2: the same traces through a clean (fault-free)
			// gateway — the ε-ledger ground truth.
			specs = fleetSpecs(t, seed)
			refGW, _ := startGateway(t, gateway.Config{Key: key, Shards: 2, SyncEpsilon: 0.5})
			refConn, err := client.DialGateway(refGW.Addr(), key)
			if err != nil {
				t.Fatal(err)
			}
			defer refConn.Close()
			for i, spec := range specs {
				drive(t, refConn.Owner(spec.name), spec.mk(), i)
			}
			wantLedgers := map[string]*dp.Budget{}
			for _, spec := range specs {
				if got := refGW.ObservedPattern(spec.name).String(); got != wantPatterns[spec.name] {
					t.Fatalf("clean gateway reference diverged from single-owner reference for %s", spec.name)
				}
				wantLedgers[spec.name] = refGW.ObservedLedger(spec.name)
			}

			// Subject: the same traces through a gateway whose transport runs
			// the seeded fault schedule, with connection churn layered on top.
			specs = fleetSpecs(t, seed)
			gw, _ := startGateway(t, gateway.Config{Key: key, Shards: 2, SyncEpsilon: 0.5})
			inj := faultnet.New(faultnet.Config{
				Seed: seed, Budget: 12,
				Reset: 0.05, Truncate: 0.04, Stall: 0.02, Duplicate: 0.20,
				MaxStall: 2 * time.Millisecond,
			})
			conn, err := client.DialGateway(gw.Addr(), key,
				client.WithDialer(inj.Dialer(nil)), client.WithReconnect(0))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			churnStop := make(chan struct{})
			churnDone := make(chan struct{})
			go func() {
				defer close(churnDone)
				tick := time.NewTicker(15 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-churnStop:
						return
					case <-tick.C:
						conn.Drop()
					}
				}
			}()
			for i, spec := range specs {
				drive(t, conn.Owner(spec.name), spec.mk(), i)
			}
			close(churnStop)
			<-churnDone

			reconnects, _ := conn.ReconnectStats()
			if reconnects == 0 && inj.Counts().Total() == 0 {
				t.Fatalf("fault matrix injected nothing: the run proved nothing")
			}
			for _, spec := range specs {
				if got := gw.ObservedPattern(spec.name).String(); got != wantPatterns[spec.name] {
					t.Errorf("%s transcript diverged under faults (%d reconnects, faults %+v):\n got: %s\nwant: %s",
						spec.name, reconnects, inj.Counts(), got, wantPatterns[spec.name])
				}
				if got := gw.ObservedLedger(spec.name); !got.Equal(wantLedgers[spec.name]) {
					t.Errorf("%s ε ledger diverged under faults: a retried sync was double-charged or lost:\n got: %s\nwant: %s",
						spec.name, got.Describe(), wantLedgers[spec.name].Describe())
				}
			}
		})
	}
}

// waitUntil polls cond until it holds; the test fails if it does not within
// the bound.
func waitUntil(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(within); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s (waited %v)", what, within)
		}
	}
}

// rawGatewayConn dials the gateway and completes the binary-codec hello,
// returning the bare transport for protocol-level tests.
func rawGatewayConn(t testing.TB, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := wire.WriteHello(conn, wire.CodecBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHelloAck(conn); err != nil {
		t.Fatal(err)
	}
	return conn
}

// roundTripRaw writes one encoded envelope and reads one response envelope.
func roundTripRaw(t *testing.T, conn net.Conn, frame []byte) wire.GatewayResponse {
	t.Helper()
	if err := wire.WriteFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.CodecBinary.DecodeGatewayResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDuplicateRetransmitNotRecharged pins the idempotency half of the
// resume protocol at the wire level: retransmitting the byte-identical
// frame of an already-committed sync must be acked OK without appending a
// transcript event or re-charging the ε ledger, and the sequence must stay
// open for the next sync.
func TestDuplicateRetransmitNotRecharged(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{SyncEpsilon: 0.5})
	sealer, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	sealed := func(rs ...record.Record) [][]byte {
		cts, err := sealer.SealAll(rs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(cts))
		for i, ct := range cts {
			out[i] = ct
		}
		return out
	}
	conn := rawGatewayConn(t, gw.Addr())
	const owner = "owner-raw"

	encode := func(id uint64, typ wire.MsgType, seq uint64, payload [][]byte) []byte {
		b, err := wire.CodecBinary.EncodeGatewayRequest(wire.GatewayRequest{
			ID: id, Owner: owner,
			Req: wire.Request{Type: typ, Seq: seq, Sealed: payload},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	setup := encode(1, wire.MsgSetup, 1, sealed(yellow(0, 10)))
	if resp := roundTripRaw(t, conn, setup); !resp.Resp.OK {
		t.Fatalf("setup refused: %+v", resp.Resp)
	}
	update := encode(2, wire.MsgUpdate, 2, sealed(yellow(1, 20), record.NewDummy(record.YellowCab)))
	if resp := roundTripRaw(t, conn, update); !resp.Resp.OK {
		t.Fatalf("update refused: %+v", resp.Resp)
	}

	ledgerBefore := gw.ObservedLedger(owner)
	patternBefore := gw.ObservedPattern(owner).String()

	// The duplicated retransmit: same bytes, same seq. Must ack, not apply.
	if resp := roundTripRaw(t, conn, update); !resp.Resp.OK {
		t.Fatalf("retransmit of committed sync refused: %+v", resp.Resp)
	}
	if ledgerAfter := gw.ObservedLedger(owner); !ledgerAfter.Equal(ledgerBefore) {
		t.Fatalf("retransmit re-charged the ε ledger:\n got: %s\nwant: %s", ledgerAfter.Describe(), ledgerBefore.Describe())
	}
	if got := gw.ObservedPattern(owner).String(); got != patternBefore {
		t.Fatalf("retransmit appended a transcript event:\n got: %s\nwant: %s", got, patternBefore)
	}

	// A stale retransmit further back is equally harmless.
	if resp := roundTripRaw(t, conn, setup); !resp.Resp.OK {
		t.Fatalf("stale retransmit refused: %+v", resp.Resp)
	}
	// A gap is refused without touching state.
	gap := encode(3, wire.MsgUpdate, 9, sealed(yellow(2, 30)))
	if resp := roundTripRaw(t, conn, gap); resp.Resp.OK || *resp.Resp.Refusal != (wire.Refusal{Code: wire.CodeSeqGap, Cursor: 3}) {
		t.Fatalf("gap sync: %+v, want the seq-gap refusal expecting seq 3", resp.Resp)
	}
	// An unsequenced sync (seq 0) is a bad request. It is refused before the
	// duplicate rule — under which 0 ≤ clock would ack it as a retransmit
	// without applying it — and before a setup could allocate a namespace;
	// clock, ledger and transcript stay where they were.
	for _, typ := range []wire.MsgType{wire.MsgUpdate, wire.MsgSetup} {
		unsequenced := encode(6, typ, 0, sealed(yellow(2, 30)))
		if resp := roundTripRaw(t, conn, unsequenced); resp.Resp.OK || resp.Resp.Refusal.Code != wire.CodeBadRequest {
			t.Fatalf("unsequenced %s: %+v, want the bad-request refusal", typ, resp.Resp)
		}
	}
	if frame, err := wire.CodecBinary.EncodeGatewayRequest(wire.GatewayRequest{
		ID: 7, Owner: "owner-unsequenced", Req: wire.Request{Type: wire.MsgSetup, Sealed: sealed(yellow(0, 10))},
	}); err != nil {
		t.Fatal(err)
	} else if resp := roundTripRaw(t, conn, frame); resp.Resp.OK || gw.Owners() != 1 {
		t.Fatalf("unsequenced setup of a new owner: %+v, %d namespaces", resp.Resp, gw.Owners())
	}
	if ledger := gw.ObservedLedger(owner); !ledger.Equal(ledgerBefore) {
		t.Fatalf("an unsequenced sync touched the ε ledger:\n got: %s\nwant: %s", ledger.Describe(), ledgerBefore.Describe())
	}
	if got := gw.ObservedPattern(owner).String(); got != patternBefore {
		t.Fatalf("an unsequenced sync appended a transcript event:\n got: %s\nwant: %s", got, patternBefore)
	}
	if resp := roundTripRaw(t, conn, encode(8, wire.MsgResume, 0, nil)); resp.Resp.Resume == nil || resp.Resp.Resume.Clock != 2 {
		t.Fatalf("resume after the unsequenced syncs = %+v, want clock 2", resp.Resp)
	}
	// The sequence is still open at the right place.
	next := encode(4, wire.MsgUpdate, 3, sealed(yellow(2, 30)))
	if resp := roundTripRaw(t, conn, next); !resp.Resp.OK {
		t.Fatalf("next in-order sync refused after retransmits: %+v", resp.Resp)
	}
	if got := gw.ObservedPattern(owner).Updates(); got != 3 {
		t.Fatalf("transcript has %d updates, want 3 (setup + 2 syncs)", got)
	}

	// And the resume clock reports the committed position.
	resume := encode(5, wire.MsgResume, 0, nil)
	resp := roundTripRaw(t, conn, resume)
	if !resp.Resp.OK || resp.Resp.Resume == nil || resp.Resp.Resume.Clock != 3 {
		t.Fatalf("resume after 3 syncs = %+v", resp.Resp)
	}
}

// TestSlowTenantShedNotStall pins per-tenant fairness: a tenant that floods
// requests and never reads responses must be shed (typed backpressure) and
// eventually severed, while an unrelated tenant on the same shard keeps
// bounded latency throughout.
func TestSlowTenantShedNotStall(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{Shards: 1, MaxInFlight: 32})

	hog := rawGatewayConn(t, gw.Addr())
	req, err := wire.CodecBinary.EncodeGatewayRequest(wire.GatewayRequest{
		ID: 1, Owner: "hog", Req: wire.Request{Type: wire.MsgStats},
	})
	if err != nil {
		t.Fatal(err)
	}
	var hogDead atomic.Bool
	go func() {
		// Flood without ever reading a response. The gateway must shed past
		// the in-flight cap and sever past the headroom — never letting the
		// reply queue stall the shard worker.
		for i := 0; i < 1_000_000; i++ {
			_ = hog.SetWriteDeadline(time.Now().Add(2 * time.Second))
			if err := wire.WriteFrame(hog, req); err != nil {
				hogDead.Store(true)
				return
			}
		}
	}()

	victimConn, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer victimConn.Close()
	victim := victimConn.Owner("victim")
	if err := victim.Setup([]record.Record{yellow(0, 10)}); err != nil {
		t.Fatal(err)
	}
	var worst time.Duration
	for i := 1; i <= 200; i++ {
		start := time.Now()
		if err := victim.Update([]record.Record{yellow(i, uint16(i%record.NumLocations+1))}); err != nil {
			t.Fatalf("victim update %d under slow-tenant flood: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	if worst > 2*time.Second {
		t.Fatalf("victim worst-case sync took %v: slow tenant stalled the shard", worst)
	}

	waitUntil(t, 10*time.Second, "flooding tenant was never shed", func() bool { return gw.Sheds() > 0 })
	waitUntil(t, 10*time.Second, "flooding tenant was never severed", hogDead.Load)
}

// TestCloseDrainDeadline pins the Gateway.Close regression: with live
// connections that never drain, Close must sever them at the drain deadline
// and return, instead of waiting on them indefinitely.
func TestCloseDrainDeadline(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New("127.0.0.1:0", gateway.Config{
		Key: key, DrainTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()

	// A connected client that sends nothing and never hangs up: its reader
	// goroutine is parked in ReadFrame, far inside the idle deadline.
	conn := rawGatewayConn(t, gw.Addr())

	start := time.Now()
	if err := gw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v despite the %v drain deadline", elapsed, 200*time.Millisecond)
	}
	// The straggler was severed, not forgotten.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatalf("straggler connection still alive after Close")
	}
}

// TestMalformedFrameFloodSevered pins the bounded handling of protocol
// violations: every malformed frame — a zero-length one included — is
// answered with its own error response, and at the MaxFrameErrors-th the
// gateway hangs up instead of serving the peer forever. Other clients are
// unaffected throughout.
func TestMalformedFrameFloodSevered(t *testing.T) {
	gw, key := startGateway(t, gateway.Config{})
	conn := rawGatewayConn(t, gw.Addr())
	for i, frame := range malformedFrames() {
		resp := roundTripRaw(t, conn, frame)
		if resp.Resp.OK || resp.Resp.Refusal.Code != wire.CodeBadRequest {
			t.Fatalf("frame %d: expected a bad-request refusal, got %+v", i, resp.Resp)
		}
		if frame == nil && !strings.Contains(resp.Resp.Refusal.Detail, "empty gateway request frame") {
			t.Errorf("zero-length frame: refusal = %v", resp.Resp.Refusal)
		}
	}
	// The bound is reached: the gateway must now have closed the connection.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("connection still serving after the malformed-frame bound")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("gateway kept the flooding connection open")
	}
	good, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.Owner("bystander").Setup(nil); err != nil {
		t.Fatalf("gateway unusable after a malformed-frame flood: %v", err)
	}
}

// malformedFrames is gateway.MaxFrameErrors frames no codec parses,
// cycling through garbage, a zero-length frame and a lone 0xFF.
func malformedFrames() [][]byte {
	kinds := [][]byte{[]byte("{garbage"), nil, {0xFF}}
	frames := make([][]byte, gateway.MaxFrameErrors)
	for i := range frames {
		frames[i] = kinds[i%len(kinds)]
	}
	return frames
}

// stallerStore is the store of the owner a stalled reader asks Q2 of: 65,536
// records, the fewest whose answer travels as 4-byte groups.
func stallerStore() []record.Record {
	rs := make([]record.Record, 1<<16)
	for i := range rs {
		rs[i] = yellow(i, uint16(1+i%record.NumLocations))
	}
	return rs
}

// TestWriteStallSevered pins the write-stall hardening: a peer that sends
// requests but never reads a response backs the gateway's writes up until
// one blocks; Config.WriteTimeout must then sever the connection, and Close
// must return promptly instead of waiting behind the dead peer. The stall
// comes from the gateway's write deadline alone — the peer sets no deadline
// of its own, and its burst stays under the in-flight cap (asserted: no shed
// ever happens), so nothing else can end the connection. Severance is
// observed on the gateway (its live-connection count), not inferred from
// how the kernel reports the reset to the peer.
func TestWriteStallSevered(t *testing.T) {
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	const burst = 8192
	gw, err := gateway.New("127.0.0.1:0", gateway.Config{
		Key: key, Shards: 1, WriteTimeout: 200 * time.Millisecond, MaxInFlight: 2 * burst,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	defer gw.Close()

	setup, err := client.DialGateway(gw.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Owner("staller").Setup(stallerStore()); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	conn := rawGatewayConn(t, gw.Addr())
	// A group-count answer from the staller's 65,536 records is 4-byte
	// groups, ~1 KiB, so the burst owes ~9 MiB of responses: twice what the
	// kernel buffers for a peer that never reads (the send buffer's
	// autotuning cap, ~4 MiB), well inside the in-flight cap. The peer's
	// socket options stay untouched: shrinking its receive
	// buffer mid-connection shrinks an already advertised window, after
	// which it discards the gateway's ACKs as out of window and the request
	// direction wedges before the burst is delivered.
	spec := wire.FromQuery(query.Q2())
	req, err := wire.CodecBinary.EncodeGatewayRequest(wire.GatewayRequest{
		ID: 1, Owner: "staller", Req: wire.Request{Type: wire.MsgQuery, Query: &spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Ends on its own, or when the cleanup closes conn under it.
		for i := 0; i < burst && wire.WriteFrame(conn, req) == nil; i++ {
		}
	}()
	waitUntil(t, 30*time.Second, "gateway never severed a peer that stopped reading responses", func() bool {
		conns, _ := gw.Live()
		return conns == 0
	})
	if n := gw.Sheds(); n != 0 {
		t.Fatalf("%d backpressure sheds: the in-flight cap, not the write deadline, ended the connection", n)
	}
	start := time.Now()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v behind a stalled writer", d)
	}
}

// startReplica brings a replica-role gateway up over a fresh directory (on
// cfg.Listener when the caller brings one).
func startReplica(t testing.TB, cfg gateway.Config) (*gateway.Gateway, []byte) {
	t.Helper()
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Key, cfg.StoreDir = key, t.TempDir()
	gw, err := gateway.NewReplica("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	t.Cleanup(func() { _ = gw.Close() })
	return gw, key
}

// replicate ships owner's sync at tick (1 is the setup) to a replica, as the
// next live entry of a one-shard stream.
func replicate(t testing.TB, gw *gateway.Gateway, key []byte, owner string, tick uint64, rs ...record.Record) {
	t.Helper()
	sealer, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	cts, err := sealer.SealAll(rs)
	if err != nil {
		t.Fatal(err)
	}
	sealed := make([][]byte, len(cts))
	for i, ct := range cts {
		sealed[i] = ct
	}
	name := "m_update"
	if tick == 1 {
		name = "m_setup"
	}
	frame, err := store.EncodeEntryFrame(store.Entry{Owner: owner, Batch: store.Batch{
		Tick: tick, Setup: tick == 1, Sealed: sealed, Charge: store.Charge{Name: name, Rule: dp.Sequential},
	}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	if !gw.Replicate(0, gw.ShardStatuses()[0].Applied+1, frame, func(_ bool, err error) { done <- err }) {
		t.Fatal("replica shut down")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// rawReadConn dials addr and completes the read-only ("DPSQ") hello.
func rawReadConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := wire.WriteReadHello(conn, wire.CodecBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHelloAck(conn); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestReplicaInheritsDefences runs this file's hostile-peer cases against a
// replica-role gateway over read-only connections — the only kind it accepts.
// A follower is served by the connection loop a primary is, so it is bounded
// the same way: a peer sending malformed frames is hung up on at
// MaxFrameErrors, a peer past MaxInFlight is shed with typed backpressure and then severed, a peer
// that stops reading is severed at the write deadline, Close is bounded by
// DrainTimeout — and a writer or a would-be follower still gets the refusal
// byte, so client.DialGateway moves on to its next address. The benign
// request is a stats read of an owner the replica applied a setup of.
func TestReplicaInheritsDefences(t *testing.T) {
	stats, err := wire.CodecBinary.EncodeGatewayRequest(wire.GatewayRequest{
		ID: 1, Owner: "reader", Req: wire.Request{Type: wire.MsgStats},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		cfg  gateway.Config
		run  func(t *testing.T, gw *gateway.Gateway, key []byte)
	}{
		{"malformed frames end the connection", gateway.Config{}, func(t *testing.T, gw *gateway.Gateway, key []byte) {
			replicate(t, gw, key, "reader", 1, yellow(0, 60))
			conn := rawReadConn(t, gw.Addr())
			for i, frame := range malformedFrames() {
				if resp := roundTripRaw(t, conn, frame); resp.Resp.OK || resp.Resp.Refusal.Code != wire.CodeBadRequest {
					t.Fatalf("frame %d: expected a bad-request refusal, got %+v", i, resp.Resp)
				}
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := wire.ReadFrame(conn); err == nil {
				t.Fatal("connection still serving after the malformed-frame bound")
			} else if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("replica kept the flooding connection open")
			}
			if resp := roundTripRaw(t, rawReadConn(t, gw.Addr()), stats); !resp.Resp.OK {
				t.Fatalf("replica unusable after a malformed-frame flood: %+v", resp.Resp)
			}
		}},
		{"requests past the in-flight cap are shed, then severed", gateway.Config{Shards: 1, MaxInFlight: 32}, func(t *testing.T, gw *gateway.Gateway, key []byte) {
			replicate(t, gw, key, "reader", 1, yellow(0, 60))
			hog := rawReadConn(t, gw.Addr())
			var hogDead atomic.Bool
			go func() { // floods without ever reading a response
				for i := 0; i < 1_000_000; i++ {
					_ = hog.SetWriteDeadline(time.Now().Add(2 * time.Second))
					if err := wire.WriteFrame(hog, stats); err != nil {
						hogDead.Store(true)
						return
					}
				}
			}()
			bystander := rawReadConn(t, gw.Addr())
			for i := 0; i < 200; i++ {
				start := time.Now()
				if resp := roundTripRaw(t, bystander, stats); !resp.Resp.OK {
					t.Fatalf("bystander read %d under the flood: %+v", i, resp.Resp)
				}
				if d := time.Since(start); d > 2*time.Second {
					t.Fatalf("bystander read took %v: the flooding reader stalled the shard", d)
				}
			}
			waitUntil(t, 10*time.Second, "flooding reader was never shed", func() bool { return gw.Sheds() > 0 })
			waitUntil(t, 10*time.Second, "flooding reader was never severed", hogDead.Load)
		}},
		{"a stalled reader is severed at the write deadline", gateway.Config{Shards: 1, WriteTimeout: 200 * time.Millisecond, MaxInFlight: 2 * 8192}, func(t *testing.T, gw *gateway.Gateway, key []byte) {
			replicate(t, gw, key, "staller", 1, stallerStore()...)
			spec := wire.FromQuery(query.Q2())
			req, err := wire.CodecBinary.EncodeGatewayRequest(wire.GatewayRequest{
				ID: 1, Owner: "staller", Req: wire.Request{Type: wire.MsgQuery, Query: &spec},
			})
			if err != nil {
				t.Fatal(err)
			}
			conn := rawReadConn(t, gw.Addr())
			go func() { // ~9 MiB of answers owed to a peer that never reads
				for i := 0; i < 8192 && wire.WriteFrame(conn, req) == nil; i++ {
				}
			}()
			waitUntil(t, 30*time.Second, "replica never severed a peer that stopped reading responses", func() bool {
				conns, _ := gw.Live()
				return conns == 0
			})
			if n := gw.Sheds(); n != 0 {
				t.Fatalf("%d backpressure sheds: the in-flight cap, not the write deadline, ended the connection", n)
			}
		}},
		{"Close is bounded by the drain deadline", gateway.Config{DrainTimeout: 200 * time.Millisecond}, func(t *testing.T, gw *gateway.Gateway, _ []byte) {
			conn := rawReadConn(t, gw.Addr()) // sends nothing, never hangs up
			start := time.Now()
			if err := gw.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("Close took %v despite the 200ms drain deadline", elapsed)
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := wire.ReadFrame(conn); err == nil {
				t.Fatal("straggler connection still alive after Close")
			}
		}},
		{"writers and followers are refused by role", gateway.Config{}, func(t *testing.T, gw *gateway.Gateway, key []byte) {
			conn, err := net.Dial("tcp", gw.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := wire.WriteReplHello(conn, wire.ReplVersion); err != nil {
				t.Fatal(err)
			}
			if err := wire.ReadReplHelloAck(conn); !errors.Is(err, wire.ErrNotPrimary) {
				t.Fatalf("replication hello to a replica: %v, want the not-primary refusal", err)
			}
			// A write hello gets the same byte: the client tries its next address.
			primary, _ := startGateway(t, gateway.Config{Key: key})
			wconn, err := client.DialGateway(gw.Addr(), key, client.WithAddrs(primary.Addr()))
			if err != nil {
				t.Fatalf("client did not move past the replica: %v", err)
			}
			defer wconn.Close()
			if err := wconn.Owner("writer").Setup([]record.Record{yellow(0, 10)}); err != nil {
				t.Fatal(err)
			}
			if primary.Owners() != 1 || gw.Owners() != 0 {
				t.Fatalf("the write landed on the wrong node: primary %d owners, replica %d", primary.Owners(), gw.Owners())
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			gw, key := startReplica(t, row.cfg)
			row.run(t, gw, key)
		})
	}
}
