package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestReadAnyHelloDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, CodecBinary); err != nil {
		t.Fatal(err)
	}
	kind, v, err := ReadAnyHello(&buf)
	if err != nil || kind != HelloClient || Codec(v) != CodecBinary {
		t.Fatalf("client hello: kind=%v v=%d err=%v", kind, v, err)
	}
	buf.Reset()
	if err := WriteReplHello(&buf, ReplVersion); err != nil {
		t.Fatal(err)
	}
	kind, v, err = ReadAnyHello(&buf)
	if err != nil || kind != HelloRepl || v != ReplVersion {
		t.Fatalf("repl hello: kind=%v v=%d err=%v", kind, v, err)
	}
	if _, _, err := ReadAnyHello(bytes.NewReader([]byte("XXXXX"))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: err=%v, want ErrBadFrame", err)
	}
}

func TestHelloRefusal(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHelloRefused(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHelloAck(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("client ack: err=%v, want ErrNotPrimary", err)
	}
	if err := ReadReplHelloAck(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("repl ack: err=%v, want ErrNotPrimary", err)
	}
	buf.Reset()
	if err := WriteReplHelloAck(&buf, ReplVersion); err != nil {
		t.Fatal(err)
	}
	if err := ReadReplHelloAck(&buf); err != nil {
		t.Fatalf("repl ack: err=%v", err)
	}
	// No negotiation: an ack naming any version but ours — the old v1
	// included — is a hard error.
	for _, v := range []byte{0, 1, ReplVersion + 1, 99} {
		if err := ReadReplHelloAck(bytes.NewReader([]byte{v})); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("version %d: err=%v, want ErrBadFrame", v, err)
		}
	}
}

func TestReplJoinRoundTrip(t *testing.T) {
	j := ReplJoin{Node: "node-b", Cursors: []ReplCursor{{Shard: 0, Offset: 17}, {Shard: 3, Offset: 0}}}
	b, err := EncodeReplJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReplJoin(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != j.Node || len(got.Cursors) != 2 || got.Cursors[0] != j.Cursors[0] || got.Cursors[1] != j.Cursors[1] {
		t.Fatalf("round trip changed join: %+v vs %+v", got, j)
	}
	if _, err := EncodeReplJoin(ReplJoin{}); err == nil {
		t.Fatal("empty node id accepted")
	}
	if _, err := DecodeReplJoin(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty frame: err=%v", err)
	}
}

func TestReplJoinAckRoundTrip(t *testing.T) {
	for _, a := range []ReplJoinAck{{Shards: 4}, {Shards: 1, Snapshot: true}} {
		got, err := DecodeReplJoinAck(EncodeReplJoinAck(a))
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("round trip changed ack: %+v vs %+v", got, a)
		}
	}
	if _, err := DecodeReplJoinAck(EncodeReplJoinAck(ReplJoinAck{Shards: 0})); err == nil {
		t.Fatal("zero shard count accepted")
	}
}

func TestReplFrameRoundTrip(t *testing.T) {
	frames := []ReplFrame{
		{Kind: ReplEntry, Shard: 2, Offset: 9, CommitNs: 123456, Entry: []byte{0, 0, 0, 1, 0xDE, 0xAD, 0xBE, 0xEF, 7}},
		{Kind: ReplEntryTraced, Shard: 2, Offset: 10, CommitNs: 123457,
			TraceID: 0xABCDEF0123456789, ParentSpan: 4, Entry: []byte{0, 0, 0, 1, 0xDE, 0xAD, 0xBE, 0xEF, 7}},
		{Kind: ReplSnapBegin, Shard: 1, Offset: 42},
		{Kind: ReplSnapEnd, Shard: 1},
		{Kind: ReplHeartbeat, CommitNs: 987},
	}
	for _, f := range frames {
		b, err := EncodeReplFrame(f)
		if err != nil {
			t.Fatalf("%+v: %v", f, err)
		}
		got, err := DecodeReplFrame(b)
		if err != nil {
			t.Fatalf("%+v: %v", f, err)
		}
		if got.Kind != f.Kind || got.Shard != f.Shard || got.Offset != f.Offset ||
			got.CommitNs != f.CommitNs || !bytes.Equal(got.Entry, f.Entry) ||
			got.TraceID != f.TraceID || got.ParentSpan != f.ParentSpan {
			t.Fatalf("round trip changed frame: %+v vs %+v", got, f)
		}
	}
	if _, err := EncodeReplFrame(ReplFrame{Kind: ReplEntry}); err == nil {
		t.Fatal("entry frame without bytes accepted")
	}
	if _, err := EncodeReplFrame(ReplFrame{Kind: ReplEntryTraced, TraceID: 7}); err == nil {
		t.Fatal("traced entry frame without bytes accepted")
	}
	if _, err := EncodeReplFrame(ReplFrame{Kind: ReplEntryTraced, Entry: []byte{1}}); err == nil {
		t.Fatal("traced entry frame without trace ID accepted")
	}
	if _, err := EncodeReplFrame(ReplFrame{Kind: 99}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := DecodeReplFrame([]byte{99}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown kind: err=%v", err)
	}
}

// FuzzReplHandshake throws arbitrary bytes at every replication handshake
// decoder — the kind-discriminating hello, the version/refusal ack, and the
// join/join-ack frames. None may panic or over-allocate, and whatever a
// decoder accepts must survive an encode→decode round trip unchanged (a
// cursor silently corrupted in the handshake would make the primary resume a
// follower's stream from the wrong position).
func FuzzReplHandshake(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteReplHello(&buf, ReplVersion)
	f.Add(buf.Bytes())
	if b, err := EncodeReplJoin(ReplJoin{Node: "node-b", Cursors: []ReplCursor{{Shard: 0, Offset: 17}, {Shard: 1, Offset: 0}}}); err == nil {
		f.Add(b)
	}
	if b, err := EncodeReplJoin(ReplJoin{Node: "n"}); err == nil {
		f.Add(b)
	}
	f.Add(EncodeReplJoinAck(ReplJoinAck{Shards: 8, Snapshot: true}))
	f.Add([]byte{HelloRefused})
	f.Add([]byte{ReplVersion})
	f.Add([]byte("DPSR\x01"))
	f.Add([]byte("DPSG\x02"))
	f.Add([]byte{1, 'n', 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if kind, v, err := ReadAnyHello(bytes.NewReader(data)); err == nil {
			var out bytes.Buffer
			if kind == HelloRepl {
				_ = WriteReplHello(&out, v)
			} else {
				_ = WriteHello(&out, Codec(v))
			}
			if !bytes.Equal(out.Bytes(), data[:5]) {
				t.Fatal("hello round trip changed bytes")
			}
		}
		_ = ReadReplHelloAck(bytes.NewReader(data))
		if j, err := DecodeReplJoin(data); err == nil {
			reenc, err := EncodeReplJoin(j)
			if err != nil {
				t.Fatalf("accepted join cannot be re-encoded: %v", err)
			}
			if !bytes.Equal(reenc, data) {
				t.Fatal("join round trip changed bytes")
			}
		}
		if a, err := DecodeReplJoinAck(data); err == nil {
			if !bytes.Equal(EncodeReplJoinAck(a), data) {
				t.Fatal("join ack round trip changed bytes")
			}
		}
	})
}

// FuzzDecodeReplFrame targets the stream-frame decoder, the follower's main
// attack surface: a compromised or corrupted primary link must never panic
// the follower or smuggle a frame that re-encodes differently.
func FuzzDecodeReplFrame(f *testing.F) {
	seeds := []ReplFrame{
		{Kind: ReplEntry, Shard: 0, Offset: 1, CommitNs: 1111, Entry: []byte{0, 0, 0, 1, 1, 2, 3, 4, 5}},
		{Kind: ReplSnapBegin, Shard: 2, Offset: 40},
		{Kind: ReplSnapEnd, Shard: 2},
		{Kind: ReplHeartbeat, CommitNs: 99},
	}
	for _, fr := range seeds {
		if b, err := EncodeReplFrame(fr); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{ReplEntry, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeReplFrame(data)
		if err != nil {
			return
		}
		reenc, err := EncodeReplFrame(fr)
		if err != nil {
			t.Fatalf("accepted frame cannot be re-encoded: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatal("repl frame round trip changed bytes")
		}
	})
}

// FuzzDecodeReplTracedFrame targets the trace-context extension decoder:
// arbitrary bytes presented as a ReplEntryTraced frame must never panic,
// never decode to a zero trace ID, and anything accepted must re-encode
// byte-identical (a trace context corrupted in flight must not silently
// misattribute a follower's spans to another tenant's sync).
func FuzzDecodeReplTracedFrame(f *testing.F) {
	seeds := []ReplFrame{
		{Kind: ReplEntryTraced, Shard: 0, Offset: 1, CommitNs: 1111,
			TraceID: 1, ParentSpan: 0, Entry: []byte{0, 0, 0, 1, 1, 2, 3, 4, 5}},
		{Kind: ReplEntryTraced, Shard: 7, Offset: 1 << 40, CommitNs: -1,
			TraceID: ^uint64(0), ParentSpan: ^uint32(0), Entry: []byte{9}},
	}
	for _, fr := range seeds {
		if b, err := EncodeReplFrame(fr); err == nil {
			f.Add(b)
		}
	}
	// A traced frame claiming a zero trace ID, and one whose entry length
	// overruns the payload.
	f.Add([]byte{ReplEntryTraced, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 9})
	f.Add([]byte{ReplEntryTraced, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 1, 0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{ReplEntryTraced})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeReplFrame(data)
		if err != nil {
			return
		}
		if fr.Kind == ReplEntryTraced && fr.TraceID == 0 {
			t.Fatal("decoder accepted a traced frame with a zero trace ID")
		}
		reenc, err := EncodeReplFrame(fr)
		if err != nil {
			t.Fatalf("accepted frame cannot be re-encoded: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatal("traced repl frame round trip changed bytes")
		}
	})
}
