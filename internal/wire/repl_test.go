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
	// No negotiation: the stream is replication v4, and an ack naming any
	// other version — the retired 1 to 3 included — is a hard error.
	if err := ReadReplHelloAck(bytes.NewReader([]byte{4})); err != nil {
		t.Fatalf("version 4: err=%v", err)
	}
	for _, v := range []byte{0, 1, 2, 3, 5, 99} {
		if err := ReadReplHelloAck(bytes.NewReader([]byte{v})); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("version %d: err=%v, want ErrBadFrame", v, err)
		}
	}
}

func TestReplJoinRoundTrip(t *testing.T) {
	for _, j := range []ReplJoin{
		{Node: "node-b", Cursors: []uint64{17, 0, 1 << 40, ^uint64(0)}},
		{Node: "n", Cursors: []uint64{0}},
		{Node: "n"},
	} {
		b, err := EncodeReplJoin(j)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeReplJoin(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Node != j.Node || len(got.Cursors) != len(j.Cursors) {
			t.Fatalf("round trip changed join: %+v vs %+v", got, j)
		}
		for i := range j.Cursors {
			if got.Cursors[i] != j.Cursors[i] {
				t.Fatalf("round trip changed cursor %d: %+v vs %+v", i, got, j)
			}
		}
	}
	if _, err := EncodeReplJoin(ReplJoin{}); err == nil {
		t.Fatal("empty node id accepted")
	}
	if _, err := DecodeReplJoin(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty frame: err=%v", err)
	}
}

func TestReplJoinAckRoundTrip(t *testing.T) {
	for _, shards := range []uint64{1, 4, 127, 128, 1 << 32} {
		got, err := DecodeReplJoinAck(EncodeReplJoinAck(shards))
		if err != nil {
			t.Fatal(err)
		}
		if got != shards {
			t.Fatalf("round trip changed ack: %d vs %d", got, shards)
		}
	}
	if _, err := DecodeReplJoinAck(EncodeReplJoinAck(0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero shard count: err=%v, want ErrBadFrame", err)
	}
}

func TestReplFrameRoundTrip(t *testing.T) {
	entry := []byte{0, 0, 0, 1, 0xDE, 0xAD, 0xBE, 0xEF, 7}
	frames := []ReplFrame{
		{Kind: ReplEntry, Shard: 2, Offset: 9, CommitNs: 123456, Entry: entry},
		{Kind: ReplEntry, Shard: 2, Offset: 10, CommitNs: 123457,
			TraceID: 0xABCDEF0123456789, ParentSpan: 4, Entry: entry},
		{Kind: ReplEntry, Shard: 1 << 31, Offset: 0, Entry: entry},
		{Kind: ReplEntry, Shard: 0, Offset: 0, TraceID: 1, ParentSpan: ^uint32(0), Entry: entry},
		{Kind: ReplSnapBegin, Shard: 1, Offset: 42},
		{Kind: ReplSnapEnd, Shard: 1},
		{Kind: ReplHeartbeat},
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
	if _, err := EncodeReplFrame(ReplFrame{Kind: ReplEntry, TraceID: 7}); err == nil {
		t.Fatal("traced entry frame without bytes accepted")
	}
	if _, err := EncodeReplFrame(ReplFrame{Kind: 99}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := DecodeReplFrame([]byte{99}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown kind: err=%v", err)
	}
}

// refReplFrame is the stream-frame layout written out a second time, byte by
// byte, sharing nothing with repl.go or internal/binfmt (refUvarint and
// refBigEndian are the client codec's reference helpers).
func refReplFrame(f ReplFrame) []byte {
	switch f.Kind {
	case 1:
		kind := byte(1)
		if f.TraceID != 0 {
			kind = 0x81
		}
		p := refUvarint([]byte{kind}, uint64(f.Shard))
		p = refUvarint(p, f.Offset)
		if f.Offset != 0 {
			p = refBigEndian(p, uint64(f.CommitNs), 8)
		}
		if f.TraceID != 0 {
			p = refUvarint(refUvarint(p, f.TraceID), uint64(f.ParentSpan))
		}
		return append(p, f.Entry...)
	case 2:
		return refUvarint(refUvarint([]byte{2}, uint64(f.Shard)), f.Offset)
	case 3:
		return refUvarint([]byte{3}, uint64(f.Shard))
	default:
		return []byte{f.Kind}
	}
}

// refReplJoin is the join layout written out a second time.
func refReplJoin(node string, cursors []uint64) []byte {
	p := append([]byte{byte(len(node))}, node...)
	p = refUvarint(p, uint64(len(cursors)))
	for _, c := range cursors {
		p = refUvarint(p, c)
	}
	return p
}

// TestReplFrameSizes pins replication v4's messages to the byte, against
// the reference encoder: each fact is stated once (no length before the
// entry frame, whose own header states it; a commit time only where the
// follower measures lag; no heartbeat clock; no snapshot flag in the ack),
// in minimal-form varints, and so is each frame's length (v3 spent 4 bytes
// on it).
func TestReplFrameSizes(t *testing.T) {
	entry := bytes.Repeat([]byte{0xE7}, 102) // a one-record sync's entry frame, roughly
	rows := []struct {
		name   string
		frame  ReplFrame
		header int // the payload less the entry frame
		wire   int // the frame on the wire, its uvarint length first (v3: 4 B more)
	}{
		{"live entry, offset 1", ReplFrame{Kind: ReplEntry, Offset: 1, CommitNs: 1 << 60, Entry: entry}, 11, 114},
		{"live entry, offset 127", ReplFrame{Kind: ReplEntry, Offset: 127, CommitNs: 1 << 60, Entry: entry}, 11, 114},
		{"live entry, offset 128", ReplFrame{Kind: ReplEntry, Offset: 128, CommitNs: 1 << 60, Entry: entry}, 12, 115},
		{"live entry, offset 2^21-1", ReplFrame{Kind: ReplEntry, Offset: 1<<21 - 1, CommitNs: 1 << 60, Entry: entry}, 13, 116},
		{"live entry, offset 2^21", ReplFrame{Kind: ReplEntry, Offset: 1 << 21, CommitNs: 1 << 60, Entry: entry}, 14, 117},
		{"live entry, shard 127", ReplFrame{Kind: ReplEntry, Shard: 127, Offset: 1, CommitNs: 1, Entry: entry}, 11, 114},
		// A random trace ID takes 9 or 10 B, a small parent span 1.
		{"traced live entry", ReplFrame{Kind: ReplEntry, Offset: 1 << 20, CommitNs: 1 << 60,
			TraceID: 0x9E3779B97F4A7C15, ParentSpan: 4, Entry: entry}, 13 + 10 + 1, 127},
		{"bootstrap entry", ReplFrame{Kind: ReplEntry, Offset: 0, Entry: entry}, 3, 106},
		{"heartbeat", ReplFrame{Kind: ReplHeartbeat}, 1, 2},
		{"snapshot begin", ReplFrame{Kind: ReplSnapBegin, Shard: 3, Offset: 4096}, 4, 5},
		{"snapshot end", ReplFrame{Kind: ReplSnapEnd, Shard: 3}, 2, 3},
	}
	for _, row := range rows {
		got, err := EncodeReplFrame(row.frame)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if want := refReplFrame(row.frame); !bytes.Equal(got, want) {
			t.Errorf("%s: codec %x, reference %x", row.name, got, want)
		}
		if header := len(got) - len(row.frame.Entry); header != row.header {
			t.Errorf("%s: %d B before the entry, want %d", row.name, header, row.header)
		}
		c := NewConn(&fakeConn{})
		if onWire := endFrame(t, c, append(c.BeginFrame(), got...)); !bytes.Equal(onWire, refFrame(got)) || len(onWire) != row.wire {
			t.Errorf("%s: %d B on the wire (reference %d), want %d", row.name, len(onWire), len(refFrame(got)), row.wire)
		}
	}

	// A varint count, then a varint per shard.
	for _, row := range []struct {
		cursors []uint64
		size    int
	}{
		{[]uint64{0}, 1 + 6 + 1 + 1},
		{[]uint64{0, 127, 128, 1 << 21}, 1 + 6 + 1 + (1 + 1 + 2 + 4)},
	} {
		got, err := EncodeReplJoin(ReplJoin{Node: "node-b", Cursors: row.cursors})
		if err != nil {
			t.Fatal(err)
		}
		if want := refReplJoin("node-b", row.cursors); !bytes.Equal(got, want) || len(got) != row.size {
			t.Errorf("join %v: codec %x (%d B), reference %x, want %d B", row.cursors, got, len(got), want, row.size)
		}
	}
	if got := EncodeReplJoinAck(4); !bytes.Equal(got, refUvarint(nil, 4)) || len(got) != 1 {
		t.Errorf("join ack: %x, want 1 B", got)
	}

	// A frame's length depends on the entry's length (its record count), the
	// shard, the offset and whether the sync was sampled — never on the data.
	other := bytes.Repeat([]byte{0x01}, len(entry))
	for _, row := range rows[:8] {
		a, _ := EncodeReplFrame(row.frame)
		row.frame.Entry = other
		if row.frame.CommitNs != 0 {
			row.frame.CommitNs ^= 0x5555
		}
		if row.frame.TraceID != 0 {
			row.frame.TraceID ^= 0x5555
		}
		b, _ := EncodeReplFrame(row.frame)
		if len(a) != len(b) {
			t.Errorf("%s: %d B and %d B for entries of one length", row.name, len(a), len(b))
		}
	}
}

// TestReplOneEncodingPerMessage: every byte string the stream decoders
// accept has one message, and every message one encoding — a padded varint,
// an unknown kind or flag, a missing or empty entry, a traced entry without a
// trace, trailing bytes and a cursor count beyond the frame are ErrBadFrame.
func TestReplOneEncodingPerMessage(t *testing.T) {
	ns := []byte{0, 0, 0, 0, 0, 0, 0, 1}
	frames := map[string][]byte{
		"padded shard":               {ReplEntry, 0x80, 0x00, 0, 9},
		"padded offset":              append([]byte{ReplEntry, 0, 0x81, 0x00}, append(ns, 9)...),
		"padded basis":               {ReplSnapBegin, 0, 0x80, 0x00},
		"shard past 32 bits":         {ReplSnapEnd, 0x80, 0x80, 0x80, 0x80, 0x10},
		"unknown kind":               {5},
		"kind zero":                  {0},
		"traced flag on a heartbeat": {ReplHeartbeat | 0x80},
		"unknown flag on an entry":   {ReplEntry | 0x40, 0, 0, 9},
		"bootstrap without entry":    {ReplEntry, 0, 0},
		"live entry without entry":   append([]byte{ReplEntry, 0, 1}, ns...),
		"live entry, short clock":    {ReplEntry, 0, 1, 0, 0, 0},
		"traced, zero trace id":      {ReplEntry | 0x80, 0, 0, 0, 0, 9},
		"traced, padded trace id":    {ReplEntry | 0x80, 0, 0, 0x81, 0x00, 0, 9},
		"traced, span past 32 bits":  {ReplEntry | 0x80, 0, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 9},
		"heartbeat with a clock":     append([]byte{ReplHeartbeat}, ns...),
		"snapshot end, trailing":     {ReplSnapEnd, 0, 0},
		"empty":                      {},
	}
	for name, b := range frames {
		if f, err := DecodeReplFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: decoded %+v (err %v), want ErrBadFrame", name, f, err)
		}
	}
	joins := map[string][]byte{
		"empty node":            {0, 1, 0},
		"padded count":          {1, 'n', 0x81, 0x00, 0},
		"padded cursor":         {1, 'n', 1, 0x80, 0x00},
		"count beyond frame":    {1, 'n', 3, 0, 0},
		"huge count":            {1, 'n', 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"trailing":              {1, 'n', 1, 0, 0},
		"node longer than left": {9, 'n'},
		"empty":                 {},
	}
	for name, b := range joins {
		if j, err := DecodeReplJoin(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("join %s: decoded %+v (err %v), want ErrBadFrame", name, j, err)
		}
	}
	for name, b := range map[string][]byte{
		"zero":     {0},
		"padded":   {0x84, 0x00},
		"flag":     {4, 1},
		"empty":    {},
		"overflow": {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02},
	} {
		if n, err := DecodeReplJoinAck(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("ack %s: decoded %d (err %v), want ErrBadFrame", name, n, err)
		}
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
	if b, err := EncodeReplJoin(ReplJoin{Node: "node-b", Cursors: []uint64{17, 0}}); err == nil {
		f.Add(b)
	}
	if b, err := EncodeReplJoin(ReplJoin{Node: "n"}); err == nil {
		f.Add(b)
	}
	f.Add(EncodeReplJoinAck(8))
	f.Add([]byte{HelloRefused})
	f.Add([]byte{ReplVersion})
	f.Add([]byte("DPSR\x02"))
	f.Add([]byte("DPSG\x05"))
	f.Add([]byte{1, 'n', 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
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
		if n, err := DecodeReplJoinAck(data); err == nil {
			if !bytes.Equal(EncodeReplJoinAck(n), data) {
				t.Fatal("join ack round trip changed bytes")
			}
		}
	})
}

// FuzzDecodeReplFrame targets the stream-frame decoder, the follower's main
// attack surface: a compromised or corrupted primary link must never panic
// the follower or smuggle a frame that re-encodes differently.
func FuzzDecodeReplFrame(f *testing.F) {
	entry := []byte{0, 0, 0, 1, 1, 2, 3, 4, 5}
	seeds := []ReplFrame{
		{Kind: ReplEntry, Shard: 0, Offset: 1, CommitNs: 1111, Entry: entry},
		{Kind: ReplEntry, Shard: 3, Offset: 0, Entry: entry},
		{Kind: ReplSnapBegin, Shard: 2, Offset: 40},
		{Kind: ReplSnapEnd, Shard: 2},
		{Kind: ReplHeartbeat},
	}
	for _, fr := range seeds {
		if b, err := EncodeReplFrame(fr); err == nil {
			f.Add(b)
		}
	}
	// A padded offset, an entry kind with nothing after it, and the
	// degenerate frames.
	f.Add([]byte{ReplEntry, 0, 0x81, 0x00, 0, 0, 0, 0, 0, 0, 0, 1, 9})
	f.Add([]byte{ReplEntry})
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

// FuzzDecodeReplTracedFrame targets the traced entry path of the same
// decoder (the kind byte's traced flag and the trace context after the
// stream position): arbitrary bytes must never panic, an accepted traced
// entry never carries a zero trace ID, and anything accepted re-encodes
// byte-identical (a trace context corrupted in flight must not silently
// misattribute a follower's spans to another tenant's sync).
func FuzzDecodeReplTracedFrame(f *testing.F) {
	seeds := []ReplFrame{
		{Kind: ReplEntry, Shard: 0, Offset: 1, CommitNs: 1111,
			TraceID: 1, ParentSpan: 0, Entry: []byte{0, 0, 0, 1, 1, 2, 3, 4, 5}},
		{Kind: ReplEntry, Shard: 7, Offset: 1 << 40, CommitNs: -1,
			TraceID: ^uint64(0), ParentSpan: ^uint32(0), Entry: []byte{9}},
	}
	for _, fr := range seeds {
		if b, err := EncodeReplFrame(fr); err == nil {
			f.Add(b)
		}
	}
	// A traced entry claiming a zero trace ID, one whose trace ID overruns
	// the payload, and the bare traced kind.
	f.Add([]byte{ReplEntry | replTraced, 0, 0, 0, 0, 9})
	f.Add([]byte{ReplEntry | replTraced, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{ReplEntry | replTraced})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeReplFrame(data)
		if err != nil {
			return
		}
		if data[0] == ReplEntry|replTraced && fr.TraceID == 0 {
			t.Fatal("decoder accepted a traced entry with a zero trace ID")
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
