package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// codec is the one payload encoding the fuzzers exercise.
const codec = CodecBinary

// FuzzReadFrame throws arbitrary bytes at the frame reader: it must never
// panic or over-allocate (the MaxFrame guard), and everything it accepts
// must round-trip through WriteFrame.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, []byte("hello"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatalf("accepted frame cannot be rewritten: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:4+len(payload)]) {
			t.Fatal("frame round trip changed bytes")
		}
	})
}

// Each decoder fuzzer below also seeds with envelopes as a peer on the
// retired JSON codec (version byte 1) would send them: to the binary decoder
// they are garbage that must be refused as malformed, never panic.

// FuzzDecodeGatewayRequest throws arbitrary bytes at the envelope decoder:
// it must never panic or over-allocate, and the codec is a bijection — what
// the decoder accepts, the encoder writes back byte for byte (no second
// spelling of any message: no padded varint, no width block without a batch,
// no trailing byte), and that decodes to the same message again.
func FuzzDecodeGatewayRequest(f *testing.F) {
	for _, g := range []GatewayRequest{
		{ID: 1, Owner: "owner-a", Req: Request{Type: MsgSetup, Sealed: [][]byte{{1, 2, 3}, {4, 5, 6}}}},
		{ID: 2, Owner: "o", Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 2, Provider: 1}}},
		{ID: 3, Owner: "s", Req: Request{Type: MsgStats}},
		{ID: 4, Owner: "r", Req: Request{Type: MsgResume}},
		{ID: 300, Owner: "u", Req: Request{Type: MsgUpdate, Seq: 16384, Sealed: [][]byte{{7}}}},
		{ID: 6, Owner: "f", Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 1}, MinOffset: 42}},
		{ID: 7, Owner: "f", Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 2, Lo: 50, Hi: 100}, MinOffset: 1<<64 - 1}},
	} {
		if b, err := codec.EncodeGatewayRequest(g); err == nil {
			f.Add(b)
		}
	}
	for _, retired := range []string{
		`{"id":1,"owner":"owner-a","req":{"type":"setup","sealed":["AQID"]}}`,
		`{"id":2,"owner":"o","req":{"type":"query","query":{"kind":2,"provider":1}}}`,
		`{"id":3,"owner":"s","req":{"type":"stats"}}`,
		`{"id":4,"owner":"r","req":{"type":"resume"}}`,
		`{"id":5,"owner":"u","req":{"type":"update","sealed":["Bw=="],"seq":9}}`,
		`{"id":6,"owner":"f","req":{"type":"query","query":{"kind":1,"provider":0},"minOffset":42}}`,
		`{"id":7,"owner":"f","req":{"type":"query","query":{"kind":2,"provider":0,"lo":50,"hi":100},"minOffset":18446744073709551615}}`,
	} {
		f.Add([]byte(retired))
	}
	f.Add([]byte{1, 0, binSetup, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 44}) // a count the frame cannot hold
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := codec.DecodeGatewayRequest(data)
		if err != nil {
			return
		}
		reenc, err := codec.EncodeGatewayRequest(g)
		if err != nil {
			t.Fatalf("accepted envelope cannot be re-encoded: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatalf("accepted %x, which encodes as %x: two spellings of one message", data, reenc)
		}
		g2, err := codec.DecodeGatewayRequest(reenc)
		if err != nil || !reflect.DeepEqual(g2, g) {
			t.Fatalf("round trip changed envelope: %+v vs %+v (%v)", g2, g, err)
		}
	})
}

// FuzzDecodeGatewayResponse mirrors the request fuzzer for the response
// direction (the client's attack surface), with the same bijection check:
// an 8-byte group block whose every group is a count, a refusal beside
// another section or a padded counter is a second spelling and must have been
// refused.
func FuzzDecodeGatewayResponse(f *testing.F) {
	for _, g := range []GatewayResponse{
		{ID: 1, Resp: Response{OK: true}},
		{ID: 2, Resp: Refuse(CodeFailed, 0, "boom")},
		{ID: 3, Resp: Response{OK: true, Answer: &AnswerSpec{Scalar: 4, Groups: []float64{1, 2}},
			Cost: &CostSpec{Seconds: 1, RecordsScanned: 2}}},
		{ID: 4, Resp: Response{OK: true, Stats: &StatsSpec{Records: 5, Scheme: "ObliDB"}}},
		{ID: 5, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 17}}},
		{ID: 6, Resp: Refuse(CodeBackpressure, 0, "")},
		{ID: 7, Resp: Refuse(CodeStale, 99, "")},
		{ID: 8, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: []float64{1, 2.5, math.NaN()}}}},
	} {
		if b, err := codec.EncodeGatewayResponse(g); err == nil {
			f.Add(b)
		}
	}
	for _, retired := range []string{
		`{"id":1,"resp":{"ok":true}}`,
		`{"id":2,"resp":{"ok":false,"error":"boom"}}`,
		`{"id":3,"resp":{"ok":true,"answer":{"scalar":4,"groups":[1,2]},"cost":{"seconds":1,"recordsScanned":2}}}`,
		`{"id":4,"resp":{"ok":true,"stats":{"records":5,"bytes":0,"updates":0,"scheme":"ObliDB"}}}`,
		`{"id":5,"resp":{"ok":true,"resume":{"clock":17}}}`,
		`{"id":6,"resp":{"ok":false,"error":"shed","backpressure":true}}`,
		`{"id":7,"resp":{"ok":false,"error":"replica behind freshness bound","stale":{"offset":99}}}`,
		`{"id":8,"resp":{"ok":false,"error":"stale","stale":{"offset":0}}}`,
	} {
		f.Add([]byte(retired))
	}
	f.Add([]byte{9, flagOK | flagAnswer, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 4}) // a group count the frame cannot hold
	f.Add([]byte{2, flagRefused, 4, 'b', 'o', 'o', 'm'})                                           // an error text as codec 3 framed it
	f.Add([]byte{3, flagOK | flagRefused, byte(CodeClosing), 0, 0})                                // OK and refused at once
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := codec.DecodeGatewayResponse(data)
		if err != nil {
			return
		}
		reenc, err := codec.EncodeGatewayResponse(g)
		if err != nil {
			t.Fatalf("accepted envelope cannot be re-encoded: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatalf("accepted %x, which encodes as %x: two spellings of one message", data, reenc)
		}
	})
}

// FuzzResumeHandshake targets the reconnect handshake specifically: the
// MsgResume request (no payload beyond the envelope), the ResumeSpec response
// and the backpressure refusal a resume can meet. Both decode directions run on every input —
// whatever either accepts must round-trip with the resume fields intact,
// since a clock silently corrupted in flight would make a reconnecting
// client replay from the wrong tick.
func FuzzResumeHandshake(f *testing.F) {
	reqs := []GatewayRequest{
		{ID: 1, Owner: "owner-a", Req: Request{Type: MsgResume}},
		{ID: 1 << 50, Owner: "", Req: Request{Type: MsgResume}},
	}
	resps := []GatewayResponse{
		{ID: 1, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 0}}},
		{ID: 2, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 1<<64 - 1}}},
		{ID: 3, Resp: Refuse(CodeBackpressure, 0, "")},
	}
	for _, g := range reqs {
		if b, err := codec.EncodeGatewayRequest(g); err == nil {
			f.Add(b)
		}
	}
	for _, g := range resps {
		if b, err := codec.EncodeGatewayResponse(g); err == nil {
			f.Add(b)
		}
	}
	for _, retired := range []string{
		`{"id":1,"owner":"owner-a","req":{"type":"resume"}}`,
		`{"id":1125899906842624,"owner":"","req":{"type":"resume"}}`,
		`{"id":1,"resp":{"ok":true,"resume":{"clock":0}}}`,
		`{"id":2,"resp":{"ok":true,"resume":{"clock":18446744073709551615}}}`,
		`{"id":3,"resp":{"ok":false,"error":"in-flight cap exceeded","backpressure":true}}`,
	} {
		f.Add([]byte(retired))
	}
	f.Add([]byte{1, 0, binResume, 0xEE})              // a resume request with a trailing byte
	f.Add([]byte{2, flagOK | flagResume, 0x81, 0x00}) // a resume clock spelled in two bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := codec.DecodeGatewayRequest(data); err == nil && g.Req.Type == MsgResume {
			reenc, err := codec.EncodeGatewayRequest(g)
			if err != nil {
				t.Fatalf("accepted resume request cannot be re-encoded: %v", err)
			}
			g2, err := codec.DecodeGatewayRequest(reenc)
			if err != nil || g2.ID != g.ID || g2.Owner != g.Owner || g2.Req.Type != MsgResume {
				t.Fatalf("resume request round trip changed: %+v vs %+v (%v)", g2, g, err)
			}
		}
		if g, err := codec.DecodeGatewayResponse(data); err == nil && (g.Resp.Resume != nil || g.Resp.Refusal != nil) {
			reenc, err := codec.EncodeGatewayResponse(g)
			if err != nil {
				t.Fatalf("accepted resume response cannot be re-encoded: %v", err)
			}
			g2, err := codec.DecodeGatewayResponse(reenc)
			if err != nil {
				t.Fatalf("re-encoded resume response rejected: %v", err)
			}
			if !reflect.DeepEqual(g2.Resp.Refusal, g.Resp.Refusal) ||
				(g.Resp.Resume == nil) != (g2.Resp.Resume == nil) ||
				(g.Resp.Resume != nil && g2.Resp.Resume.Clock != g.Resp.Resume.Clock) {
				t.Fatalf("resume response round trip changed: %+v vs %+v", g2, g)
			}
		}
	})
}

// FuzzReadHandshake targets the read-plane surface a follower exposes to
// untrusted dialers: the "DPSQ" read-only hello and its 1-byte ack, the
// MinOffset-carrying query envelope (binQueryAt), and the staleness refusal
// (CodeStale and its cursor) the client trusts for fallback decisions. Both
// decode directions run on every input — a MinOffset corrupted in flight
// would let a replica serve an answer staler than the caller demanded, and a
// corrupted cursor would misdirect the client's catch-up arithmetic.
func FuzzReadHandshake(f *testing.F) {
	var hello bytes.Buffer
	_ = WriteReadHello(&hello, codec)
	f.Add(hello.Bytes())
	f.Add([]byte("DPSQ\x01")) // proposes the retired JSON codec's byte
	f.Add([]byte("DPSQ\x03")) // proposes the codec retired last
	f.Add([]byte("DPSQ\xFF"))
	f.Add([]byte{HelloRefused})
	reqs := []GatewayRequest{
		{ID: 1, Owner: "owner-a", Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 2, Provider: 1, Lo: 50, Hi: 100}, MinOffset: 17}},
		{ID: 2, Owner: "o", Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 1}, MinOffset: 1<<64 - 1}},
		{ID: 3, Owner: "s", Req: Request{Type: MsgStats}},
	}
	resps := []GatewayResponse{
		{ID: 1, Resp: Refuse(CodeStale, 16, "")},
		{ID: 2, Resp: Refuse(CodeStale, 1<<64-1, "")},
		{ID: 3, Resp: Refuse(CodeNotPrimary, 0, "")},
	}
	for _, g := range reqs {
		if b, err := codec.EncodeGatewayRequest(g); err == nil {
			f.Add(b)
		}
	}
	for _, g := range resps {
		if b, err := codec.EncodeGatewayResponse(g); err == nil {
			f.Add(b)
		}
	}
	for _, retired := range []string{
		`{"id":1,"owner":"owner-a","req":{"type":"query","query":{"kind":2,"provider":1,"lo":50,"hi":100},"minOffset":17}}`,
		`{"id":2,"owner":"o","req":{"type":"query","query":{"kind":1,"provider":0},"minOffset":18446744073709551615}}`,
		`{"id":3,"owner":"s","req":{"type":"stats"}}`,
		`{"id":1,"resp":{"ok":false,"error":"wire: replica behind requested offset","stale":{"offset":16}}}`,
		`{"id":2,"resp":{"ok":false,"error":"stale","stale":{"offset":18446744073709551615}}}`,
		`{"id":3,"resp":{"ok":false,"error":"wire: node is not the cluster primary"}}`,
	} {
		f.Add([]byte(retired))
	}
	// Truncated/corrupt binQueryAt frames: bound claimed but bytes missing,
	// and a binQueryAt claiming bound zero (the decoder must reject it — a
	// re-encode would silently change the frame type to binQuery).
	f.Add([]byte{1, 1, 'a', binQueryAt, 2, 1, 0})
	f.Add([]byte{1, 1, 'a', binQueryAt, 2, 1, 0, 0, 50, 0, 100, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if kind, v, err := ReadAnyHello(bytes.NewReader(data)); err == nil && kind == HelloRead {
			var out bytes.Buffer
			_ = WriteReadHello(&out, Codec(v))
			if !bytes.Equal(out.Bytes(), data[:5]) {
				t.Fatal("read hello round trip changed bytes")
			}
		}
		_, _ = ReadHelloAck(bytes.NewReader(data)) // refusal byte included; must never panic
		if g, err := codec.DecodeGatewayRequest(data); err == nil && g.Req.MinOffset > 0 {
			reenc, err := codec.EncodeGatewayRequest(g)
			if err != nil {
				t.Fatalf("accepted bounded query cannot be re-encoded: %v", err)
			}
			g2, err := codec.DecodeGatewayRequest(reenc)
			if err != nil {
				t.Fatalf("re-encoded bounded query rejected: %v", err)
			}
			if g2.Req.MinOffset != g.Req.MinOffset || g2.ID != g.ID || g2.Owner != g.Owner ||
				g2.Req.Type != g.Req.Type {
				t.Fatalf("freshness bound round trip changed: %+v vs %+v", g2, g)
			}
		}
		if g, err := codec.DecodeGatewayResponse(data); err == nil && g.Resp.Refusal != nil {
			reenc, err := codec.EncodeGatewayResponse(g)
			if err != nil {
				t.Fatalf("accepted refusal cannot be re-encoded: %v", err)
			}
			g2, err := codec.DecodeGatewayResponse(reenc)
			if err != nil {
				t.Fatalf("re-encoded refusal rejected: %v", err)
			}
			if !reflect.DeepEqual(g2.Resp.Refusal, g.Resp.Refusal) || g2.Resp.OK {
				t.Fatalf("refusal round trip changed: %+v vs %+v", g2, g)
			}
		}
	})
}

// FuzzReadHello exercises the hello's magic and version-byte parsing:
// arbitrary prefixes must never panic, and an accepted hello must round-trip
// through the writer of the protocol it opened.
func FuzzReadHello(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteHello(&buf, CodecBinary)
	f.Add(buf.Bytes())
	f.Add([]byte("DPSG\x01"))
	f.Add([]byte("DPSG\xFF"))
	f.Add([]byte("GET / HTTP/1.1"))
	f.Add([]byte{})
	f.Add([]byte("DPSG\x03")) // the codec retired last
	f.Add([]byte("DPSR\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, v, err := ReadAnyHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		switch kind {
		case HelloClient:
			err = WriteHello(&out, Codec(v))
		case HelloRead:
			err = WriteReadHello(&out, Codec(v))
		case HelloRepl:
			err = WriteReplHello(&out, v)
		default:
			t.Fatalf("accepted hello of unknown kind %d", kind)
		}
		if err != nil {
			t.Fatalf("accepted hello cannot be rewritten: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:5]) {
			t.Fatal("hello round trip changed bytes")
		}
	})
}
