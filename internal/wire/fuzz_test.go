package wire

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dpsync/internal/edb"
)

// codec is the one payload encoding the fuzzers exercise.
const codec = CodecBinary

// FuzzReadFrame throws arbitrary bytes at both frame readers: they must
// never panic or over-allocate (the MaxFrame guard), they must accept and
// refuse alike — the buffered Conn and the unbuffered ReadFrame parse with
// one FrameHeader — and everything they accept must round-trip, header
// included, through WriteFrame and through Conn's in-place writer.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, []byte("hello"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{0x80, 0x00})             // a padded header
	f.Add([]byte{0x81, 0x80, 0x80, 0x08}) // MaxFrame + 1
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		buffered, berr := NewConn(&fakeConn{in: [][]byte{data}}).ReadFrame(nil)
		if (err == nil) != (berr == nil) || !bytes.Equal(payload, buffered) {
			t.Fatalf("ReadFrame read %x (%v), Conn.ReadFrame %x (%v)", payload, err, buffered, berr)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatalf("accepted frame cannot be rewritten: %v", err)
		}
		nc := &fakeConn{}
		c := NewConn(nc)
		if _, err := c.EndFrame(append(c.BeginFrame(), payload...)); err != nil || c.Flush() != nil {
			t.Fatalf("accepted frame cannot be rewritten in place: %v", err)
		}
		if frame := data[:FrameLen(len(payload))]; !bytes.Equal(out.Bytes(), frame) || !bytes.Equal(bytes.Join(nc.writes, nil), frame) {
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
		{ID: 7, Owner: "f", Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 2, Lo: 50, Hi: 100}}},
		{ID: 8, Handle: 1, Req: Request{Type: MsgUpdate, Seq: 3, Sealed: [][]byte{{7, 8}}}},
		{ID: 9, Handle: MaxBindings, Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 1}}},
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
	f.Add([]byte{1, 0, 1, binSetup, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 44}) // a count the frame cannot hold
	f.Add([]byte{1, 0, 0, binStats})                                      // owner handle 0
	f.Add([]byte{6, 1, 'f', 6, 1, 0, 0, 0, 0, 0, 0, 42})                  // codec 8's bounded query, type 6
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
// a scalar beside groups, an unknown width code, an 8-byte integer past 2⁵³
// (a float64 would round it, so it would come back as another number),
// indices out of order, past their pad or on a scalar, a refusal beside
// another section or a padded counter has no message and must have been
// refused. The committed corpus (testdata/fuzz) holds an answer at every
// width and as indices, and each of those rejects
// (TestResponseCorpusSaysWhatItHolds).
func FuzzDecodeGatewayResponse(f *testing.F) {
	for _, g := range []GatewayResponse{
		{ID: 1, Resp: Response{OK: true}},
		{ID: 2, Resp: Refuse(CodeFailed, 0, "boom")},
		{ID: 3, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: []float64{1, 2}, Width: 1},
			Cost: &CostSpec{RecordsScanned: 2}}},
		{ID: 3, Resp: Response{OK: true, Answer: &AnswerSpec{Scalar: 4, Width: 2}, Cost: &CostSpec{RecordsScanned: 2}}},
		{ID: 4, Resp: Response{OK: true, Stats: &StatsSpec{Records: 5}}},
		{ID: 5, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 17}}},
		{ID: 6, Resp: Refuse(CodeBackpressure, 0, "")},
		{ID: 7, Resp: Refuse(CodeSeqGap, 99, "")},
		{ID: 8, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: []float64{1, 2.5, math.NaN()}}}},
		{ID: 9, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: []float64{0, 2, 0, 1}, Width: WidthIndex, Slots: 5}}},
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
	f.Add([]byte{9, flagOK | flagGroups, 4, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // a group count the frame cannot hold
	f.Add([]byte{2, flagRefused, 4, 'b', 'o', 'o', 'm'})                   // an error text as codec 3 framed it
	f.Add([]byte{3, flagOK | flagRefused, byte(CodeClosing), 0, 0})        // OK and refused at once
	f.Add([]byte{7, flagRefused, 2, 99, 0})                                // codec 8's stale refusal, code 2
	// Codec 9's stats answer, naming the scheme and class after the counts.
	f.Add([]byte{4, flagOK | flagStats, 5, 0, 0, 6, 'O', 'b', 'l', 'i', 'D', 'B', 0})
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

// TestResponseCorpusSaysWhatItHolds reads FuzzDecodeGatewayResponse's
// committed corpus: a seed whose name begins "reject-" is refused as
// ErrBadFrame, and every other seed decodes, so a codec change that starts
// accepting a reject — or refusing an answer — fails here, not only when
// the fuzzer happens to check the bijection.
func TestResponseCorpusSaysWhatItHolds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeGatewayResponse")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		data, qerr := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !ok || qerr != nil {
			t.Fatalf("%s: not one []byte seed", e.Name())
		}
		_, err = codec.DecodeGatewayResponse([]byte(data))
		if reject := strings.HasPrefix(e.Name(), "reject-"); reject != errors.Is(err, ErrBadFrame) || (!reject && err != nil) {
			t.Errorf("%s: decoded with err %v", e.Name(), err)
		}
	}
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
		{ID: 1 << 50, Handle: 3, Req: Request{Type: MsgResume}},
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
	f.Add([]byte{1, 0, 1, binResume, 0xEE})           // a resume request with a trailing byte
	f.Add([]byte{2, flagOK | flagResume, 0x81, 0x00}) // a resume clock spelled in two bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := codec.DecodeGatewayRequest(data); err == nil && g.Req.Type == MsgResume {
			reenc, err := codec.EncodeGatewayRequest(g)
			if err != nil {
				t.Fatalf("accepted resume request cannot be re-encoded: %v", err)
			}
			g2, err := codec.DecodeGatewayRequest(reenc)
			if err != nil || g2.ID != g.ID || g2.Owner != g.Owner || g2.Handle != g.Handle || g2.Req.Type != MsgResume {
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
// untrusted dialers: the "DPSQ" read-only hello and its 1-byte ack, the query
// envelope a replica serves, and the refusals it answers with. Both decode
// directions run on every input, and whatever either accepts must round-trip.
// Codec 8's bounded query (type 6) and stale refusal (code 2) seed it as a
// peer still speaking codec 8 would send them; both are retired.
func FuzzReadHandshake(f *testing.F) {
	var hello bytes.Buffer
	_ = WriteReadHello(&hello, codec)
	f.Add(hello.Bytes())
	f.Add([]byte("DPSQ\x01")) // proposes the retired JSON codec's byte
	f.Add([]byte("DPSQ\x08")) // proposes the codec retired last
	f.Add([]byte("DPSQ\xFF"))
	f.Add([]byte{HelloRefused})
	reqs := []GatewayRequest{
		{ID: 1, Owner: "owner-a", Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 2, Provider: 1, Lo: 50, Hi: 100}}},
		{ID: 2, Owner: "o", Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 1}}},
		{ID: 3, Owner: "s", Req: Request{Type: MsgStats}},
		{ID: 4, Handle: 2, Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 3}}},
	}
	resps := []GatewayResponse{
		{ID: 1, Resp: Refuse(CodeSeqGap, 1<<64-1, "")},
		{ID: 2, Resp: Refuse(CodeSuspended, 0, "")},
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
	f.Add([]byte{1, 1, 'a', 6, 2, 1, 0, 0, 50, 0, 100, 17}) // codec 8's bounded query
	f.Add([]byte{1, flagRefused, 2, 16, 0})                 // codec 8's stale refusal
	f.Fuzz(func(t *testing.T, data []byte) {
		if kind, v, err := ReadAnyHello(bytes.NewReader(data)); err == nil && kind == HelloRead {
			var out bytes.Buffer
			_ = WriteReadHello(&out, Codec(v))
			if !bytes.Equal(out.Bytes(), data[:5]) {
				t.Fatal("read hello round trip changed bytes")
			}
		}
		_, _ = ReadHelloAck(bytes.NewReader(data)) // refusal byte included; must never panic
		if g, err := codec.DecodeGatewayRequest(data); err == nil && g.Req.Type == MsgQuery {
			if reenc, err := codec.EncodeGatewayRequest(g); err != nil || !bytes.Equal(reenc, data) {
				t.Fatalf("accepted query %x re-encodes as %x (%v)", data, reenc, err)
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
			if !reflect.DeepEqual(g2.Resp.Refusal, g.Resp.Refusal) || g2.Resp.OK || !g.Resp.Refusal.Code.Known() {
				t.Fatalf("refusal round trip changed: %+v vs %+v", g2, g)
			}
		}
	})
}

// FuzzReadHelloAck: whatever bytes a dialed node answers a hello with, the
// reader never panics, an ack it accepts is one the writer spells the same
// way byte for byte (the bytes after it are the stream's, not the ack's),
// and the refusal byte leading them means ErrNotPrimary, whatever follows.
func FuzzReadHelloAck(f *testing.F) {
	for _, be := range []Backend{{Scheme: "ObliDB", Leakage: edb.L0}, {Scheme: "Crypteps", Leakage: edb.LDP}, {Scheme: "unidentified", Leakage: edb.L2}} {
		var buf bytes.Buffer
		_ = WriteHelloAck(&buf, be)
		f.Add(buf.Bytes())
	}
	f.Add([]byte{HelloRefused})
	f.Add([]byte{HelloRefused, 10, 0, 6, 'O', 'b', 'l', 'i', 'D', 'B'})
	f.Add([]byte{9})                                      // codec 9's one-byte ack
	f.Add([]byte{10, 4, 6, 'O', 'b', 'l', 'i', 'D', 'B'}) // a class edb does not define
	f.Add([]byte{10, 0, 0})                               // no scheme name
	f.Add([]byte{10, 0, 7, 'O', 'b', 'l', 'i', 'D', 'B'}) // a name cut short
	f.Fuzz(func(t *testing.T, data []byte) {
		be, err := ReadHelloAck(bytes.NewReader(data))
		if len(data) > 0 && data[0] == HelloRefused {
			if !errors.Is(err, ErrNotPrimary) {
				t.Fatalf("refusal byte read as %v, %v; want ErrNotPrimary", be, err)
			}
			return
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteHelloAck(&out, be); err != nil {
			t.Fatalf("accepted ack %v cannot be rewritten: %v", be, err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted % x, which the writer spells % x", data, out.Bytes())
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
