package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func sampleRequests() []GatewayRequest {
	return []GatewayRequest{
		{ID: 1, Owner: "owner-a", Req: Request{Type: MsgSetup, Sealed: [][]byte{{1, 2, 3}, {}, {0xFF}}}},
		{ID: 2, Owner: "o", Req: Request{Type: MsgUpdate, Sealed: [][]byte{{9, 9, 9, 9}}}},
		{ID: 1 << 60, Owner: "owner-b", Req: Request{Type: MsgUpdate}},
		{ID: 3, Owner: "q", Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 2, Provider: 1, JoinWith: 2, Lo: 7, Hi: 99}}},
		{ID: 4, Owner: "", Req: Request{Type: MsgStats}},
		{ID: 5, Owner: "owner-c", Req: Request{Type: MsgSetup, Seq: 1, Sealed: [][]byte{{4, 5}}}},
		{ID: 6, Owner: "owner-c", Req: Request{Type: MsgUpdate, Seq: 1 << 40, Sealed: [][]byte{{6}}}},
		{ID: 7, Owner: "owner-c", Req: Request{Type: MsgResume}},
	}
}

func sampleResponses() []GatewayResponse {
	return []GatewayResponse{
		{ID: 1, Resp: Response{OK: true}},
		{ID: 2, Resp: Response{Error: "edb: database not set up"}},
		{ID: 3, Resp: Response{OK: true, Answer: &AnswerSpec{Scalar: 42.5, Groups: []float64{1, 2, 3}},
			Cost: &CostSpec{Seconds: 0.25, RecordsScanned: 1000, PairsCompared: -1}}},
		{ID: 4, Resp: Response{OK: true, Stats: &StatsSpec{Records: 12, Bytes: 12288, Updates: 3, Scheme: "ObliDB", Leakage: 0}}},
		{ID: 5, Resp: Response{OK: true, Stats: &StatsSpec{Records: 1, Bytes: 6400, Updates: 1, Scheme: "Crypteps", Leakage: 1}}},
		{ID: 6, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 42}}},
		{ID: 7, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 0}}},
		{ID: 8, Resp: Response{Error: "shed", Backpressure: true}},
	}
}

func TestGatewayRequestRoundTrip(t *testing.T) {
	for _, g := range sampleRequests() {
		b, err := CodecBinary.EncodeGatewayRequest(g)
		if err != nil {
			t.Fatalf("encode %+v: %v", g, err)
		}
		got, err := CodecBinary.DecodeGatewayRequest(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Errorf("round trip: got %+v want %+v", got, g)
		}
	}
}

func TestGatewayResponseRoundTrip(t *testing.T) {
	for _, g := range sampleResponses() {
		b, err := CodecBinary.EncodeGatewayResponse(g)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := CodecBinary.DecodeGatewayResponse(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Errorf("round trip: got %+v want %+v", got, g)
		}
	}
}

func TestDecodeRejectsZeroLengthFrames(t *testing.T) {
	if _, err := CodecBinary.DecodeGatewayRequest(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("DecodeGatewayRequest(nil) = %v, want ErrBadFrame", err)
	}
	if _, err := CodecBinary.DecodeGatewayResponse(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("DecodeGatewayResponse(nil) = %v, want ErrBadFrame", err)
	}
}

func TestBinaryDecodeTypedErrors(t *testing.T) {
	valid, err := CodecBinary.EncodeGatewayRequest(sampleRequests()[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated header":   valid[:5],
		"truncated sealed":   valid[:len(valid)-2],
		"trailing bytes":     append(append([]byte{}, valid...), 0xEE),
		"unknown msg type":   {0, 0, 0, 0, 0, 0, 0, 1, 0, 0xCC},
		"lying sealed count": {0, 0, 0, 0, 0, 0, 0, 1, 0, binSetup, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	for name, b := range cases {
		if _, err := CodecBinary.DecodeGatewayRequest(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
	if _, err := CodecBinary.DecodeGatewayResponse([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short response: err = %v, want ErrBadFrame", err)
	}
	// Claimed group count far beyond the frame must be rejected pre-alloc.
	huge := []byte{0, 0, 0, 0, 0, 0, 0, 9, flagOK | flagAnswer,
		0, 0, 0, 0, 0, 0, 0, 0, // scalar
		0xFF, 0xFF, 0xFF, 0xFF} // group count
	if _, err := CodecBinary.DecodeGatewayResponse(huge); !errors.Is(err, ErrBadFrame) {
		t.Errorf("lying group count: err = %v, want ErrBadFrame", err)
	}
}

func TestEncodeGuards(t *testing.T) {
	long := make([]byte, MaxOwnerLen+1)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := CodecBinary.EncodeGatewayRequest(GatewayRequest{Owner: string(long), Req: Request{Type: MsgStats}}); err == nil {
		t.Error("over-long owner id accepted")
	}
	if _, err := CodecBinary.EncodeGatewayRequest(GatewayRequest{Req: Request{Type: "bogus"}}); err == nil {
		t.Error("unknown message type encoded")
	}
	if _, err := CodecBinary.EncodeGatewayRequest(GatewayRequest{Req: Request{Type: MsgQuery}}); err == nil {
		t.Error("query without spec encoded")
	}
	if _, err := CodecBinary.EncodeGatewayRequest(GatewayRequest{Req: Request{
		Type: MsgQuery, Query: &QuerySpec{Kind: 1000, Provider: 1},
	}}); err == nil {
		t.Error("out-of-range kind encoded")
	}
	// Byte 1 was the JSON codec; it names no codec now, and nothing encodes
	// or decodes under it.
	retired := Codec(1)
	if _, err := retired.EncodeGatewayRequest(sampleRequests()[0]); err == nil {
		t.Error("request encoded under the retired codec byte")
	}
	if _, err := retired.DecodeGatewayResponse([]byte{0, 0, 0, 0, 0, 0, 0, 1, flagOK}); err == nil {
		t.Error("response decoded under the retired codec byte")
	}
}

func TestHelloNegotiation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, CodecBinary); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != CodecBinary {
		t.Errorf("hello codec = %v", got)
	}
	// Unknown codec byte passes through ReadHello (the server acks binary).
	buf.Reset()
	_ = WriteHello(&buf, Codec(77))
	got, err = ReadHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid() {
		t.Errorf("codec 77 reported valid")
	}
	// Bad magic is a protocol violation.
	if _, err := ReadHello(bytes.NewReader([]byte("HTTP/1.1 blah"))); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad magic: err = %v, want ErrBadFrame", err)
	}
	// Ack round trip; invalid ack rejected.
	buf.Reset()
	if err := WriteHelloAck(&buf, CodecBinary); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadHelloAck(&buf); err != nil || got != CodecBinary {
		t.Errorf("ack = %v, %v", got, err)
	}
	for _, b := range []byte{0x7F, 1} { // 1: the retired JSON codec's byte
		if _, err := ReadHelloAck(bytes.NewReader([]byte{b})); !errors.Is(err, ErrBadFrame) {
			t.Errorf("invalid ack %#x: err = %v, want ErrBadFrame", b, err)
		}
	}
}
