package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"dpsync/internal/query"
	"dpsync/internal/record"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 100_000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame mismatch: %d vs %d bytes", len(got), len(p))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("empty buffer should EOF, got %v", err)
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize write: %v", err)
	}
	// Forged headers: a length past MaxFrame, a fifth byte, a padded length.
	for _, tc := range []struct {
		hdr  []byte
		want error
	}{
		{binary.AppendUvarint(nil, MaxFrame+1), ErrFrameTooLarge},
		{[]byte{0xFF, 0xFF, 0xFF, 0xFF}, ErrBadFrame},
		{[]byte{0x80, 0x80, 0x80, 0x80, 0x00}, ErrBadFrame},
		{[]byte{0x85, 0x00}, ErrBadFrame},
	} {
		if _, err := ReadFrame(bytes.NewReader(tc.hdr)); !errors.Is(err, tc.want) {
			t.Errorf("header %x: %v, want %v", tc.hdr, err, tc.want)
		}
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestQuerySpecRoundTrip(t *testing.T) {
	for _, q := range []query.Query{query.Q1(), query.Q2(), query.Q3()} {
		spec := FromQuery(q)
		got := spec.ToQuery()
		if got != q {
			t.Errorf("round trip %+v != %+v", got, q)
		}
	}
}

// roundTripRequest pushes req through the gateway envelope and back.
func roundTripRequest(t *testing.T, req Request) Request {
	t.Helper()
	b, err := CodecBinary.EncodeGatewayRequest(GatewayRequest{ID: 1, Owner: "o", Req: req})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CodecBinary.DecodeGatewayRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	return got.Req
}

func TestRequestEncodeDecode(t *testing.T) {
	spec := FromQuery(query.Q3())
	got := roundTripRequest(t, Request{Type: MsgQuery, Query: &spec})
	if got.Type != MsgQuery || got.Query == nil || got.Query.ToQuery() != query.Q3() {
		t.Errorf("decoded = %+v", got)
	}
	got = roundTripRequest(t, Request{Type: MsgUpdate, Seq: 2, Sealed: [][]byte{{1, 2}, {3, 4}}})
	if len(got.Sealed) != 2 || !bytes.Equal(got.Sealed[0], []byte{1, 2}) || !bytes.Equal(got.Sealed[1], []byte{3, 4}) {
		t.Error("sealed payloads corrupted")
	}
	if _, err := CodecBinary.DecodeGatewayRequest([]byte("{bad")); !errors.Is(err, ErrBadFrame) {
		t.Errorf("malformed request: err = %v, want ErrBadFrame", err)
	}
}

func TestResponseEncodeDecode(t *testing.T) {
	resp := Response{
		OK:     true,
		Answer: &AnswerSpec{Groups: []float64{1, 2}, Width: 1},
		Cost:   &CostSpec{RecordsScanned: 10, PairsCompared: 4},
		Stats:  &StatsSpec{Records: 7, Bytes: 7168, Updates: 2},
	}
	b, err := CodecBinary.EncodeGatewayResponse(GatewayResponse{ID: 1, Resp: resp})
	if err != nil {
		t.Fatal(err)
	}
	env, err := CodecBinary.DecodeGatewayResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	got := env.Resp
	if !got.OK || got.Answer.Width != 1 || *got.Cost != (CostSpec{RecordsScanned: 10, PairsCompared: 4}) || got.Stats.Records != 7 {
		t.Errorf("decoded = %+v", got)
	}
	ans := got.Answer.ToAnswer()
	if ans.Total() != 3 {
		t.Errorf("answer total = %v", ans.Total())
	}
	if _, err := CodecBinary.DecodeGatewayResponse([]byte("[]")); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short response: err = %v, want ErrBadFrame", err)
	}
}

// Property: every syntactically valid QuerySpec survives the wire round trip.
func TestQuickQuerySpecRoundTrip(t *testing.T) {
	f := func(kind uint8, prov, join uint8, lo, hi uint16) bool {
		q := query.Query{
			Kind:     query.Kind(kind % 3),
			Provider: record.Provider(prov),
			JoinWith: record.Provider(join),
			Lo:       lo,
			Hi:       hi,
		}
		return FromQuery(q).ToQuery() == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: frames round-trip arbitrary payloads.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
