package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dpsync/internal/edb"
)

// The reference encoder: the layout written out a second time, byte by byte,
// sharing nothing with binary.go or internal/binfmt — no helper, no constant,
// not even the way it decides an answer's width. The sizes below and the
// differential hold the codec to it.

func refUvarint(b []byte, v uint64) []byte {
	for v > 127 {
		b = append(b, byte(v&127)|128)
		v >>= 7
	}
	return append(b, byte(v))
}

func refBigEndian(b []byte, v uint64, width int) []byte {
	for shift := 8 * (width - 1); shift >= 0; shift -= 8 {
		b = append(b, byte(v>>shift))
	}
	return b
}

// refRequest encodes a request the codec accepts (the guards are tested on
// their own); the frame's 4-byte length leads, as on the wire.
func refRequest(g GatewayRequest) []byte {
	p := refUvarint(nil, g.ID)
	if g.Handle != 0 {
		p = refUvarint(append(p, 0), g.Handle)
	} else {
		p = append(p, byte(len(g.Owner)))
		p = append(p, g.Owner...)
	}
	switch g.Req.Type {
	case MsgSetup, MsgUpdate:
		p = append(p, map[MsgType]byte{MsgSetup: 1, MsgUpdate: 2}[g.Req.Type])
		p = refUvarint(p, g.Req.Seq)
		p = refUvarint(p, uint64(len(g.Req.Sealed)))
		if len(g.Req.Sealed) > 0 {
			p = refUvarint(p, uint64(len(g.Req.Sealed[0])))
			p = append(p, bytes.Join(g.Req.Sealed, nil)...)
		}
	case MsgQuery:
		if g.Req.MinOffset == 0 {
			p = append(p, 3)
		} else {
			p = append(p, 6)
		}
		q := g.Req.Query
		p = append(p, byte(q.Kind), q.Provider, q.JoinWith, byte(q.Lo>>8), byte(q.Lo), byte(q.Hi>>8), byte(q.Hi))
		if g.Req.MinOffset != 0 {
			p = refUvarint(p, g.Req.MinOffset)
		}
	case MsgStats:
		p = append(p, 4)
	case MsgResume:
		p = append(p, 5)
	}
	return append(refBigEndian(nil, uint64(len(p)), 4), p...)
}

func refResponse(g GatewayResponse) []byte {
	r := g.Resp
	var flags byte
	for bit, set := range []bool{r.OK, r.Refusal != nil, r.Answer != nil, r.Cost != nil, r.Stats != nil, r.Resume != nil} {
		if set {
			flags |= 1 << bit
		}
	}
	p := append(refUvarint(nil, g.ID), flags)
	if r.Refusal != nil {
		p = append(p, map[RefusalCode]byte{CodeBackpressure: 1, CodeStale: 2, CodeNotPrimary: 3, CodeNotSetup: 4,
			CodeSeqGap: 5, CodeSuspended: 6, CodeClosing: 7, CodeBadRequest: 8, CodeFailed: 9}[r.Refusal.Code])
		p = refUvarint(p, r.Refusal.Cursor)
		p = append(refUvarint(p, uint64(len(r.Refusal.Detail))), r.Refusal.Detail...)
	}
	if r.Answer != nil {
		p = refBigEndian(p, math.Float64bits(r.Answer.Scalar), 8)
		p = refUvarint(p, uint64(len(r.Answer.Groups)))
		counts := true
		for _, v := range r.Answer.Groups {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Signbit(v) || v != math.Floor(v) || v > math.MaxUint32 {
				counts = false
			}
		}
		switch {
		case len(r.Answer.Groups) == 0:
		case counts:
			p = append(p, 4)
			for _, v := range r.Answer.Groups {
				p = refBigEndian(p, uint64(v), 4)
			}
		default:
			p = append(p, 8)
			for _, v := range r.Answer.Groups {
				p = refBigEndian(p, math.Float64bits(v), 8)
			}
		}
	}
	if r.Cost != nil {
		p = refBigEndian(p, math.Float64bits(r.Cost.Seconds), 8)
		p = refUvarint(p, uint64(r.Cost.RecordsScanned))
		p = refUvarint(p, uint64(r.Cost.PairsCompared))
	}
	if r.Stats != nil {
		p = refUvarint(p, uint64(r.Stats.Records))
		p = refUvarint(p, uint64(r.Stats.Bytes))
		p = refUvarint(p, uint64(r.Stats.Updates))
		p = append(append(p, byte(len(r.Stats.Scheme))), r.Stats.Scheme...)
		p = append(p, byte(r.Stats.Leakage))
	}
	if r.Resume != nil {
		p = refUvarint(p, r.Resume.Clock)
	}
	return append(refBigEndian(nil, uint64(len(p)), 4), p...)
}

// framedRequest and framedResponse are the message as Conn puts it on the
// wire: the Append encoder's bytes behind a 4-byte length.
func framedRequest(t *testing.T, g GatewayRequest) []byte {
	t.Helper()
	b, err := AppendGatewayRequest([]byte{0, 0, 0, 0}, g)
	if err != nil {
		t.Fatalf("encode %+v: %v", g, err)
	}
	copy(b, refBigEndian(nil, uint64(len(b)-4), 4))
	return b
}

func framedResponse(t *testing.T, g GatewayResponse) []byte {
	t.Helper()
	b, err := AppendGatewayResponse([]byte{0, 0, 0, 0}, g)
	if err != nil {
		t.Fatalf("encode %+v: %v", g, err)
	}
	copy(b, refBigEndian(nil, uint64(len(b)-4), 4))
	return b
}

// TestFrameSizes pins what each message costs on the wire, to the byte,
// frame header included: these are the numbers `wire_bytes_per_op` is made
// of, and they are exact — a function of the message, never an estimate. The
// owner is the benchmark's 12 bytes, named inline (13 bytes with its length)
// or by a handle its connection bound (a zero byte and the handle's varint:
// 2 bytes up to handle 127, 3 up to MaxBindings). An owner seals a batch of n
// records as one message of 16n + 28 bytes (seal.Size; one record is 44); a
// batch of n one-record messages is the shape refdb and older directories
// still send.
func TestFrameSizes(t *testing.T) {
	const owner = "owner-000017"
	batch := func(n int) [][]byte {
		cts := make([][]byte, n)
		for i := range cts {
			cts[i] = bytes.Repeat([]byte{byte(i + 1)}, 44)
		}
		return cts
	}
	sync := func(id, seq uint64, n int) GatewayRequest {
		return GatewayRequest{ID: id, Owner: owner, Req: Request{Type: MsgUpdate, Seq: seq, Sealed: batch(n)}}
	}
	sealed := func(n int) GatewayRequest {
		ct := bytes.Repeat([]byte{7}, 16*n+28)
		return GatewayRequest{ID: 1, Owner: owner, Req: Request{Type: MsgUpdate, Seq: 2, Sealed: [][]byte{ct}}}
	}
	ask := func(kind int, bound uint64) GatewayRequest {
		return GatewayRequest{ID: 1, Owner: owner, Req: Request{Type: MsgQuery,
			Query: &QuerySpec{Kind: kind, Provider: 1, JoinWith: 2, Lo: 50, Hi: 100}, MinOffset: bound}}
	}
	// byHandle is g as a connection that bound its owner to h sends it.
	byHandle := func(g GatewayRequest, h uint64) GatewayRequest {
		g.Owner, g.Handle = "", h
		return g
	}
	cost := &CostSpec{Seconds: 0.004, RecordsScanned: 1000}
	groups := make([]float64, 265)
	for i := range groups {
		groups[i] = float64(i % 9)
	}
	noisy := append([]float64{}, groups...)
	noisy[200] = 3.5
	const maxU64 = 1<<64 - 1

	requests := []struct {
		name string
		g    GatewayRequest
		want int
	}{
		{"one-record sync", sync(1, 2, 1), 66},
		{"empty sync", sync(1, 2, 0), 21},
		{"8-record sync", sync(1, 2, 8), 374},
		{"33-record sync", sync(1, 2, 33), 1474},
		{"128-record sync", sync(1, 2, 128), 5655}, // the count takes a second byte
		{"one-record sync, one message", sealed(1), 66},
		{"8-record sync, one message", sealed(8), 179}, // the width takes a second byte
		{"33-record sync, one message", sealed(33), 579},
		{"setup", GatewayRequest{ID: 1, Owner: owner, Req: Request{Type: MsgSetup, Seq: 1, Sealed: batch(1)}}, 66},
		{"Q1", ask(0, 0), 26},
		{"Q2", ask(1, 0), 26},
		{"Q3", ask(2, 0), 26},
		{"Q4", ask(3, 0), 26},
		{"Q2 bounded at 5", ask(1, 5), 27},
		{"Q2 bounded at 2^64-1", ask(1, maxU64), 36},
		{"stats", GatewayRequest{ID: 1, Owner: owner, Req: Request{Type: MsgStats}}, 19},
		{"resume", GatewayRequest{ID: 1, Owner: owner, Req: Request{Type: MsgResume}}, 19},
		{"sync id 127", sync(127, 2, 1), 66},
		{"sync id 128", sync(128, 2, 1), 67},
		{"sync id 16383", sync(16383, 2, 1), 67},
		{"sync id 16384", sync(16384, 2, 1), 68},
		{"sync id 2^64-1", sync(maxU64, 2, 1), 75},
		{"sync seq 127", sync(1, 127, 1), 66},
		{"sync seq 128", sync(1, 128, 1), 67},
		{"sync seq 16383", sync(1, 16383, 1), 67},
		{"sync seq 16384", sync(1, 16384, 1), 68},
		{"sync seq 2^64-1", sync(1, maxU64, 1), 75},
		{"one-record sync, one message, handle 1", byHandle(sealed(1), 1), 55},
		{"one-record sync, one message, handle 127", byHandle(sealed(1), 127), 55},
		{"one-record sync, one message, handle 128", byHandle(sealed(1), 128), 56},
		{"one-record sync, one message, handle 4096", byHandle(sealed(1), MaxBindings), 56},
		{"one-record sync, one message, handle 2^64-1", byHandle(sealed(1), maxU64), 64},
		{"8-record sync, one message, handle 1", byHandle(sealed(8), 1), 168},
		{"setup, handle 1", byHandle(GatewayRequest{ID: 1, Req: Request{Type: MsgSetup, Seq: 1, Sealed: batch(1)}}, 1), 55},
		{"Q2, handle 1", byHandle(ask(1, 0), 1), 15},
		{"Q2 bounded at 5, handle 1", byHandle(ask(1, 5), 1), 16},
		{"Q2, handle 1000", byHandle(ask(1, 0), 1000), 16},
		{"stats, handle 1", byHandle(GatewayRequest{ID: 1, Req: Request{Type: MsgStats}}, 1), 8},
		{"resume, handle 1", byHandle(GatewayRequest{ID: 1, Req: Request{Type: MsgResume}}, 1), 8},
	}
	for _, tc := range requests {
		got, ref := framedRequest(t, tc.g), refRequest(tc.g)
		if len(got) != tc.want || !bytes.Equal(got, ref) {
			t.Errorf("request %s: %d bytes on the wire (reference %d), want %d", tc.name, len(got), len(ref), tc.want)
		}
	}

	answer := func(id uint64, a AnswerSpec) GatewayResponse {
		return GatewayResponse{ID: id, Resp: Response{OK: true, Answer: &a, Cost: cost}}
	}
	responses := []struct {
		name string
		g    GatewayResponse
		want int
	}{
		{"ack", GatewayResponse{ID: 1, Resp: Response{OK: true}}, 6},
		{"ack id 127", GatewayResponse{ID: 127, Resp: Response{OK: true}}, 6},
		{"ack id 128", GatewayResponse{ID: 128, Resp: Response{OK: true}}, 7},
		{"ack id 16383", GatewayResponse{ID: 16383, Resp: Response{OK: true}}, 7},
		{"ack id 16384", GatewayResponse{ID: 16384, Resp: Response{OK: true}}, 8},
		{"ack id 2^64-1", GatewayResponse{ID: maxU64, Resp: Response{OK: true}}, 15},
		{"Q1 answer", answer(1, AnswerSpec{Scalar: 412}), 26},
		{"Q3 answer", answer(1, AnswerSpec{Scalar: 1e9}), 26},
		{"Q4 answer", answer(1, AnswerSpec{Scalar: 0.25}), 26},
		{"Q2, 265 integer groups", answer(1, AnswerSpec{Groups: groups}), 1088},
		{"Q2, one non-integer group", answer(1, AnswerSpec{Groups: noisy}), 2148},
		{"stats", GatewayResponse{ID: 1, Resp: NewStatsResponse(edb.StorageStats{Records: 12, Bytes: 12288, Updates: 3}, "ObliDB", 0)}, 18},
		{"resume", GatewayResponse{ID: 1, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 42}}}, 7},
		{"resume at 2^64-1", GatewayResponse{ID: 1, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: maxU64}}}, 16},
		// A duplicate's ack carries the owner's clock: a resume answer's bytes.
		{"duplicate ack at clock 2", GatewayResponse{ID: 1, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 2}}}, 7},
		// A refusal without a text is nine bytes whatever it refuses (49 and 56
		// for the first two under codec 3, which sent the sentence along).
		{"backpressure", GatewayResponse{ID: 1, Resp: Refuse(CodeBackpressure, 0, "")}, 9},
		{"stale at offset 16", GatewayResponse{ID: 1, Resp: Refuse(CodeStale, 16, "")}, 9},
		{"stale at offset 2^64-1", GatewayResponse{ID: 1, Resp: Refuse(CodeStale, maxU64, "")}, 18},
		{"not-primary", GatewayResponse{ID: 1, Resp: Refuse(CodeNotPrimary, 0, "")}, 9},
		{"not-setup", GatewayResponse{ID: 1, Resp: Refuse(CodeNotSetup, 0, "")}, 9},
		{"seq-gap expecting 2", GatewayResponse{ID: 1, Resp: Refuse(CodeSeqGap, 2, "")}, 9},
		{"suspended", GatewayResponse{ID: 1, Resp: Refuse(CodeSuspended, 0, "")}, 9},
		{"closing", GatewayResponse{ID: 1, Resp: Refuse(CodeClosing, 0, "")}, 9},
		{"bad-request, 25-byte text", GatewayResponse{ID: 1, Resp: Refuse(CodeBadRequest, 0, "gateway: unbound handle 7")}, 34},
		{"failed, 24-byte text", GatewayResponse{ID: 1, Resp: Refuse(CodeFailed, 0, "edb: database not set up")}, 33},
	}
	for _, tc := range responses {
		got, ref := framedResponse(t, tc.g), refResponse(tc.g)
		if len(got) != tc.want || !bytes.Equal(got, ref) {
			t.Errorf("response %s: %d bytes on the wire (reference %d), want %d", tc.name, len(got), len(ref), tc.want)
		}
	}
}

// TestCodecMatchesReferenceEncoder is the seeded differential: for 10,000
// generated messages — counters at every varint boundary, owners by name and
// by handle, batches of every shape, answers that are counts, almost counts
// and not numbers at all —
// decode(ref(x)) == x == decode(Append(x)) and the two encodings are the
// same bytes.
func TestCodecMatchesReferenceEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	counter := func() uint64 {
		edges := []uint64{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<64 - 1}
		switch rng.Intn(3) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return uint64(rng.Intn(300))
		default:
			return rng.Uint64() >> rng.Intn(64)
		}
	}
	text := func(max int) string {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return string(b)
	}
	group := func() float64 {
		specials := []float64{0, 1, 1<<32 - 1, 1 << 32, -1, 0.5, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, 5e-324}
		if rng.Intn(8) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return float64(rng.Intn(50))
	}
	for i := 0; i < 5000; i++ {
		g := GatewayRequest{ID: counter()}
		if h := counter(); h > 0 && rng.Intn(3) == 0 {
			g.Handle = h
		} else {
			g.Owner = string(rune('a'+rng.Intn(26))) + text(MaxOwnerLen-1)
		}
		switch rng.Intn(5) {
		case 0, 1:
			g.Req.Type = []MsgType{MsgSetup, MsgUpdate}[rng.Intn(2)]
			g.Req.Seq = counter()
			if n, width := rng.Intn(40), 1+rng.Intn(64); n > 0 {
				g.Req.Sealed = make([][]byte, n)
				for j := range g.Req.Sealed {
					g.Req.Sealed[j] = make([]byte, width)
					rng.Read(g.Req.Sealed[j])
				}
			}
		case 2:
			g.Req.Type = MsgQuery
			g.Req.Query = &QuerySpec{Kind: rng.Intn(256), Provider: uint8(rng.Intn(256)), JoinWith: uint8(rng.Intn(256)),
				Lo: uint16(rng.Intn(1 << 16)), Hi: uint16(rng.Intn(1 << 16))}
			if rng.Intn(2) == 0 {
				g.Req.MinOffset = counter()
			}
		case 3:
			g.Req.Type = MsgStats
		case 4:
			g.Req.Type = MsgResume
		}
		got, ref := framedRequest(t, g), refRequest(g)
		if !bytes.Equal(got, ref) {
			t.Fatalf("request %d %+v:\n codec     %x\n reference %x", i, g, got, ref)
		}
		back, err := CodecBinary.DecodeGatewayRequest(ref[4:])
		if err != nil || !reflect.DeepEqual(back, g) {
			t.Fatalf("request %d: decoded %+v (%v), want %+v", i, back, err, g)
		}
	}
	for i := 0; i < 5000; i++ {
		g := GatewayResponse{ID: counter()}
		r := &g.Resp
		if rng.Intn(4) == 0 {
			// A refusal travels alone; only the codes that carry a cursor or a
			// text draw one.
			ref := &Refusal{Code: RefusalCode(1 + rng.Intn(9))}
			switch ref.Code {
			case CodeStale, CodeSeqGap:
				ref.Cursor = counter()
			case CodeBadRequest, CodeFailed:
				ref.Detail = text(200)
			}
			r.Refusal = ref
		} else {
			r.OK = true
			if rng.Intn(2) == 0 {
				r.Answer = &AnswerSpec{Scalar: group()}
				if n := rng.Intn(300); rng.Intn(3) > 0 && n > 0 {
					r.Answer.Groups = make([]float64, n)
					for j := range r.Answer.Groups {
						r.Answer.Groups[j] = float64(rng.Intn(50))
					}
					if rng.Intn(2) == 0 { // one value, anywhere, decides the width of all
						r.Answer.Groups[rng.Intn(n)] = group()
					}
				}
			}
			if rng.Intn(2) == 0 {
				r.Cost = &CostSpec{Seconds: rng.Float64(), RecordsScanned: int64(counter()), PairsCompared: int64(counter())}
			}
			if rng.Intn(4) == 0 {
				r.Stats = &StatsSpec{Records: int(counter()), Bytes: int64(counter()), Updates: int(counter()),
					Scheme: text(40), Leakage: rng.Intn(256)}
			}
			if rng.Intn(4) == 0 {
				r.Resume = &ResumeSpec{Clock: counter()}
			}
		}
		got, ref := framedResponse(t, g), refResponse(g)
		if !bytes.Equal(got, ref) {
			t.Fatalf("response %d %+v:\n codec     %x\n reference %x", i, g, got, ref)
		}
		back, err := CodecBinary.DecodeGatewayResponse(ref[4:])
		if err != nil {
			t.Fatalf("response %d %+v: %v", i, g, err)
		}
		gotRest, gotBits := floatBits(back.Resp)
		wantRest, wantBits := floatBits(g.Resp)
		if back.ID != g.ID || !reflect.DeepEqual(gotRest, wantRest) || !reflect.DeepEqual(gotBits, wantBits) {
			t.Fatalf("response %d: decoded %+v, want %+v", i, back, g)
		}
	}
}

// floatBits takes the floats out of a response and returns them as bits, so
// that two responses compare with NaN equal to itself and −0 apart from 0.
func floatBits(r Response) (Response, []uint64) {
	var bits []uint64
	if r.Answer != nil {
		a := *r.Answer
		bits = append(bits, math.Float64bits(a.Scalar))
		for _, v := range a.Groups {
			bits = append(bits, math.Float64bits(v))
		}
		a.Scalar, a.Groups = 0, nil
		r.Answer = &a
	}
	if r.Cost != nil {
		c := *r.Cost
		bits = append(bits, math.Float64bits(c.Seconds))
		c.Seconds = 0
		r.Cost = &c
	}
	return r, bits
}
