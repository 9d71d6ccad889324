package wire

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"dpsync/internal/edb"
	"dpsync/internal/query"
)

// The reference encoder: the layout written out a second time, byte by byte,
// sharing nothing with binary.go or internal/binfmt — no helper, no constant,
// not even the rule that gives an answer's width (refWidth). The sizes below
// and the differential hold the codec to it.

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

// refFrame is a payload as it goes on the wire: its length leads, as a
// uvarint in the fewest bytes that hold it.
func refFrame(p []byte) []byte {
	return append(refUvarint(nil, uint64(len(p))), p...)
}

// refRequest encodes a request the codec accepts (the guards are tested on
// their own), unframed.
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
		q := g.Req.Query
		p = append(p, 3, byte(q.Kind), q.Provider, q.JoinWith, byte(q.Lo>>8), byte(q.Lo), byte(q.Hi>>8), byte(q.Hi))
	case MsgStats:
		p = append(p, 4)
	case MsgResume:
		p = append(p, 5)
	}
	return p
}

func refResponse(g GatewayResponse) []byte {
	r := g.Resp
	var values []float64
	if r.Answer != nil {
		values = r.Answer.Groups
		if len(values) == 0 {
			values = []float64{r.Answer.Scalar}
		}
	}
	var flags byte
	for bit, set := range []bool{r.OK, r.Refusal != nil, r.Answer != nil && len(r.Answer.Groups) == 0, r.Cost != nil,
		r.Stats != nil, r.Resume != nil, r.Answer != nil && len(r.Answer.Groups) > 0} {
		if set {
			flags |= 1 << bit
		}
	}
	p := append(refUvarint(nil, g.ID), flags)
	if r.Refusal != nil {
		p = append(p, map[RefusalCode]byte{CodeBackpressure: 1, CodeNotPrimary: 3, CodeNotSetup: 4,
			CodeSeqGap: 5, CodeSuspended: 6, CodeClosing: 7, CodeBadRequest: 8, CodeFailed: 9}[r.Refusal.Code])
		p = refUvarint(p, r.Refusal.Cursor)
		p = append(refUvarint(p, uint64(len(r.Refusal.Detail))), r.Refusal.Detail...)
	}
	if r.Answer != nil && r.Answer.Width == 0x82 {
		// The index layout: one 2-byte index a slot — each group's once per
		// record it counted, group by group — then the pad, the group count.
		p = append(p, 0x82)
		p = refUvarint(refUvarint(p, uint64(len(values))), uint64(r.Answer.Slots))
		left := r.Answer.Slots
		for z, v := range values {
			for j := 0; j < int(v); j++ {
				p = refBigEndian(p, uint64(z), 2)
			}
			left -= int(v)
		}
		for ; left > 0; left-- {
			p = refBigEndian(p, uint64(len(values)), 2)
		}
	} else if r.Answer != nil {
		width := int(r.Answer.Width)
		p = append(p, byte(width))
		if len(r.Answer.Groups) > 0 {
			p = refUvarint(p, uint64(len(values)))
		}
		for _, v := range values {
			if width == 0 {
				p = refBigEndian(p, math.Float64bits(v), 8)
			} else {
				p = refBigEndian(p, uint64(v), width)
			}
		}
	}
	if r.Cost != nil {
		p = refUvarint(p, uint64(r.Cost.RecordsScanned))
		p = refUvarint(p, uint64(r.Cost.PairsCompared))
	}
	if r.Stats != nil {
		p = refUvarint(p, uint64(r.Stats.Records))
		p = refUvarint(p, uint64(r.Stats.Bytes))
		p = refUvarint(p, uint64(r.Stats.Updates))
	}
	if r.Resume != nil {
		p = refUvarint(p, r.Resume.Clock)
	}
	return p
}

// refWidth is the width rule written out again, in arbitrary precision: the
// bound a store of v records puts on every exact answer of kind k — v
// records, v² pairs, v·(2³² − 1) fare cents — and the least of 1, 2, 4 and 8
// bytes that holds it (8 bytes hold the counts to 2⁵³), floats past that.
func refWidth(k query.Kind, v uint64) Width {
	bound := new(big.Int).SetUint64(v)
	switch k {
	case query.JoinCount:
		bound.Mul(bound, bound)
	case query.SumFare:
		bound.Mul(bound, big.NewInt(1<<32-1))
	}
	for _, w := range []uint{1, 2, 4, 8} {
		limit := new(big.Int).Lsh(big.NewInt(1), 8*w)
		limit.Sub(limit, big.NewInt(1))
		if w == 8 {
			limit.Lsh(big.NewInt(1), 53)
		}
		if bound.Cmp(limit) <= 0 {
			return Width(w)
		}
	}
	return 0
}

// refIndexed is the index layout's rule written out again: a vector of n
// exact counts from a store of v records, whose counts sum to at most v,
// travels as v 2-byte indices behind their count's varint when that is
// fewer bytes than its n values at the bound's width w — and never on more
// groups than a 2-byte index can pad.
func refIndexed(n int, v uint64, w Width, sum float64) bool {
	if n > 65535 || sum > float64(v) || w == 0 {
		return false
	}
	indices := new(big.Int).SetUint64(v)
	indices.Mul(indices, big.NewInt(2))
	indices.Add(indices, big.NewInt(int64(len(refUvarint(nil, v)))))
	return indices.Cmp(big.NewInt(int64(n)*int64(w))) < 0
}

// spreadQ2 is a Q2 answer that counts n records spread over the zones.
func spreadQ2(n int) query.Answer {
	groups := make([]float64, 265)
	for i := 0; i < n; i++ {
		groups[i*37%265]++
	}
	return query.Answer{Groups: groups}
}

// indexSlots is the Slots an answer from a store of v records carries at
// width w: v indices in the index layout, none at any other width.
func indexSlots(w Width, v int) int {
	if w == WidthIndex {
		return v
	}
	return 0
}

// framedRequest and framedResponse are the message as Conn puts it on the
// wire: the Append encoder's bytes behind the header EndFrame writes — which
// moves a payload of 128 bytes or more up, behind a wider header than the
// one byte BeginFrame reserved.
func framedRequest(t *testing.T, g GatewayRequest) []byte {
	t.Helper()
	c := NewConn(&fakeConn{})
	b, err := AppendGatewayRequest(c.BeginFrame(), g)
	if err != nil {
		t.Fatalf("encode %+v: %v", g, err)
	}
	return endFrame(t, c, b)
}

func framedResponse(t *testing.T, g GatewayResponse) []byte {
	t.Helper()
	c := NewConn(&fakeConn{})
	b, err := AppendGatewayResponse(c.BeginFrame(), g)
	if err != nil {
		t.Fatalf("encode %+v: %v", g, err)
	}
	return endFrame(t, c, b)
}

// endFrame commits the one frame b opened on c and returns its bytes, held
// to the size EndFrame reports.
func endFrame(t *testing.T, c *Conn, b []byte) []byte {
	t.Helper()
	n, err := c.EndFrame(b)
	if err != nil || n != len(c.wbuf) {
		t.Fatalf("EndFrame = %d, %v for a %d-byte frame", n, err, len(c.wbuf))
	}
	return c.wbuf
}

// TestFrameSizes pins what each message costs on the wire, to the byte,
// frame header included — the payload's length as a uvarint, 1 byte below
// 128 and 2 below 16 KiB (codec 7 spent 4): these are the numbers
// `wire_bytes_per_op` is made of, and they are exact — a function of the
// message, never an estimate. The
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
	ask := func(kind int) GatewayRequest {
		return GatewayRequest{ID: 1, Owner: owner, Req: Request{Type: MsgQuery,
			Query: &QuerySpec{Kind: kind, Provider: 1, JoinWith: 2, Lo: 50, Hi: 100}}}
	}
	// byHandle is g as a connection that bound its owner to h sends it.
	byHandle := func(g GatewayRequest, h uint64) GatewayRequest {
		g.Owner, g.Handle = "", h
		return g
	}
	cost := edb.Cost{Seconds: 0.004, RecordsScanned: 1000}
	groups := make([]float64, 265)
	for i := range groups {
		groups[i] = float64(i % 9)
	}
	noisy := append([]float64{}, groups...)
	noisy[200] = 3.5
	// stored is Q2's answer from a store of v records, a quarter of them
	// dummies.
	stored := func(v int) query.Answer { return spreadQ2(v - v/4) }
	const maxU64 = 1<<64 - 1

	requests := []struct {
		name string
		g    GatewayRequest
		want int
	}{
		{"one-record sync", sync(1, 2, 1), 63},
		{"empty sync", sync(1, 2, 0), 18},
		{"8-record sync", sync(1, 2, 8), 372},
		{"33-record sync", sync(1, 2, 33), 1472},
		{"128-record sync", sync(1, 2, 128), 5653}, // the count takes a second byte
		{"one-record sync, one message", sealed(1), 63},
		{"8-record sync, one message", sealed(8), 177}, // the width and the frame length take a second byte
		{"33-record sync, one message", sealed(33), 577},
		{"setup", GatewayRequest{ID: 1, Owner: owner, Req: Request{Type: MsgSetup, Seq: 1, Sealed: batch(1)}}, 63},
		{"Q1", ask(0), 23},
		{"Q2", ask(1), 23},
		{"Q3", ask(2), 23},
		{"Q4", ask(3), 23},
		{"stats", GatewayRequest{ID: 1, Owner: owner, Req: Request{Type: MsgStats}}, 16},
		{"resume", GatewayRequest{ID: 1, Owner: owner, Req: Request{Type: MsgResume}}, 16},
		{"sync id 127", sync(127, 2, 1), 63},
		{"sync id 128", sync(128, 2, 1), 64},
		{"sync id 16383", sync(16383, 2, 1), 64},
		{"sync id 16384", sync(16384, 2, 1), 65},
		{"sync id 2^64-1", sync(maxU64, 2, 1), 72},
		{"sync seq 127", sync(1, 127, 1), 63},
		{"sync seq 128", sync(1, 128, 1), 64},
		{"sync seq 16383", sync(1, 16383, 1), 64},
		{"sync seq 16384", sync(1, 16384, 1), 65},
		{"sync seq 2^64-1", sync(1, maxU64, 1), 72},
		{"one-record sync, one message, handle 1", byHandle(sealed(1), 1), 52},
		{"one-record sync, one message, handle 127", byHandle(sealed(1), 127), 52},
		{"one-record sync, one message, handle 128", byHandle(sealed(1), 128), 53},
		{"one-record sync, one message, handle 4096", byHandle(sealed(1), MaxBindings), 53},
		{"one-record sync, one message, handle 2^64-1", byHandle(sealed(1), maxU64), 61},
		{"8-record sync, one message, handle 1", byHandle(sealed(8), 1), 166},
		{"setup, handle 1", byHandle(GatewayRequest{ID: 1, Req: Request{Type: MsgSetup, Seq: 1, Sealed: batch(1)}}, 1), 52},
		{"Q2, handle 1", byHandle(ask(1), 1), 12},
		{"Q2, handle 1000", byHandle(ask(1), 1000), 13},
		{"stats, handle 1", byHandle(GatewayRequest{ID: 1, Req: Request{Type: MsgStats}}, 1), 5},
		{"resume, handle 1", byHandle(GatewayRequest{ID: 1, Req: Request{Type: MsgResume}}, 1), 5},
	}
	for _, tc := range requests {
		got, ref := framedRequest(t, tc.g), refFrame(refRequest(tc.g))
		if len(got) != tc.want || !bytes.Equal(got, ref) {
			t.Errorf("request %s: %d bytes on the wire (reference %d), want %d", tc.name, len(got), len(ref), tc.want)
		}
	}

	// bounded is the gateway's answer to a query of kind k from a store of v
	// records; unbounded an answer no bound was applied to.
	bounded := func(k query.Kind, v int, ans query.Answer) GatewayResponse {
		return GatewayResponse{ID: 1, Resp: NewBoundedQueryResponse(ans, cost, k, v)}
	}
	unbounded := func(ans query.Answer) GatewayResponse {
		return GatewayResponse{ID: 1, Resp: NewQueryResponse(ans, cost)}
	}
	count := query.Answer{Scalar: 200}
	q2, q2noisy := query.Answer{Groups: groups}, query.Answer{Groups: noisy}
	responses := []struct {
		name string
		g    GatewayResponse
		want int
	}{
		{"ack", GatewayResponse{ID: 1, Resp: Response{OK: true}}, 3},
		{"ack id 127", GatewayResponse{ID: 127, Resp: Response{OK: true}}, 3},
		{"ack id 128", GatewayResponse{ID: 128, Resp: Response{OK: true}}, 4},
		{"ack id 16383", GatewayResponse{ID: 16383, Resp: Response{OK: true}}, 4},
		{"ack id 16384", GatewayResponse{ID: 16384, Resp: Response{OK: true}}, 5},
		{"ack id 2^64-1", GatewayResponse{ID: maxU64, Resp: Response{OK: true}}, 12},
		// An answer: frame header, id, flags, width, [group count], values,
		// and the cost section — its two counts, 3 bytes here (codec 7 sent
		// the seconds too, 8 more, behind a 4-byte header: 11 B more below a
		// 128-byte payload). Its width is the least that holds the bound the
		// store's size puts on the kind's exact answers.
		{"Q1 at V=255", bounded(query.RangeCount, 255, count), 8},
		{"Q1 at V=256", bounded(query.RangeCount, 256, count), 9},
		{"Q1 at V=65535", bounded(query.RangeCount, 65535, count), 9},
		{"Q1 at V=65536", bounded(query.RangeCount, 65536, count), 11},
		{"Q1 at V=2^32", bounded(query.RangeCount, 1<<32, count), 15},
		{"Q1, a noisy count, at V=255", bounded(query.RangeCount, 255, query.Answer{Scalar: 200.25}), 15},
		{"Q3 at V=15", bounded(query.JoinCount, 15, count), 8},
		{"Q3 at V=16", bounded(query.JoinCount, 16, count), 9},
		{"Q3 at V=256", bounded(query.JoinCount, 256, count), 11},
		{"Q3 at V=65536", bounded(query.JoinCount, 65536, count), 15},
		{"Q4 at V=0", bounded(query.SumFare, 0, query.Answer{}), 8},
		{"Q4 at V=1", bounded(query.SumFare, 1, count), 11},
		{"Q4 at V=2", bounded(query.SumFare, 2, count), 15},
		{"Q2 at V=255", bounded(query.GroupCount, 255, q2), 275},
		{"Q2 at V=256", bounded(query.GroupCount, 256, q2), 540},
		{"Q2 at V=65536", bounded(query.GroupCount, 65536, q2), 1070},
		{"Q2 at V=2^32", bounded(query.GroupCount, 1<<32, q2), 2130},
		{"Q2, one non-integer group, at V=255", bounded(query.GroupCount, 255, q2noisy), 2130},
		// Below the crossover a Q2 whose counts sum to at most V travels as
		// V indices: code, group count, index count, 2 bytes an index.
		{"Q2 as indices at V=0", bounded(query.GroupCount, 0, stored(0)), 10},
		{"Q2 as indices at V=1", bounded(query.GroupCount, 1, stored(1)), 12},
		{"Q2 as indices at V=7", bounded(query.GroupCount, 7, stored(7)), 24},
		{"Q2 as indices at V=127", bounded(query.GroupCount, 127, stored(127)), 265},
		{"Q2 as indices at V=128", bounded(query.GroupCount, 128, stored(128)), 268}, // the index count takes a second byte
		{"Q2 as indices at V=131", bounded(query.GroupCount, 131, stored(131)), 274},
		{"Q2 at V=132", bounded(query.GroupCount, 132, stored(132)), 275},                        // one byte a group is shorter
		{"Q2 as indices at V=256", bounded(query.GroupCount, 256, stored(256)), 524},             // shorter than two bytes a group
		{"Q2 summing past V=7", bounded(query.GroupCount, 7, query.Answer{Groups: groups}), 275}, // no exact answer does
		// No bound applied: codec 5's widths, less its zero scalar beside
		// groups (26, 1,088 and 2,148 bytes under codec 5).
		{"Q1, no bound", unbounded(count), 15},
		{"Q2, no bound", unbounded(q2), 1070},
		{"Q2, one non-integer group, no bound", unbounded(q2noisy), 2130},
		// Storage alone (15 under codec 9, which named the scheme and class
		// in every stats answer; the hello ack states them once).
		{"stats", GatewayResponse{ID: 1, Resp: NewStatsResponse(edb.StorageStats{Records: 12, Bytes: 12288, Updates: 3})}, 7},
		{"resume", GatewayResponse{ID: 1, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 42}}}, 4},
		{"resume at 2^64-1", GatewayResponse{ID: 1, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: maxU64}}}, 13},
		// A duplicate's ack carries the owner's clock: a resume answer's bytes.
		{"duplicate ack at clock 2", GatewayResponse{ID: 1, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 2}}}, 4},
		// A refusal without a text is six bytes whatever it refuses (49 and 56
		// for the first two under codec 3, which sent the sentence along).
		{"backpressure", GatewayResponse{ID: 1, Resp: Refuse(CodeBackpressure, 0, "")}, 6},
		{"not-primary", GatewayResponse{ID: 1, Resp: Refuse(CodeNotPrimary, 0, "")}, 6},
		{"not-setup", GatewayResponse{ID: 1, Resp: Refuse(CodeNotSetup, 0, "")}, 6},
		{"seq-gap expecting 2", GatewayResponse{ID: 1, Resp: Refuse(CodeSeqGap, 2, "")}, 6},
		{"seq-gap expecting 2^64-1", GatewayResponse{ID: 1, Resp: Refuse(CodeSeqGap, maxU64, "")}, 15},
		{"suspended", GatewayResponse{ID: 1, Resp: Refuse(CodeSuspended, 0, "")}, 6},
		{"closing", GatewayResponse{ID: 1, Resp: Refuse(CodeClosing, 0, "")}, 6},
		{"bad-request, 25-byte text", GatewayResponse{ID: 1, Resp: Refuse(CodeBadRequest, 0, "gateway: unbound handle 7")}, 31},
		{"failed, 24-byte text", GatewayResponse{ID: 1, Resp: Refuse(CodeFailed, 0, "edb: database not set up")}, 30},
	}
	for _, tc := range responses {
		got, ref := framedResponse(t, tc.g), refFrame(refResponse(tc.g))
		if len(got) != tc.want || !bytes.Equal(got, ref) {
			t.Errorf("response %s: %d bytes on the wire (reference %d), want %d", tc.name, len(got), len(ref), tc.want)
		}
	}

	// The hello ack, unframed: codec, class, the scheme's length, its name
	// (one byte, the codec's alone, before codec 10).
	acks := []struct {
		name string
		be   Backend
		want int
	}{
		{"ObliDB", Backend{Scheme: "ObliDB", Leakage: edb.L0}, 9},
		{"Crypteps", Backend{Scheme: "Crypteps", Leakage: edb.LDP}, 11},
		{"unidentified", Backend{Scheme: "unidentified", Leakage: edb.L2}, 15},
	}
	for _, tc := range acks {
		var got bytes.Buffer
		if err := WriteHelloAck(&got, tc.be); err != nil {
			t.Fatal(err)
		}
		ref := append([]byte{10, byte(tc.be.Leakage), byte(len(tc.be.Scheme))}, tc.be.Scheme...)
		if got.Len() != tc.want || !bytes.Equal(got.Bytes(), ref) {
			t.Errorf("hello ack %s: % x (reference % x), want %d bytes", tc.name, got.Bytes(), ref, tc.want)
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
		case 3:
			g.Req.Type = MsgStats
		case 4:
			g.Req.Type = MsgResume
		}
		got, ref := framedRequest(t, g), refRequest(g)
		if !bytes.Equal(got, refFrame(ref)) {
			t.Fatalf("request %d %+v:\n codec     %x\n reference %x", i, g, got, refFrame(ref))
		}
		back, err := CodecBinary.DecodeGatewayRequest(ref)
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
			ref := &Refusal{Code: []RefusalCode{CodeBackpressure, CodeNotPrimary, CodeNotSetup, CodeSeqGap,
				CodeSuspended, CodeClosing, CodeBadRequest, CodeFailed}[rng.Intn(8)]}
			switch ref.Code {
			case CodeSeqGap:
				ref.Cursor = counter()
			case CodeBadRequest, CodeFailed:
				ref.Detail = text(200)
			}
			r.Refusal = ref
		} else {
			r.OK = true
			if rng.Intn(6) == 0 {
				// The index layout: counts that sum to at most its slots, the
				// rest of which are pads.
				n, slots := 1+rng.Intn(300), rng.Intn(400)
				r.Answer = &AnswerSpec{Width: WidthIndex, Groups: make([]float64, n), Slots: slots}
				for j := rng.Intn(slots + 1); j > 0; j-- {
					r.Answer.Groups[rng.Intn(n)]++
				}
			} else if rng.Intn(2) == 0 {
				// One width for the whole answer: any value for floats, and for
				// an integer width a count it holds, its edges included.
				w := []Width{WidthFloat, 1, 2, 4, 8}[rng.Intn(5)]
				value := func() float64 {
					switch {
					case w == WidthFloat:
						return group()
					case rng.Intn(4) == 0:
						return float64(w.maxCount())
					case rng.Intn(3) == 0:
						return 0
					}
					return float64(rng.Uint64() % (w.maxCount() + 1))
				}
				r.Answer = &AnswerSpec{Width: w}
				if n := rng.Intn(300); rng.Intn(3) > 0 && n > 0 {
					r.Answer.Groups = make([]float64, n)
					for j := range r.Answer.Groups {
						r.Answer.Groups[j] = value()
					}
				} else {
					r.Answer.Scalar = value()
				}
			}
			if rng.Intn(2) == 0 {
				r.Cost = &CostSpec{RecordsScanned: int64(counter()), PairsCompared: int64(counter())}
			}
			if rng.Intn(4) == 0 {
				r.Stats = &StatsSpec{Records: int(counter()), Bytes: int64(counter()), Updates: int(counter())}
			}
			if rng.Intn(4) == 0 {
				r.Resume = &ResumeSpec{Clock: counter()}
			}
		}
		got, ref := framedResponse(t, g), refResponse(g)
		if !bytes.Equal(got, refFrame(ref)) {
			t.Fatalf("response %d %+v:\n codec     %x\n reference %x", i, g, got, refFrame(ref))
		}
		back, err := CodecBinary.DecodeGatewayResponse(ref)
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
	return r, bits
}

// TestAnswerWidthRule holds the bound's width to refWidth, and a GroupCount
// vector's choice of indices to refIndexed, for every kind at every step and
// either side of it, and pins the fallbacks: an answer with a value that is
// not an exact count within the bound — a noisy one, or one past the bound —
// travels as floats, a vector whose counts sum past V at the bound's width,
// and an answer with no bound applied keeps codec 5's widths (4-byte groups,
// a float scalar).
func TestAnswerWidthRule(t *testing.T) {
	var sizes []uint64
	for _, step := range []uint64{1, 4, 16, 256, 65536, 1 << 21, 1 << 26, 1 << 32, 1 << 53} {
		sizes = append(sizes, step-1, step, step+1)
	}
	sizes = append(sizes, 0, 94906265, 94906266, 1<<63-1)
	answer := func(k query.Kind, v float64) query.Answer {
		if k == query.GroupCount {
			groups := make([]float64, 265)
			groups[264] = v
			return query.Answer{Groups: groups}
		}
		return query.Answer{Scalar: v}
	}
	for _, k := range []query.Kind{query.RangeCount, query.GroupCount, query.JoinCount, query.SumFare, 9} {
		for _, v := range sizes {
			want := refWidth(k, v)
			if k == 9 {
				want = WidthFloat
			}
			// layout is how an answer whose values sum to sum travels.
			layout := func(sum float64) Width {
				if k == query.GroupCount && refIndexed(265, v, want, sum) {
					return WidthIndex
				}
				return want
			}
			a := NewBoundedQueryResponse(answer(k, 0), edb.Cost{}, k, int(v)).Answer
			if a.Width != layout(0) || a.Slots != indexSlots(a.Width, int(v)) {
				t.Errorf("%v from %d records: width %#x and %d slots, want width %#x", k, v, a.Width, a.Slots, layout(0))
			}
			if want == WidthFloat || v >= 1<<53 {
				continue
			}
			top := float64(want.maxCount())
			if got := NewBoundedQueryResponse(answer(k, top), edb.Cost{}, k, int(v)).Answer.Width; got != layout(top) {
				t.Errorf("%v from %d records, the width's largest count: width %#x, want %#x", k, v, got, layout(top))
			}
			if got := NewBoundedQueryResponse(answer(k, 0.5), edb.Cost{}, k, int(v)).Answer.Width; got != WidthFloat {
				t.Errorf("%v from %d records, a noisy value: width %d, want floats", k, v, got)
			}
			if want < 8 {
				if got := NewBoundedQueryResponse(answer(k, float64(want.maxCount()+1)), edb.Cost{}, k, int(v)).Answer.Width; got != WidthFloat {
					t.Errorf("%v from %d records, a count past the width: width %d, want floats", k, v, got)
				}
			}
		}
	}
	// The index layout's edges: the crossover both ways — one byte a group
	// against V indices at V = 131 and 132, two bytes a group against them
	// at V = 255, 256, 263 and 264 — a vector whose counts sum past V, a
	// non-integer group, and the scalar kinds, which never take indices, not
	// even for a vector.
	noisy := spreadQ2(5)
	noisy.Groups[3] = 0.5
	for _, tc := range []struct {
		name string
		k    query.Kind
		v    int
		ans  query.Answer
		want Width
	}{
		{"at the crossover", query.GroupCount, 131, spreadQ2(131), WidthIndex},
		{"one past the crossover", query.GroupCount, 132, spreadQ2(132), 1},
		{"the 1-byte width's last V", query.GroupCount, 255, spreadQ2(200), 1},
		{"the 2-byte width's first V", query.GroupCount, 256, spreadQ2(256), WidthIndex},
		{"below the 2-byte crossover", query.GroupCount, 263, spreadQ2(263), WidthIndex},
		{"past the 2-byte crossover", query.GroupCount, 264, spreadQ2(264), 2},
		{"counts summing past V", query.GroupCount, 7, spreadQ2(8), 1},
		{"one non-integer group", query.GroupCount, 7, noisy, WidthFloat},
		{"Q1", query.RangeCount, 7, query.Answer{Scalar: 7}, 1},
		{"Q1 from no records", query.RangeCount, 0, query.Answer{}, 1},
		{"Q3", query.JoinCount, 7, query.Answer{Scalar: 49}, 1},
		{"Q4", query.SumFare, 1, query.Answer{Scalar: 7}, 4},
		{"a vector under Q1", query.RangeCount, 7, spreadQ2(7), 1},
		{"a vector under Q3", query.JoinCount, 7, spreadQ2(7), 1},
	} {
		a := NewBoundedQueryResponse(tc.ans, edb.Cost{}, tc.k, tc.v).Answer
		if a.Width != tc.want || a.Slots != indexSlots(tc.want, tc.v) {
			t.Errorf("%s (%v from %d records): width %#x with %d slots, want %#x", tc.name, tc.k, tc.v, a.Width, a.Slots, tc.want)
		}
	}
	for _, tc := range []struct {
		ans  query.Answer
		want Width
	}{
		{query.Answer{Scalar: 7}, WidthFloat},
		{spreadQ2(7), 4},
		{query.Answer{Groups: []float64{0, 7, 1<<32 - 1}}, 4},
		{query.Answer{Groups: []float64{0, 7, 1 << 32}}, WidthFloat},
		{query.Answer{Groups: []float64{0, math.Copysign(0, -1)}}, WidthFloat},
	} {
		if got := NewQueryResponse(tc.ans, edb.Cost{}).Answer.Width; got != tc.want {
			t.Errorf("no bound, %v: width %d, want %d", tc.ans, got, tc.want)
		}
	}
}
