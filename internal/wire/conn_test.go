package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/seal"
)

// fakeConn is a scripted transport: each entry of in is what one Read
// returns, every Write is recorded whole, and the calls that would reach a
// socket or its deadline timers are counted.
type fakeConn struct {
	net.Conn // nil: anything not overridden panics, which no test path reaches
	in       [][]byte
	writes   [][]byte
	reads    int
	readDL   int
	writeDL  int
	writeErr error
}

func (c *fakeConn) Read(p []byte) (int, error) {
	c.reads++
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.in[0])
	if c.in[0] = c.in[0][n:]; len(c.in[0]) == 0 {
		c.in = c.in[1:]
	}
	return n, nil
}

func (c *fakeConn) Write(p []byte) (int, error) {
	if c.writeErr != nil {
		return 0, c.writeErr
	}
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (c *fakeConn) SetReadDeadline(time.Time) error  { c.readDL++; return nil }
func (c *fakeConn) SetWriteDeadline(time.Time) error { c.writeDL++; return nil }

func framed(payloads ...string) []byte {
	var buf bytes.Buffer
	for _, p := range payloads {
		_ = WriteFrame(&buf, []byte(p))
	}
	return buf.Bytes()
}

// TestConnReadCoalesces pins the read half: one socket read yields every
// complete frame it carried, the read deadline is armed only for a frame
// that is not already buffered, and a payload buffer handed back is reused.
func TestConnReadCoalesces(t *testing.T) {
	long := strings.Repeat("c", 200) // behind a two-byte header
	tail := framed(long)
	nc := &fakeConn{in: [][]byte{
		append(framed("a", "bb", "ccc"), tail[:1]...), // three frames and a torn header
		tail[1:],
	}}
	c := NewConn(nc)
	c.ReadTimeout = time.Minute
	var buf []byte
	for i, want := range []string{"a", "bb", "ccc"} {
		var err error
		if buf, err = c.ReadFrame(buf); err != nil || string(buf) != want {
			t.Fatalf("frame %d = %q, %v; want %q", i, buf, err, want)
		}
	}
	if nc.reads != 1 || nc.readDL != 1 {
		t.Fatalf("three pipelined frames cost %d reads and %d deadline arms, want 1 and 1", nc.reads, nc.readDL)
	}
	if buf, _ = c.ReadFrame(nil); string(buf) != long {
		t.Fatalf("torn frame = %q", buf)
	}
	if nc.reads != 2 || nc.readDL != 2 {
		t.Fatalf("a torn frame must arm and read once more: %d reads, %d arms", nc.reads, nc.readDL)
	}
	first := &buf[:1][0]
	nc.in = [][]byte{framed("dd")}
	if buf, _ = c.ReadFrame(buf); string(buf) != "dd" || &buf[0] != first {
		t.Fatal("a payload buffer with room was not reused")
	}
	if fresh, _ := NewConn(&fakeConn{in: [][]byte{framed("x")}}).ReadFrame(nil); string(fresh) != "x" {
		t.Fatalf("nil buffer: %q", fresh)
	}
	if _, err := c.ReadFrame(nil); err != io.EOF {
		t.Fatalf("clean end of stream = %v, want bare io.EOF", err)
	}
}

// TestFrameHeader pins the frame header: a payload's length as a
// minimal-form uvarint — 1 byte below 128, 2 below 16 KiB, 3 below 2 MiB, 4
// to MaxFrame — held to the reference encoder's bytes as both writers put it
// on the wire (EndFrame moving a payload of 128 bytes or more up once, in
// place, behind the one byte BeginFrame reserved), read back by both readers
// when it arrives a byte a read, and refused on the byte that shows it —
// padded, a fifth byte, past MaxFrame — without an allocation.
func TestFrameHeader(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21} {
		payload := bytes.Repeat([]byte{0xA5}, n)
		want := append(refUvarint(nil, uint64(n)), payload...)
		hdr, got, err := FrameHeader(want)
		if err != nil || hdr != len(want)-n || got != n || FrameLen(n) != len(want) {
			t.Fatalf("%d-byte payload: header %d B for %d (%v), FrameLen %d; want %d B", n, hdr, got, err, FrameLen(n), len(want)-n)
		}
		for k := range hdr {
			if h, _, err := FrameHeader(want[:k]); h != 0 || err != nil {
				t.Fatalf("%d-byte payload: %d header bytes parse as a %d-byte header (%v)", n, k, h, err)
			}
		}
		var plain bytes.Buffer
		if err := WriteFrame(&plain, payload); err != nil || !bytes.Equal(plain.Bytes(), want) {
			t.Fatalf("%d-byte payload: WriteFrame wrote %d B (%v), want the reference's %d", n, plain.Len(), err, len(want))
		}
		nc := &fakeConn{}
		c := NewConn(nc)
		if m, err := c.EndFrame(append(c.BeginFrame(), payload...)); err != nil || m != len(want) || c.Flush() != nil {
			t.Fatalf("%d-byte payload: EndFrame = %d, %v", n, m, err)
		}
		if out := bytes.Join(nc.writes, nil); !bytes.Equal(out, want) {
			t.Fatalf("%d-byte payload: Conn wrote %d B, want the reference's %d", n, len(out), len(want))
		}
		bytewise := func() *fakeConn {
			nc := &fakeConn{}
			for i := range hdr {
				nc.in = append(nc.in, want[i:i+1])
			}
			nc.in = append(nc.in, want[hdr:])
			return nc
		}
		if back, err := NewConn(bytewise()).ReadFrame(nil); err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("%d-byte payload, header a byte a read: Conn read %d B, %v", n, len(back), err)
		}
		if back, err := ReadFrame(bytewise()); err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("%d-byte payload, header a byte a read: ReadFrame read %d B, %v", n, len(back), err)
		}
	}
	if h, n, err := FrameHeader(refUvarint(nil, MaxFrame)); h != 4 || n != MaxFrame || err != nil {
		t.Fatalf("MaxFrame: %d-byte header for %d (%v)", h, n, err)
	}
	for _, tc := range []struct {
		hdr  []byte
		want error
	}{
		{refUvarint(nil, MaxFrame+1), ErrFrameTooLarge},
		{[]byte{0xFF, 0xFF, 0xFF, 0xFF}, ErrBadFrame},
		{[]byte{0x80, 0x00}, ErrBadFrame},
		{[]byte{0xFF, 0x80, 0x00}, ErrBadFrame},
		{[]byte{0x80, 0x80, 0x80, 0x00}, ErrBadFrame},
	} {
		if _, _, err := FrameHeader(tc.hdr); !errors.Is(err, tc.want) {
			t.Errorf("header %x: %v, want %v", tc.hdr, err, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _, _ = FrameHeader(tc.hdr) }); allocs != 0 {
			t.Errorf("header %x: refused with %v allocations", tc.hdr, allocs)
		}
	}
	// In steady state a frame costs no allocation, its payload moved or not,
	// and reading one into a buffer with room costs none either.
	rc := NewConn(&fakeConn{in: [][]byte{bytes.Repeat(framed(strings.Repeat("x", 300)), 200)}})
	buf := make([]byte, 0, 300)
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = rc.ReadFrame(buf) }); allocs != 0 || string(buf) != strings.Repeat("x", 300) {
		t.Errorf("reading a frame: %v allocations", allocs)
	}
	c := NewConn(&fakeConn{})
	for _, n := range []int{5, 300} {
		payload := make([]byte, n)
		frame := func() {
			c.wbuf = c.wbuf[:0]
			_, _ = c.EndFrame(append(c.BeginFrame(), payload...))
		}
		frame()
		if allocs := testing.AllocsPerRun(100, frame); allocs != 0 {
			t.Errorf("a %d-byte payload's frame: %v allocations", n, allocs)
		}
	}
}

func TestConnReadErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		want error
	}{
		"torn header":  {in: []byte{0x85}, want: io.ErrUnexpectedEOF},
		"torn payload": {in: framed("abcdef")[:5], want: io.ErrUnexpectedEOF},
		"oversized":    {in: binary.AppendUvarint(nil, MaxFrame+1), want: ErrFrameTooLarge},
		"fifth byte":   {in: []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01}, want: ErrBadFrame},
		"padded":       {in: []byte{0x80, 0x00}, want: ErrBadFrame},
	} {
		if _, err := NewConn(&fakeConn{in: [][]byte{tc.in}}).ReadFrame(nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", name, err, tc.want)
		}
	}
}

// TestConnWriteCoalesces pins the write half: frames reach the socket only
// on Flush (one Write for all of them, byte-identical to WriteFrame's
// output), or when the buffer fills; a frame that fails to encode or is too
// large leaves no trace; the write deadline is armed once per socket write.
func TestConnWriteCoalesces(t *testing.T) {
	nc := &fakeConn{}
	c := NewConn(nc)
	c.WriteTimeout = time.Minute
	if err := c.WriteFrame([]byte("a")); err != nil {
		t.Fatal(err)
	}
	_ = c.BeginFrame() // an abandoned frame: its encoder failed
	if _, err := c.EndFrame(append(c.BeginFrame(), make([]byte, MaxFrame+1)...)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	b, err := AppendGatewayResponse(c.BeginFrame(), GatewayResponse{ID: 7, Resp: Response{OK: true}})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.EndFrame(b); err != nil || n != 1+2 {
		t.Fatalf("EndFrame = %d, %v; want the frame's 3 wire bytes", n, err)
	}
	if len(nc.writes) != 0 {
		t.Fatalf("%d socket writes before Flush", len(nc.writes))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, _ := CodecBinary.EncodeGatewayResponse(GatewayResponse{ID: 7, Resp: Response{OK: true}})
	var want bytes.Buffer
	_ = WriteFrame(&want, []byte("a"))
	_ = WriteFrame(&want, resp)
	if len(nc.writes) != 1 || !bytes.Equal(nc.writes[0], want.Bytes()) || nc.writeDL != 1 {
		t.Fatalf("flush: %d writes (%d deadline arms) %x, want one write of %x", len(nc.writes), nc.writeDL, nc.writes, want.Bytes())
	}
	if err := c.Flush(); err != nil || len(nc.writes) != 1 {
		t.Fatal("an empty flush reached the socket")
	}

	// A buffer past its threshold writes itself out.
	big := make([]byte, connBufSize/2)
	for i := 0; i < 2; i++ {
		if err := c.WriteFrame(big); err != nil {
			t.Fatal(err)
		}
	}
	if len(nc.writes) != 2 || len(nc.writes[1]) != 2*(len(refUvarint(nil, uint64(len(big))))+len(big)) {
		t.Fatalf("full buffer: %d writes", len(nc.writes))
	}

	nc.writeErr = errors.New("boom")
	_ = c.WriteFrame([]byte("x"))
	if err := c.Flush(); !errors.Is(err, nc.writeErr) {
		t.Fatalf("flush error = %v", err)
	}
}

// TestAppendEncodersAllocateNothing pins the in-place encoders: into a
// buffer with room, building a frame allocates nothing.
func TestAppendEncodersAllocateNothing(t *testing.T) {
	spec := QuerySpec{Kind: 2, Provider: 1, Lo: 3, Hi: 9}
	reqs := []GatewayRequest{
		{ID: 1, Owner: "owner-17", Req: Request{Type: MsgUpdate, Seq: 4, Sealed: [][]byte{make([]byte, 60), make([]byte, 60)}}},
		{ID: 2, Owner: "owner-17", Req: Request{Type: MsgQuery, Query: &spec}},
	}
	resps := []GatewayResponse{
		{ID: 1, Resp: Response{OK: true}},
		{ID: 2, Resp: NewQueryResponse(query.Answer{Groups: make([]float64, 8)}, edb.Cost{})},
		{ID: 2, Resp: NewBoundedQueryResponse(query.Answer{Groups: make([]float64, 265)}, edb.Cost{}, query.GroupCount, 300)},
		{ID: 2, Resp: NewBoundedQueryResponse(query.Answer{Scalar: 7}, edb.Cost{}, query.SumFare, 300)},
		{ID: 3, Resp: Refuse(CodeBackpressure, 0, "")},
	}
	buf := make([]byte, 0, 4096)
	for i, g := range reqs {
		if n := testing.AllocsPerRun(100, func() { _, _ = AppendGatewayRequest(buf, g) }); n != 0 {
			t.Errorf("AppendGatewayRequest[%d]: %v allocs/op into a sized buffer", i, n)
		}
		got, _ := AppendGatewayRequest(buf, g)
		if want, _ := CodecBinary.EncodeGatewayRequest(g); !bytes.Equal(got, want) {
			t.Errorf("request %d: append and encode disagree", i)
		}
	}
	for i, g := range resps {
		if n := testing.AllocsPerRun(100, func() { _, _ = AppendGatewayResponse(buf, g) }); n != 0 {
			t.Errorf("AppendGatewayResponse[%d]: %v allocs/op into a sized buffer", i, n)
		}
		got, _ := AppendGatewayResponse(buf, g)
		if want, _ := CodecBinary.EncodeGatewayResponse(g); !bytes.Equal(got, want) {
			t.Errorf("response %d: append and encode disagree", i)
		}
	}
	// A failed encode hands the buffer back as it was.
	if got, err := AppendGatewayRequest(buf[:3], GatewayRequest{Owner: "o", Req: Request{Type: MsgQuery}}); err == nil || len(got) != 3 {
		t.Errorf("failed append returned %d bytes, err %v", len(got), err)
	}
}

// loopback returns the two ends of one TCP connection on the loopback
// interface, each counting its socket calls.
func loopback(tb testing.TB) (a, b *countedConn) {
	tb.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := lis.Accept()
		accepted <- c
	}()
	c1, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	c2 := <-accepted
	if c2 == nil {
		tb.Fatal("accept failed")
	}
	tb.Cleanup(func() { c1.Close(); c2.Close() })
	return &countedConn{Conn: c1}, &countedConn{Conn: c2}
}

// countedConn counts Read and Write calls — one system call each on TCP.
// Each half is used by one goroutine.
type countedConn struct {
	net.Conn
	calls int
}

func (c *countedConn) Read(p []byte) (int, error)  { c.calls++; return c.Conn.Read(p) }
func (c *countedConn) Write(p []byte) (int, error) { c.calls++; return c.Conn.Write(p) }

// BenchmarkFrameBurst moves bursts of one-record-sync-sized frames over
// loopback and back as acks: the unbuffered pair (WriteFrame/ReadFrame on
// the socket, what every loop did before Conn) against Conn. One op is one
// frame there and one ack back.
func BenchmarkFrameBurst(b *testing.B) {
	req := make([]byte, 62) // a one-record sync's payload
	ack := make([]byte, 2)  // its OK response's
	for _, burst := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("raw/burst=%d", burst), func(b *testing.B) {
			cl, sv := loopback(b)
			go func() {
				for {
					if _, err := ReadFrame(sv); err != nil {
						return
					}
					if WriteFrame(sv, ack) != nil {
						return
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			ops := 0
			for ; ops < b.N; ops += burst {
				for j := 0; j < burst; j++ {
					if err := WriteFrame(cl, req); err != nil {
						b.Fatal(err)
					}
				}
				for j := 0; j < burst; j++ {
					if _, err := ReadFrame(cl); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			cl.Close()
			b.ReportMetric(float64(cl.calls)/float64(ops), "client-syscalls/op")
		})
		b.Run(fmt.Sprintf("conn/burst=%d", burst), func(b *testing.B) {
			cl, sv := loopback(b)
			go func() {
				fc := NewConn(sv)
				var buf []byte
				for {
					var err error
					if buf, err = fc.ReadFrame(buf); err != nil {
						return
					}
					if fc.WriteFrame(ack) != nil {
						return
					}
					if !fc.frameBuffered() && fc.Flush() != nil {
						return
					}
				}
			}()
			fc := NewConn(cl)
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			ops := 0
			for ; ops < b.N; ops += burst {
				for j := 0; j < burst; j++ {
					if err := fc.WriteFrame(req); err != nil {
						b.Fatal(err)
					}
				}
				if err := fc.Flush(); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < burst; j++ {
					var err error
					if buf, err = fc.ReadFrame(buf); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			cl.Close()
			b.ReportMetric(float64(cl.calls)/float64(ops), "client-syscalls/op")
		})
	}
}

var codecSink int

// BenchmarkCodec times the four messages' encoders — allocating (Encode*)
// and in place (Append* into a sized buffer) — and their decoders, on a
// one-record sync, an eight-record sync, their ack, and a grouped query with
// its answer from a store of 100 records (100 indices). wire_B/op is the
// message's exact size on the wire, frame header included: the number the
// codec exists to keep small.
func BenchmarkCodec(b *testing.B) {
	spec := QuerySpec{Kind: 2, Provider: 1, Lo: 3, Hi: 9}
	batch := func(n int) [][]byte {
		cts := make([][]byte, n)
		for i := range cts {
			cts[i] = make([]byte, seal.SealedSize)
		}
		return cts
	}
	msgs := []struct {
		name string
		req  GatewayRequest
		resp GatewayResponse
	}{
		{"sync", GatewayRequest{ID: 1, Owner: "owner-000017", Req: Request{Type: MsgUpdate, Seq: 9, Sealed: batch(1)}},
			GatewayResponse{ID: 1, Resp: Response{OK: true}}},
		{"sync8", GatewayRequest{ID: 1, Owner: "owner-000017", Req: Request{Type: MsgUpdate, Seq: 9, Sealed: batch(8)}},
			GatewayResponse{ID: 1, Resp: Response{OK: true}}},
		{"query", GatewayRequest{ID: 2, Owner: "owner-000017", Req: Request{Type: MsgQuery, Query: &spec}},
			GatewayResponse{ID: 2, Resp: NewBoundedQueryResponse(query.Answer{Groups: make([]float64, 265)}, edb.Cost{}, query.GroupCount, 100)}},
	}
	buf := make([]byte, 0, 8192)
	for _, m := range msgs {
		reqBytes, _ := CodecBinary.EncodeGatewayRequest(m.req)
		respBytes, _ := CodecBinary.EncodeGatewayResponse(m.resp)
		run := func(name string, wire []byte, op func() int) {
			b.Run(m.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					codecSink += op()
				}
				b.ReportMetric(float64(FrameLen(len(wire))), "wire_B/op")
			})
		}
		run("encode-request", reqBytes, func() int {
			out, _ := CodecBinary.EncodeGatewayRequest(m.req)
			return len(out)
		})
		run("append-request", reqBytes, func() int {
			out, _ := AppendGatewayRequest(buf, m.req)
			return len(out)
		})
		run("decode-request", reqBytes, func() int {
			g, _ := CodecBinary.DecodeGatewayRequest(reqBytes)
			return int(g.ID)
		})
		run("encode-response", respBytes, func() int {
			out, _ := CodecBinary.EncodeGatewayResponse(m.resp)
			return len(out)
		})
		run("append-response", respBytes, func() int {
			out, _ := AppendGatewayResponse(buf, m.resp)
			return len(out)
		})
		run("decode-response", respBytes, func() int {
			g, _ := CodecBinary.DecodeGatewayResponse(respBytes)
			return int(g.ID)
		})
	}
}

// BenchmarkBoundedAnswer times an answer through the gateway's answer path
// and back: encode is NewBoundedQueryResponse, which picks the layout, and
// AppendGatewayResponse into a sized buffer; decode is
// DecodeGatewayResponse. Q2 is a store of V records, a quarter of them
// dummies and the rest spread over the zones, at V = 7 and 131 (indices),
// 132 and 255 (one byte a group); Q1 is a count from 7 records. wire_B/op is
// the answer's frame, header included.
func BenchmarkBoundedAnswer(b *testing.B) {
	q2 := func(v int) query.Answer { return spreadQ2(v - v/4) }
	cost := edb.Cost{RecordsScanned: 100}
	buf := make([]byte, 0, 8192)
	for _, tc := range []struct {
		name string
		k    query.Kind
		v    int
		ans  query.Answer
	}{
		{"Q2/V=7", query.GroupCount, 7, q2(7)},
		{"Q2/V=131", query.GroupCount, 131, q2(131)},
		{"Q2/V=132", query.GroupCount, 132, q2(132)},
		{"Q2/V=255", query.GroupCount, 255, q2(255)},
		{"Q1/V=7", query.RangeCount, 7, query.Answer{Scalar: 5}},
	} {
		encode := func() []byte {
			out, err := AppendGatewayResponse(buf, GatewayResponse{ID: 2, Resp: NewBoundedQueryResponse(tc.ans, cost, tc.k, tc.v)})
			if err != nil {
				b.Fatal(err)
			}
			return out
		}
		frame := append([]byte(nil), encode()...)
		for _, op := range []struct {
			name string
			run  func() int
		}{
			{"encode", func() int { return len(encode()) }},
			{"decode", func() int {
				g, err := CodecBinary.DecodeGatewayResponse(frame)
				if err != nil {
					b.Fatal(err)
				}
				return len(g.Resp.Answer.Groups)
			}},
		} {
			b.Run(tc.name+"/"+op.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					codecSink += op.run()
				}
				b.ReportMetric(float64(FrameLen(len(frame))), "wire_B/op")
			})
		}
	}
}
