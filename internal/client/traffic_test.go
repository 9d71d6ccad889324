package client

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/wire"
)

// TestTrafficCountsTheHeadersFramesHad scripts a gateway that frames by hand
// — each frame's length a uvarint it parses and writes with encoding/binary,
// nothing of wire's framing — and counts the bytes its socket read and wrote
// after the hello. A session's exchange with it has frames behind one-byte
// headers (acks, a Q1 answer, the small requests) and two-byte ones (an
// eight-record sync, a dense Q2 answer), and the client's BytesOut and
// BytesIn must equal the scripted side's counts exactly: a frame is counted
// with the header it had on the wire, not with a fixed one.
func TestTrafficCountsTheHeadersFramesHad(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var read, written atomic.Int64
	var wide atomic.Int64 // frames, either way, behind a header of two bytes or more
	done := make(chan error, 1)
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			done <- err
			return
		}
		defer nc.Close()
		var hello [5]byte
		if _, err := io.ReadFull(nc, hello[:]); err != nil || wire.WriteHelloAck(nc, obliDB) != nil {
			done <- err
			return
		}
		c := countedConn{nc, &read, &written}
		r := bufio.NewReader(c)
		for {
			n, err := binary.ReadUvarint(r)
			if err != nil {
				done <- nil // the client hung up
				return
			}
			payload := make([]byte, n)
			if _, err := io.ReadFull(r, payload); err != nil {
				done <- err
				return
			}
			req, err := wire.CodecBinary.DecodeGatewayRequest(payload)
			if err != nil {
				done <- err
				return
			}
			resp := wire.Response{OK: true}
			switch req.Req.Type {
			case wire.MsgStats:
				resp = wire.NewStatsResponse(edb.StorageStats{Records: 9})
			case wire.MsgQuery:
				if query.Kind(req.Req.Query.Kind) == query.GroupCount {
					resp = wire.NewBoundedQueryResponse(query.Answer{Groups: make([]float64, record.NumLocations)}, edb.Cost{RecordsScanned: 9}, query.GroupCount, 200)
				} else {
					resp = wire.NewBoundedQueryResponse(query.Answer{Scalar: 3}, edb.Cost{RecordsScanned: 9}, query.RangeCount, 9)
				}
			}
			out, err := wire.CodecBinary.EncodeGatewayResponse(wire.GatewayResponse{ID: req.ID, Resp: resp})
			if err != nil {
				done <- err
				return
			}
			if n >= 128 || len(out) >= 128 {
				wide.Add(1)
			}
			if _, err := c.Write(append(binary.AppendUvarint(nil, uint64(len(out))), out...)); err != nil {
				done <- err
				return
			}
		}
	}()

	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := DialGateway(lis.Addr().String(), key)
	if err != nil {
		t.Fatal(err)
	}
	own := conn.Owner("owner-traffic")
	if err := own.Setup([]record.Record{yellowAt(0, 1)}); err != nil {
		t.Fatal(err)
	}
	batch := make([]record.Record, 8)
	for i := range batch {
		batch[i] = yellowAt(1, uint16(i+1))
	}
	if err := own.Update(batch); err != nil {
		t.Fatal(err)
	}
	for _, q := range []query.Query{query.Q1(), query.Q2()} {
		if _, _, err := own.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	out, in := conn.BytesOut(), conn.BytesIn()
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if wide.Load() < 2 {
		t.Fatalf("%d frames behind a wide header: the exchange does not test them", wide.Load())
	}
	if out != read.Load() || in != written.Load() {
		t.Errorf("client counted %d B out and %d B in; the socket carried %d and %d", out, in, read.Load(), written.Load())
	}
}
