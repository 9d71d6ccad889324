package gateway

import (
	"bytes"
	"fmt"
	"testing"

	"dpsync/internal/wire"
)

// FuzzOwnerBindings runs random frame sequences through both ends of a
// connection's owner bindings: the client's table (wire.Bindings, as the
// client's link drives it) picks each frame's owner field, the codec writes
// and parses the frame, and the reader's table (clientConn.resolve) names the
// owner. Every op byte is one request: its low six bits pick one of 64
// owners, bit 6 has the network deliver the frame twice (faultnet's
// duplicate), and a byte of 0x80 or more is a flood — 700 fresh owners named
// once each, so six of them fill the table past wire.MaxBindings — or, when
// its low bits are 0x3F, a frame by a handle the client did not pick.
// After every frame the reader must have named the owner the client meant,
// on the shard that serves it; a re-encoding of the parsed frame must be
// byte for byte the frame; and at the end the two tables must hold the same
// owners at the same handles.
func FuzzOwnerBindings(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0x41, 1, 2})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 3, 0x43, 3, 0xBF})
	f.Add([]byte{0xBF, 5, 0xBF, 0x45, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := &Gateway{shards: []*shard{{}, {}, {}}}
		srv := &clientConn{g: g}
		var cli wire.Bindings
		var id uint64
		send := func(owner string, dup bool) {
			id++
			g := wire.GatewayRequest{ID: id, Owner: owner, Req: request(id)}
			if h := cli.Handle(owner); h > 0 {
				g.Owner, g.Handle = "", h
			}
			frame, err := wire.AppendGatewayRequest(nil, g)
			if err != nil {
				t.Fatal(err)
			}
			if g.Handle == 0 {
				cli.Sent(owner)
			}
			copies := 1
			if dup {
				copies = 2
			}
			for range copies {
				f, err := wire.ParseGatewayRequest(frame)
				if err != nil {
					t.Fatalf("frame %d: %v", id, err)
				}
				own, ok := srv.resolve(&f)
				if !ok || own.owner != owner || own.sh != srv.g.shardFor(owner) {
					t.Fatalf("frame %d for %s (handle %d): the reader named %q (bound %v)", id, owner, g.Handle, own.owner, ok)
				}
				back, err := wire.CodecBinary.DecodeGatewayRequest(frame)
				if err != nil {
					t.Fatal(err)
				}
				if re, err := wire.CodecBinary.EncodeGatewayRequest(back); err != nil || !bytes.Equal(re, frame) {
					t.Fatalf("frame %d: %x re-encodes as %x (%v)", id, frame, re, err)
				}
			}
		}
		floods := 0
		for _, op := range ops {
			switch {
			case op < 0x80:
				send(fmt.Sprintf("owner-%02d", op&0x3F), op&0x40 != 0)
			case op&0x3F == 0x3F:
				// A frame by a handle the client did not pick — 1, or with bit 6
				// the one past the table: resolved only if bound, and either way
				// nothing binds.
				n := len(srv.bound)
				h := uint64(1)
				if op&0x40 != 0 {
					h = uint64(n) + 1
				}
				f := wire.RequestFrame{ID: 1, Handle: h}
				if _, ok := srv.resolve(&f); ok != (h <= uint64(n)) || len(srv.bound) != n {
					t.Fatalf("handle %d of %d bound: resolved %v, %d bound after", h, n, ok, len(srv.bound))
				}
			default:
				for i := range 700 {
					send(fmt.Sprintf("flood-%d-%d", floods, i), false)
				}
				floods++
			}
		}
		if cli.Len() != len(srv.bound) || len(srv.bound) != len(srv.handles) || len(srv.bound) > wire.MaxBindings {
			t.Fatalf("the client bound %d owners, the reader %d (%d names)", cli.Len(), len(srv.bound), len(srv.handles))
		}
		for i, b := range srv.bound {
			if h := uint64(i) + 1; cli.Handle(b.owner) != h || srv.handles[b.owner] != h {
				t.Fatalf("the reader binds %s to %d, the client to %d", b.owner, h, cli.Handle(b.owner))
			}
		}
	})
}

// request is the id-th request of a sequence: a sync, a query or a stats
// probe in turn — what it asks for is nothing to the bindings.
func request(id uint64) wire.Request {
	switch id % 3 {
	case 0:
		return wire.Request{Type: wire.MsgUpdate, Seq: id, Sealed: [][]byte{bytes.Repeat([]byte{byte(id)}, 44)}}
	case 1:
		return wire.Request{Type: wire.MsgQuery, Query: &wire.QuerySpec{Kind: int(id % 4)}}
	}
	return wire.Request{Type: wire.MsgStats}
}
