package wire

import (
	"fmt"
	"io"
	"math"
	"slices"

	"dpsync/internal/binfmt"
)

// Codec identifies a frame-payload encoding by the version byte the hello
// exchange carries. This build speaks exactly one.
type Codec byte

// CodecBinary is the payload encoding: hand-rolled length-prefixed fields,
// no reflection, no base64 expansion of sealed ciphertexts. Version byte 2
// (1 was a JSON encoding, retired; the byte is never reused).
const CodecBinary Codec = 2

// Valid reports whether c names the codec this build speaks.
func (c Codec) Valid() bool { return c == CodecBinary }

// String implements fmt.Stringer.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return fmt.Sprintf("Codec(%d)", byte(c))
}

// MaxOwnerLen bounds an owner-namespace identifier. Owner IDs are routing
// keys, not payload; one byte of length is plenty and keeps the binary
// header fixed-cost.
const MaxOwnerLen = 255

// helloMagic opens every read-write client connection; a peer speaking
// anything else is rejected on its first five bytes instead of having them
// misparsed as a frame header.
var helloMagic = [4]byte{'D', 'P', 'S', 'G'}

// WriteHello sends the 5-byte client hello: magic then the proposed codec
// version byte.
func WriteHello(w io.Writer, proposed Codec) error {
	var buf [5]byte
	copy(buf[:4], helloMagic[:])
	buf[4] = byte(proposed)
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("wire: hello: %w", err)
	}
	return nil
}

// ReadHello consumes a client hello and returns the proposed codec. A bad
// magic is a protocol violation (ErrBadFrame); an unknown codec byte is NOT
// an error — the server acks with the one codec it speaks (CodecBinary) and
// the client decides whether it can live with that.
func ReadHello(r io.Reader) (Codec, error) {
	var buf [5]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("wire: reading hello: %w", err)
	}
	if buf[0] != helloMagic[0] || buf[1] != helloMagic[1] || buf[2] != helloMagic[2] || buf[3] != helloMagic[3] {
		return 0, fmt.Errorf("%w: bad hello magic %q", ErrBadFrame, buf[:4])
	}
	return Codec(buf[4]), nil
}

// WriteHelloAck sends the server's 1-byte answer: the codec version the
// connection will speak.
func WriteHelloAck(w io.Writer, accepted Codec) error {
	if _, err := w.Write([]byte{byte(accepted)}); err != nil {
		return fmt.Errorf("wire: hello ack: %w", err)
	}
	return nil
}

// ReadHelloAck consumes the server's answer. A refusal byte means the
// dialed node is a cluster follower (ErrNotPrimary — the client advances to
// its next address); any other invalid codec byte means the two ends share
// no encoding — a hard error.
func ReadHelloAck(r io.Reader) (Codec, error) {
	var buf [1]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("wire: reading hello ack: %w", err)
	}
	if buf[0] == HelloRefused {
		return 0, ErrNotPrimary
	}
	c := Codec(buf[0])
	if !c.Valid() {
		return 0, fmt.Errorf("%w: server accepted unknown codec %d", ErrBadFrame, buf[0])
	}
	return c, nil
}

// GatewayRequest is the multiplexing envelope for client→gateway messages:
// the EDB protocol request plus a request ID (responses may come back out of
// order; the client matches them by ID) and the owner namespace the request
// targets.
type GatewayRequest struct {
	ID    uint64
	Owner string
	Req   Request
}

// GatewayResponse is the gateway→client envelope.
type GatewayResponse struct {
	ID   uint64
	Resp Response
}

// Binary message-type bytes. 0 is deliberately unused so an all-zero frame
// cannot decode as a valid message.
const (
	binSetup  = 1
	binUpdate = 2
	binQuery  = 3
	binStats  = 4
	binResume = 5
	// binQueryAt is a MsgQuery carrying a freshness bound (Request.MinOffset
	// > 0) for the follower read plane. A query with MinOffset == 0 encodes
	// as plain binQuery, and the decoder rejects a binQueryAt claiming bound
	// zero — so every request has exactly one binary encoding.
	binQueryAt = 6
)

func msgTypeByte(t MsgType) (byte, error) {
	switch t {
	case MsgSetup:
		return binSetup, nil
	case MsgUpdate:
		return binUpdate, nil
	case MsgQuery:
		return binQuery, nil
	case MsgStats:
		return binStats, nil
	case MsgResume:
		return binResume, nil
	default:
		return 0, fmt.Errorf("wire: message type %q has no binary encoding", t)
	}
}

func msgTypeFromByte(b byte) (MsgType, error) {
	switch b {
	case binSetup:
		return MsgSetup, nil
	case binUpdate:
		return MsgUpdate, nil
	case binQuery, binQueryAt:
		return MsgQuery, nil
	case binStats:
		return MsgStats, nil
	case binResume:
		return MsgResume, nil
	default:
		return "", fmt.Errorf("%w: unknown message type byte %d", ErrBadFrame, b)
	}
}

// Response flag bits (binary codec).
const (
	flagOK = 1 << iota
	flagError
	flagAnswer
	flagCost
	flagStats
	flagResume
	flagBackpressure
	flagStale
)

// EncodeGatewayRequest serializes the envelope under codec c.
func (c Codec) EncodeGatewayRequest(g GatewayRequest) ([]byte, error) {
	if c != CodecBinary {
		return nil, fmt.Errorf("wire: encode with unknown codec %d", byte(c))
	}
	return AppendGatewayRequest(nil, g)
}

// AppendGatewayRequest appends the request envelope's binary encoding to dst
// — how a frame is built in place behind its header (Conn.BeginFrame). dst
// grows at most once (the size is computed first), and not at all when its
// capacity already suffices. On error dst is returned unextended.
func AppendGatewayRequest(dst []byte, g GatewayRequest) ([]byte, error) {
	if len(g.Owner) > MaxOwnerLen {
		return dst, fmt.Errorf("wire: owner id %d bytes exceeds %d", len(g.Owner), MaxOwnerLen)
	}
	t, err := msgTypeByte(g.Req.Type)
	if err != nil {
		return dst, err
	}
	if t == binQuery && g.Req.MinOffset > 0 {
		t = binQueryAt
	}
	size := 8 + 1 + len(g.Owner) + 1 + 16 // envelope, then the largest fixed-size body
	for _, ct := range g.Req.Sealed {
		size += 4 + len(ct)
	}
	b := slices.Grow(dst, size)
	b = binfmt.AppendU64(b, g.ID)
	b = append(b, byte(len(g.Owner)))
	b = append(b, g.Owner...)
	b = append(b, t)
	switch t {
	case binSetup, binUpdate:
		b = binfmt.AppendU64(b, g.Req.Seq)
		b = binfmt.AppendU32(b, uint32(len(g.Req.Sealed)))
		for _, ct := range g.Req.Sealed {
			b = binfmt.AppendU32(b, uint32(len(ct)))
			b = append(b, ct...)
		}
	case binQuery, binQueryAt:
		if g.Req.Query == nil {
			return dst, fmt.Errorf("wire: query request without query spec")
		}
		q := g.Req.Query
		if q.Kind < 0 || q.Kind > 255 {
			return dst, fmt.Errorf("wire: query kind %d outside binary range", q.Kind)
		}
		b = append(b, byte(q.Kind), q.Provider, q.JoinWith)
		b = binfmt.AppendU16(b, q.Lo)
		b = binfmt.AppendU16(b, q.Hi)
		if t == binQueryAt {
			b = binfmt.AppendU64(b, g.Req.MinOffset)
		}
	case binStats:
	}
	return b, nil
}

// DecodeGatewayRequest parses an envelope under codec c. Malformed input —
// including zero-length frames — returns an error wrapping ErrBadFrame and
// never panics or over-allocates, no matter what the bytes claim.
func (c Codec) DecodeGatewayRequest(b []byte) (GatewayRequest, error) {
	if len(b) == 0 {
		return GatewayRequest{}, fmt.Errorf("%w: empty gateway request frame", ErrBadFrame)
	}
	if c != CodecBinary {
		return GatewayRequest{}, fmt.Errorf("wire: decode with unknown codec %d", byte(c))
	}
	r := binfmt.NewReader(b, ErrBadFrame)
	var g GatewayRequest
	g.ID = r.U64("request id")
	ownerLen := int(r.U8("owner length"))
	g.Owner = string(r.Bytes(ownerLen, "owner id"))
	t := r.U8("message type")
	if r.Err() != nil {
		return GatewayRequest{}, r.Err()
	}
	mt, err := msgTypeFromByte(t)
	if err != nil {
		return GatewayRequest{}, err
	}
	g.Req.Type = mt
	switch t {
	case binSetup, binUpdate:
		g.Req.Seq = r.U64("sync seq")
		n := int(r.U32("sealed count"))
		// Each entry costs at least its 4-byte length prefix: a claimed
		// count larger than remaining/4 is a lie, reject before allocating.
		if n > r.Remaining()/4 {
			return GatewayRequest{}, fmt.Errorf("%w: sealed count %d exceeds frame", ErrBadFrame, n)
		}
		if n > 0 {
			g.Req.Sealed = make([][]byte, n)
			for i := 0; i < n; i++ {
				ctLen := int(r.U32("ciphertext length"))
				g.Req.Sealed[i] = r.Bytes(ctLen, "ciphertext")
			}
		}
	case binQuery, binQueryAt:
		var q QuerySpec
		q.Kind = int(r.U8("query kind"))
		q.Provider = r.U8("query provider")
		q.JoinWith = r.U8("query join table")
		q.Lo = r.U16("query lo")
		q.Hi = r.U16("query hi")
		g.Req.Query = &q
		if t == binQueryAt {
			g.Req.MinOffset = r.U64("query min offset")
			if r.Err() == nil && g.Req.MinOffset == 0 {
				return GatewayRequest{}, fmt.Errorf("%w: freshness-bound query with zero bound", ErrBadFrame)
			}
		}
	}
	if err := r.Done("gateway request"); err != nil {
		return GatewayRequest{}, err
	}
	return g, nil
}

// EncodeGatewayResponse serializes the envelope under codec c.
func (c Codec) EncodeGatewayResponse(g GatewayResponse) ([]byte, error) {
	if c != CodecBinary {
		return nil, fmt.Errorf("wire: encode with unknown codec %d", byte(c))
	}
	return AppendGatewayResponse(nil, g)
}

// AppendGatewayResponse appends the response envelope's binary encoding to
// dst, with AppendGatewayRequest's growth rule. It has no failing input; the
// error keeps the two encoders one shape.
func AppendGatewayResponse(dst []byte, g GatewayResponse) ([]byte, error) {
	var flags byte
	resp := g.Resp
	if resp.OK {
		flags |= flagOK
	}
	if resp.Error != "" {
		flags |= flagError
	}
	if resp.Answer != nil {
		flags |= flagAnswer
	}
	if resp.Cost != nil {
		flags |= flagCost
	}
	if resp.Stats != nil {
		flags |= flagStats
	}
	if resp.Resume != nil {
		flags |= flagResume
	}
	if resp.Backpressure {
		flags |= flagBackpressure
	}
	if resp.Stale != nil {
		flags |= flagStale
	}
	if len(resp.Error) > math.MaxUint16 {
		resp.Error = resp.Error[:math.MaxUint16]
	}
	// Every fixed-size section at once (they sum to 81 bytes), plus the three
	// variable ones.
	size := 96 + len(resp.Error)
	if resp.Answer != nil {
		size += 8 * len(resp.Answer.Groups)
	}
	if resp.Stats != nil {
		size += min(len(resp.Stats.Scheme), MaxOwnerLen)
	}
	b := slices.Grow(dst, size)
	b = binfmt.AppendU64(b, g.ID)
	b = append(b, flags)
	if flags&flagError != 0 {
		b = binfmt.AppendU16(b, uint16(len(resp.Error)))
		b = append(b, resp.Error...)
	}
	if flags&flagAnswer != 0 {
		b = binfmt.AppendF64(b, resp.Answer.Scalar)
		b = binfmt.AppendU32(b, uint32(len(resp.Answer.Groups)))
		for _, v := range resp.Answer.Groups {
			b = binfmt.AppendF64(b, v)
		}
	}
	if flags&flagCost != 0 {
		b = binfmt.AppendF64(b, resp.Cost.Seconds)
		b = binfmt.AppendU64(b, uint64(resp.Cost.RecordsScanned))
		b = binfmt.AppendU64(b, uint64(resp.Cost.PairsCompared))
	}
	if flags&flagStats != 0 {
		st := resp.Stats
		b = binfmt.AppendU32(b, uint32(st.Records))
		b = binfmt.AppendU64(b, uint64(st.Bytes))
		b = binfmt.AppendU32(b, uint32(st.Updates))
		scheme := st.Scheme
		if len(scheme) > MaxOwnerLen {
			scheme = scheme[:MaxOwnerLen]
		}
		b = append(b, byte(len(scheme)))
		b = append(b, scheme...)
		b = append(b, byte(st.Leakage))
	}
	if flags&flagResume != 0 {
		b = binfmt.AppendU64(b, resp.Resume.Clock)
	}
	if flags&flagStale != 0 {
		b = binfmt.AppendU64(b, resp.Stale.Offset)
	}
	return b, nil
}

// DecodeGatewayResponse parses an envelope under codec c (zero-length and
// malformed input rejected with ErrBadFrame).
func (c Codec) DecodeGatewayResponse(b []byte) (GatewayResponse, error) {
	if len(b) == 0 {
		return GatewayResponse{}, fmt.Errorf("%w: empty gateway response frame", ErrBadFrame)
	}
	if c != CodecBinary {
		return GatewayResponse{}, fmt.Errorf("wire: decode with unknown codec %d", byte(c))
	}
	r := binfmt.NewReader(b, ErrBadFrame)
	var g GatewayResponse
	g.ID = r.U64("response id")
	flags := r.U8("response flags")
	g.Resp.OK = flags&flagOK != 0
	if flags&flagError != 0 {
		n := int(r.U16("error length"))
		g.Resp.Error = string(r.Bytes(n, "error text"))
	}
	if flags&flagAnswer != 0 {
		var a AnswerSpec
		a.Scalar = r.F64("answer scalar")
		n := int(r.U32("group count"))
		if n > r.Remaining()/8 {
			return GatewayResponse{}, fmt.Errorf("%w: group count %d exceeds frame", ErrBadFrame, n)
		}
		if n > 0 {
			a.Groups = make([]float64, n)
			for i := range a.Groups {
				a.Groups[i] = r.F64("group value")
			}
		}
		g.Resp.Answer = &a
	}
	if flags&flagCost != 0 {
		var cs CostSpec
		cs.Seconds = r.F64("cost seconds")
		cs.RecordsScanned = int64(r.U64("cost records"))
		cs.PairsCompared = int64(r.U64("cost pairs"))
		g.Resp.Cost = &cs
	}
	if flags&flagStats != 0 {
		var st StatsSpec
		st.Records = int(r.U32("stats records"))
		st.Bytes = int64(r.U64("stats bytes"))
		st.Updates = int(r.U32("stats updates"))
		n := int(r.U8("scheme length"))
		st.Scheme = string(r.Bytes(n, "scheme"))
		st.Leakage = int(r.U8("leakage class"))
		g.Resp.Stats = &st
	}
	if flags&flagResume != 0 {
		g.Resp.Resume = &ResumeSpec{Clock: r.U64("resume clock")}
	}
	if flags&flagStale != 0 {
		g.Resp.Stale = &StaleSpec{Offset: r.U64("stale offset")}
	}
	g.Resp.Backpressure = flags&flagBackpressure != 0
	if err := r.Done("gateway response"); err != nil {
		return GatewayResponse{}, err
	}
	return g, nil
}
