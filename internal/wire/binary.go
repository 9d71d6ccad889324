package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"dpsync/internal/binfmt"
)

// Codec identifies a frame-payload encoding by the version byte the hello
// exchange carries. This build speaks exactly one.
type Codec byte

// CodecBinary is the payload encoding: hand-rolled fields, no reflection, no
// base64 expansion of sealed ciphertexts, and canonical — every message has
// one encoding and every accepted byte string one message. Counters (request
// IDs, sequence numbers, counts, offsets) are minimal-form varints; a
// batch's ciphertexts travel as one uniform-width block; an answer's groups
// are 4-byte integers when every one of them is one and 8-byte floats
// otherwise; a refused request is answered with one typed refusal section
// (the layout table is in doc.go, "Serving"). Version byte 4; 3 said no with
// an error text beside two flag bits, 2 was the fixed-width-integer layout
// and 1 a JSON encoding — all retired, no byte ever reused.
const CodecBinary Codec = 4

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

// writeHello sends a 5-byte hello: the magic that names the protocol, then
// its version byte.
func writeHello(w io.Writer, magic [4]byte, version byte) error {
	buf := [5]byte{magic[0], magic[1], magic[2], magic[3], version}
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("wire: %s hello: %w", magic[:], err)
	}
	return nil
}

// WriteHello sends the 5-byte client hello: magic then the proposed codec
// version byte.
func WriteHello(w io.Writer, proposed Codec) error {
	return writeHello(w, helloMagic, byte(proposed))
}

// WriteHelloAck sends the server's 1-byte answer: the codec version the
// connection will speak.
func WriteHelloAck(w io.Writer, accepted Codec) error {
	if _, err := w.Write([]byte{byte(accepted)}); err != nil {
		return fmt.Errorf("wire: hello ack: %w", err)
	}
	return nil
}

// ReadHelloAck consumes the server's answer. The refusal byte means the
// dialed node is a cluster follower (HelloRefused, ErrNotPrimary — the client
// advances to its next address); any other invalid codec byte means the two
// ends share no encoding — a hard error.
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

// Response flag bits (binary codec). Exactly one of flagOK and flagRefused is
// set, and a refused response sets nothing else. Bits 64 and 128 were codec
// 3's backpressure and stale markers; they are retired and must be clear.
const (
	flagOK = 1 << iota
	flagRefused
	flagAnswer
	flagCost
	flagStats
	flagResume
	flagsKnown = 1<<iota - 1
)

// Rejections of a block whose claimed size exceeds its frame are fixed
// values: a hostile count costs the decoder no allocation at all.
var (
	errSealedBlock = fmt.Errorf("%w: sealed block exceeds frame", ErrBadFrame)
	errGroupBlock  = fmt.Errorf("%w: group block exceeds frame", ErrBadFrame)
)

// EncodeGatewayRequest serializes the envelope under codec c.
func (c Codec) EncodeGatewayRequest(g GatewayRequest) ([]byte, error) {
	if c != CodecBinary {
		return nil, fmt.Errorf("wire: encode with unknown codec %d", byte(c))
	}
	return AppendGatewayRequest(nil, g)
}

// sealedWidth returns the one length every ciphertext of a batch has (0 for
// an empty batch). A sealed record and a sealed dummy are the same size by
// construction, so a batch that mixes lengths — or carries empty
// ciphertexts, which no sealer produces — is a caller's bug, refused.
func sealedWidth(cts [][]byte) (int, error) {
	if len(cts) == 0 {
		return 0, nil
	}
	w := len(cts[0])
	for _, ct := range cts[1:] {
		if len(ct) != w {
			return 0, fmt.Errorf("wire: batch mixes ciphertext lengths %d and %d", w, len(ct))
		}
	}
	if w == 0 {
		return 0, fmt.Errorf("wire: batch of empty ciphertexts")
	}
	return w, nil
}

// AppendGatewayRequest appends the request envelope's binary encoding to dst
// — how a frame is built in place behind its header (Conn.BeginFrame). dst
// grows at most once (an upper bound on the size is computed first), and not
// at all when its capacity already suffices. On error dst is returned
// unextended.
//
//	uvarint id · u8 ownerLen · owner · u8 type ·
//	  setup, update:  uvarint seq · uvarint n · [uvarint width · n×width bytes]
//	  query:          u8 kind · u8 provider · u8 joinWith · u16 lo · u16 hi
//	  bounded query:  the same seven bytes · uvarint minOffset (> 0)
//	  stats, resume:  nothing
func AppendGatewayRequest(dst []byte, g GatewayRequest) ([]byte, error) {
	if len(g.Owner) > MaxOwnerLen {
		return dst, fmt.Errorf("wire: owner id %d bytes exceeds %d", len(g.Owner), MaxOwnerLen)
	}
	t, err := msgTypeByte(g.Req.Type)
	if err != nil {
		return dst, err
	}
	if g.Req.MinOffset > 0 {
		if t != binQuery {
			return dst, fmt.Errorf("wire: freshness bound on a %s request: only a query carries one", g.Req.Type)
		}
		t = binQueryAt
	}
	width, err := sealedWidth(g.Req.Sealed)
	if err != nil {
		return dst, err
	}
	// Envelope and the largest body at their widest (four varints, two
	// bytes, the owner), then the block.
	b := slices.Grow(dst, 42+len(g.Owner)+len(g.Req.Sealed)*width)
	b = binfmt.AppendUvarint(b, g.ID)
	b = append(b, byte(len(g.Owner)))
	b = append(b, g.Owner...)
	b = append(b, t)
	switch t {
	case binSetup, binUpdate:
		b = binfmt.AppendUvarint(b, g.Req.Seq)
		b = binfmt.AppendUvarint(b, uint64(len(g.Req.Sealed)))
		if len(g.Req.Sealed) > 0 {
			b = binfmt.AppendUvarint(b, uint64(width))
			for _, ct := range g.Req.Sealed {
				b = append(b, ct...)
			}
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
			b = binfmt.AppendUvarint(b, g.Req.MinOffset)
		}
	}
	return b, nil
}

// DecodeGatewayRequest parses an envelope under codec c. Malformed input —
// including zero-length frames and any second spelling of a message the
// encoder would have written differently — returns an error wrapping
// ErrBadFrame and never panics or over-allocates, no matter what the bytes
// claim. Sealed aliases b: one slice header per ciphertext, cut out of the
// batch's block after a single bounds check.
func (c Codec) DecodeGatewayRequest(b []byte) (GatewayRequest, error) {
	if c != CodecBinary {
		return GatewayRequest{}, fmt.Errorf("wire: decode with unknown codec %d", byte(c))
	}
	f, err := ParseGatewayRequest(b)
	if err != nil {
		return GatewayRequest{}, err
	}
	g := GatewayRequest{ID: f.ID, Owner: string(f.Owner), Req: f.Req}
	if w := f.Width; w > 0 {
		g.Req.Sealed = make([][]byte, len(f.Block)/w)
		for i := range g.Req.Sealed {
			g.Req.Sealed[i] = f.Block[i*w : (i+1)*w : (i+1)*w]
		}
	}
	return g, nil
}

// RequestFrame is a request envelope read in place: Owner and, for a sync,
// Block are slices of the frame it was parsed from, and Req carries
// everything else — Sealed stays nil, because a sync's ciphertexts are the
// len(Block)/Width back-to-back Width-byte runs of Block (Width is 0 for a
// batch of none). A caller that keeps the frame's buffer for the next read
// copies what it needs first.
type RequestFrame struct {
	ID    uint64
	Owner []byte
	Req   Request
	Width int
	Block []byte
}

// ParseGatewayRequest is DecodeGatewayRequest's parse, with its rules and its
// errors, that copies and allocates nothing for a sync: the reader that
// builds a sync's durable entry straight from its block (store.SyncEntry)
// calls it. A query's spec is still its own allocation.
func ParseGatewayRequest(b []byte) (RequestFrame, error) {
	if len(b) == 0 {
		return RequestFrame{}, fmt.Errorf("%w: empty gateway request frame", ErrBadFrame)
	}
	r := binfmt.NewReader(b, ErrBadFrame)
	var f RequestFrame
	f.ID = r.Uvarint("request id")
	ownerLen := int(r.U8("owner length"))
	f.Owner = r.Bytes(ownerLen, "owner id")
	t := r.U8("message type")
	if r.Err() != nil {
		return RequestFrame{}, r.Err()
	}
	mt, err := msgTypeFromByte(t)
	if err != nil {
		return RequestFrame{}, err
	}
	f.Req.Type = mt
	switch t {
	case binSetup, binUpdate:
		f.Req.Seq = r.Uvarint("sync seq")
		if n := r.Uvarint("sealed count"); n > 0 {
			width := r.Uvarint("ciphertext width")
			if r.Err() != nil {
				return RequestFrame{}, r.Err()
			}
			if width == 0 {
				return RequestFrame{}, fmt.Errorf("%w: %d ciphertexts of width 0", ErrBadFrame, n)
			}
			// The whole batch against the frame, once, before anything is cut
			// from it; the division keeps a product past 64 bits from wrapping
			// into range.
			if n > uint64(r.Remaining())/width {
				return RequestFrame{}, errSealedBlock
			}
			f.Width = int(width)
			f.Block = r.Bytes(int(n)*f.Width, "sealed block")
		}
	case binQuery, binQueryAt:
		var q QuerySpec
		q.Kind = int(r.U8("query kind"))
		q.Provider = r.U8("query provider")
		q.JoinWith = r.U8("query join table")
		q.Lo = r.U16("query lo")
		q.Hi = r.U16("query hi")
		f.Req.Query = &q
		if t == binQueryAt {
			f.Req.MinOffset = r.Uvarint("query min offset")
			if r.Err() == nil && f.Req.MinOffset == 0 {
				return RequestFrame{}, fmt.Errorf("%w: freshness-bound query with zero bound", ErrBadFrame)
			}
		}
	}
	if err := r.Done("gateway request"); err != nil {
		return RequestFrame{}, err
	}
	return f, nil
}

// EncodeGatewayResponse serializes the envelope under codec c.
func (c Codec) EncodeGatewayResponse(g GatewayResponse) ([]byte, error) {
	if c != CodecBinary {
		return nil, fmt.Errorf("wire: encode with unknown codec %d", byte(c))
	}
	return AppendGatewayResponse(nil, g)
}

// asCount reports whether v is an integer in [0, 2³²) — what every exact
// backend's group count is — and returns it. The comparison is on bits, so
// −0, NaN, ±Inf, fractions and anything out of range all say no (an
// out-of-range conversion yields some uint32, which converts back to a
// float64 inside the range and so never to v).
func asCount(v float64) (uint32, bool) {
	u := uint32(v)
	return u, math.Float64bits(float64(u)) == math.Float64bits(v)
}

// appendGroups appends an answer's group count and, unless it is zero, the
// width byte and group block: 4 bytes a group when every group is a count, 8
// (the float's own bits) otherwise. The width is a property of the whole
// answer, never of one value, so a response's length is a function of the
// query and the backend — a sparse or per-value encoding would make it a
// function of the data. It writes counts until a group turns out not to be
// one, and only then starts over at the float width: the common answer
// (every exact backend's) costs one pass.
func appendGroups(b []byte, groups []float64) []byte {
	b = binfmt.AppendUvarint(b, uint64(len(groups)))
	if len(groups) == 0 {
		return b
	}
	start := len(b)
	b = append(b, 4)
	for _, v := range groups {
		u, ok := asCount(v)
		if !ok {
			b = append(b[:start], 8)
			for _, v := range groups {
				b = binfmt.AppendF64(b, v)
			}
			return b
		}
		b = binfmt.AppendU32(b, u)
	}
	return b
}

// AppendGatewayResponse appends the response envelope's binary encoding to
// dst, with AppendGatewayRequest's growth rule. A response that is not
// exactly one of OK and refused, a refusal beside another section, and a
// refusal its code does not allow (unknown code, a cursor or a text where the
// code carries none) are a caller's bug, refused.
//
//	uvarint id · u8 flags ·
//	  [refusal: u8 code · uvarint cursor · uvarint len · detail]
//	  [answer:  f64 scalar · uvarint groups · [u8 width ∈ {4,8} · groups×width]]
//	  [cost:    f64 seconds · uvarint scanned · uvarint pairs]
//	  [stats:   uvarint records · uvarint bytes · uvarint updates ·
//	            u8 schemeLen · scheme · u8 leakage]
//	  [resume:  uvarint clock]
func AppendGatewayResponse(dst []byte, g GatewayResponse) ([]byte, error) {
	var flags byte
	resp := g.Resp
	if resp.OK {
		flags |= flagOK
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
	var detail string
	if ref := resp.Refusal; ref != nil {
		if flags != 0 {
			return dst, fmt.Errorf("wire: a refusal beside OK or another section (flags %#x)", flags)
		}
		if err := ref.check(); err != nil {
			return dst, fmt.Errorf("wire: %w", err)
		}
		flags = flagRefused
		detail = ref.Detail
		if len(detail) > math.MaxUint16 {
			detail = detail[:math.MaxUint16]
		}
	} else if !resp.OK {
		return dst, fmt.Errorf("wire: response neither OK nor refused")
	}
	// Every section's fixed part at its widest (they sum to 113 bytes), plus
	// the three variable ones.
	size := 113 + len(detail)
	if resp.Answer != nil {
		size += 8 * len(resp.Answer.Groups)
	}
	if resp.Stats != nil {
		size += min(len(resp.Stats.Scheme), MaxOwnerLen)
	}
	b := slices.Grow(dst, size)
	b = binfmt.AppendUvarint(b, g.ID)
	b = append(b, flags)
	if flags&flagRefused != 0 {
		b = append(b, byte(resp.Refusal.Code))
		b = binfmt.AppendUvarint(b, resp.Refusal.Cursor)
		b = binfmt.AppendUvarint(b, uint64(len(detail)))
		b = append(b, detail...)
	}
	if flags&flagAnswer != 0 {
		b = binfmt.AppendF64(b, resp.Answer.Scalar)
		b = appendGroups(b, resp.Answer.Groups)
	}
	if flags&flagCost != 0 {
		b = binfmt.AppendF64(b, resp.Cost.Seconds)
		b = binfmt.AppendUvarint(b, uint64(resp.Cost.RecordsScanned))
		b = binfmt.AppendUvarint(b, uint64(resp.Cost.PairsCompared))
	}
	if flags&flagStats != 0 {
		st := resp.Stats
		b = binfmt.AppendUvarint(b, uint64(st.Records))
		b = binfmt.AppendUvarint(b, uint64(st.Bytes))
		b = binfmt.AppendUvarint(b, uint64(st.Updates))
		scheme := st.Scheme
		if len(scheme) > MaxOwnerLen {
			scheme = scheme[:MaxOwnerLen]
		}
		b = append(b, byte(len(scheme)))
		b = append(b, scheme...)
		b = append(b, byte(st.Leakage))
	}
	if flags&flagResume != 0 {
		b = binfmt.AppendUvarint(b, resp.Resume.Clock)
	}
	return b, nil
}

// DecodeGatewayResponse parses an envelope under codec c (zero-length,
// malformed and non-canonical input rejected with ErrBadFrame).
func (c Codec) DecodeGatewayResponse(b []byte) (GatewayResponse, error) {
	if len(b) == 0 {
		return GatewayResponse{}, fmt.Errorf("%w: empty gateway response frame", ErrBadFrame)
	}
	if c != CodecBinary {
		return GatewayResponse{}, fmt.Errorf("wire: decode with unknown codec %d", byte(c))
	}
	r := binfmt.NewReader(b, ErrBadFrame)
	var g GatewayResponse
	g.ID = r.Uvarint("response id")
	flags := r.U8("response flags")
	if r.Err() != nil {
		return GatewayResponse{}, r.Err()
	}
	g.Resp.OK = flags&flagOK != 0
	refused := flags&flagRefused != 0
	if flags&^flagsKnown != 0 || g.Resp.OK == refused || (refused && flags != flagRefused) {
		return GatewayResponse{}, fmt.Errorf("%w: response flags %#x: exactly one of OK and refused, a refusal alone", ErrBadFrame, flags)
	}
	if refused {
		ref := &Refusal{Code: RefusalCode(r.U8("refusal code")), Cursor: r.Uvarint("refusal cursor")}
		n := r.Uvarint("refusal detail length")
		if r.Err() == nil && n > math.MaxUint16 {
			return GatewayResponse{}, fmt.Errorf("%w: refusal text of %d bytes", ErrBadFrame, n)
		}
		ref.Detail = string(r.Bytes(int(n), "refusal detail"))
		if err := ref.check(); r.Err() == nil && err != nil {
			return GatewayResponse{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		g.Resp.Refusal = ref
	}
	if flags&flagAnswer != 0 {
		var a AnswerSpec
		a.Scalar = r.F64("answer scalar")
		if n := r.Uvarint("group count"); n > 0 {
			width := uint64(r.U8("group width"))
			if r.Err() != nil {
				return GatewayResponse{}, r.Err()
			}
			if width != 4 && width != 8 {
				return GatewayResponse{}, fmt.Errorf("%w: group width %d", ErrBadFrame, width)
			}
			if n > uint64(r.Remaining())/width {
				return GatewayResponse{}, errGroupBlock
			}
			block := r.Bytes(int(n*width), "group block")
			a.Groups = make([]float64, n)
			if width == 4 {
				for i := range a.Groups {
					a.Groups[i] = float64(binary.BigEndian.Uint32(block[4*i:]))
				}
			} else {
				allCounts := true
				for i := range a.Groups {
					a.Groups[i] = math.Float64frombits(binary.BigEndian.Uint64(block[8*i:]))
					if allCounts {
						_, allCounts = asCount(a.Groups[i])
					}
				}
				if allCounts {
					return GatewayResponse{}, fmt.Errorf("%w: 8-byte group block that fits 4", ErrBadFrame)
				}
			}
		}
		g.Resp.Answer = &a
	}
	if flags&flagCost != 0 {
		var cs CostSpec
		cs.Seconds = r.F64("cost seconds")
		cs.RecordsScanned = int64(r.Uvarint("cost records"))
		cs.PairsCompared = int64(r.Uvarint("cost pairs"))
		g.Resp.Cost = &cs
	}
	if flags&flagStats != 0 {
		var st StatsSpec
		st.Records = int(r.Uvarint("stats records"))
		st.Bytes = int64(r.Uvarint("stats bytes"))
		st.Updates = int(r.Uvarint("stats updates"))
		n := int(r.U8("scheme length"))
		st.Scheme = string(r.Bytes(n, "scheme"))
		st.Leakage = int(r.U8("leakage class"))
		g.Resp.Stats = &st
	}
	if flags&flagResume != 0 {
		g.Resp.Resume = &ResumeSpec{Clock: r.Uvarint("resume clock")}
	}
	if err := r.Done("gateway response"); err != nil {
		return GatewayResponse{}, err
	}
	return g, nil
}
