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
// batch's ciphertexts travel as one uniform-width block; an answer is one
// scalar or one group vector, its values at one Width — the least that holds
// the bound the answering store's size puts on them, or floats — or a group
// vector as one index a stored record (WidthIndex) when that is fewer bytes;
// a refused request is answered with one typed refusal section (the layout
// table is in doc.go, "Serving"). A request names its owner inline or by a
// handle its connection bound (MaxBindings). Version byte 7; 6 sent every
// group vector one value a group, 5 padded every answer to 4-byte groups
// beside an 8-byte scalar, 4 named the owner inline in every request, 3 said
// no with an error text beside two flag bits, 2 was the fixed-width-integer
// layout and 1 a JSON encoding — all retired, no byte ever reused.
const CodecBinary Codec = 7

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
// keys, not payload; one byte of length is plenty, and its zero value is free
// to mean "a handle follows" (MaxBindings), so a name is 1 to 255 bytes.
const MaxOwnerLen = 255

// MaxBindings bounds the owner handles one connection binds. A request names
// its owner inline (u8 len · name) or by a handle (u8 0 · uvarint handle ≥ 1),
// and both ends of a connection apply one rule to every request frame that
// parses: an inline name names its owner, and if that name is not yet bound on
// the connection and fewer than MaxBindings names are, it also binds the next
// handle — 1 for the first name, 2 for the second. A binding lasts as long as
// its connection, and takes effect whatever the server then answers, so a
// refused or duplicated frame leaves both tables the same. An owner past the
// bound is named inline on every frame. The codec itself is stateless: it
// writes and reads either form and never checks a handle against a table.
const MaxBindings = 4096

// Bindings is the sending end's table of a connection's owner handles: the
// handle each owner it named inline was bound to. The zero value is an empty
// table; a new connection starts with one.
type Bindings struct{ handles map[string]uint64 }

// Handle returns owner's handle on the connection, 0 if it has none.
func (b *Bindings) Handle(owner string) uint64 { return b.handles[owner] }

// Sent applies the binding rule to a frame that named owner inline and went
// out: owner gets the next handle unless it has one or the table is full.
func (b *Bindings) Sent(owner string) {
	if _, ok := b.handles[owner]; ok || len(b.handles) >= MaxBindings {
		return
	}
	if b.handles == nil {
		b.handles = make(map[string]uint64)
	}
	b.handles[owner] = uint64(len(b.handles)) + 1
}

// Len reports how many owners are bound.
func (b *Bindings) Len() int { return len(b.handles) }

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
// targets — by name (Owner) or by the handle the connection bound it to
// (Handle, see MaxBindings). Exactly one of the two is set.
type GatewayRequest struct {
	ID     uint64
	Owner  string
	Handle uint64
	Req    Request
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
// set, a refused response sets nothing else, and an answer is one of
// flagScalar and flagGroups, never both. Bit 128 was codec 3's stale marker;
// it is retired and must be clear (its backpressure marker, 64, is the
// group vector since codec 6).
const (
	flagOK = 1 << iota
	flagRefused
	flagScalar
	flagCost
	flagStats
	flagResume
	flagGroups
	flagsKnown = 1<<iota - 1
)

// Rejections of a block whose claimed size exceeds its frame, or of an index
// layout's vector past what a 2-byte index pads, are fixed values: a hostile
// count costs the decoder no allocation at all.
var (
	errSealedBlock = fmt.Errorf("%w: sealed block exceeds frame", ErrBadFrame)
	errAnswerBlock = fmt.Errorf("%w: answer values exceed frame", ErrBadFrame)
	errIndexPad    = fmt.Errorf("%w: more groups than a 2-byte index pads", ErrBadFrame)
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
//	uvarint id · owner · u8 type ·
//	  owner:          u8 len (1..255) · name  |  u8 0 · uvarint handle (≥ 1)
//	  setup, update:  uvarint seq · uvarint n · [uvarint width · n×width bytes]
//	  query:          u8 kind · u8 provider · u8 joinWith · u16 lo · u16 hi
//	  bounded query:  the same seven bytes · uvarint minOffset (> 0)
//	  stats, resume:  nothing
func AppendGatewayRequest(dst []byte, g GatewayRequest) ([]byte, error) {
	if len(g.Owner) > MaxOwnerLen {
		return dst, fmt.Errorf("wire: owner id %d bytes exceeds %d", len(g.Owner), MaxOwnerLen)
	}
	if (g.Owner == "") == (g.Handle == 0) {
		return dst, fmt.Errorf("wire: a request names its owner by exactly one of name and handle (%d-byte name, handle %d)", len(g.Owner), g.Handle)
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
	// Envelope and the largest body at their widest (five varints, two
	// bytes, the name), then the block.
	b := slices.Grow(dst, 52+len(g.Owner)+len(g.Req.Sealed)*width)
	b = binfmt.AppendUvarint(b, g.ID)
	b = append(b, byte(len(g.Owner)))
	if g.Handle > 0 {
		b = binfmt.AppendUvarint(b, g.Handle)
	}
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
	g := GatewayRequest{ID: f.ID, Owner: string(f.Owner), Handle: f.Handle, Req: f.Req}
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
// batch of none). Exactly one of Owner and Handle is set. A caller that keeps
// the frame's buffer for the next read copies what it needs first.
type RequestFrame struct {
	ID     uint64
	Owner  []byte
	Handle uint64
	Req    Request
	Width  int
	Block  []byte
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
	if ownerLen := int(r.U8("owner length")); ownerLen > 0 {
		f.Owner = r.Bytes(ownerLen, "owner id")
	} else if f.Handle = r.Uvarint("owner handle"); r.Err() == nil && f.Handle == 0 {
		return RequestFrame{}, fmt.Errorf("%w: owner handle 0", ErrBadFrame)
	}
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

// appendValues appends vs at width w, and reports false — appending nothing
// — when w does not hold one of them. It writes and tests in one pass, into
// the room it made first: an answer is one width, so the width's case is
// taken once and its largest count read once.
func appendValues(b []byte, w Width, vs []float64) ([]byte, bool) {
	start := len(b)
	b = slices.Grow(b, len(vs)*w.size())[:start+len(vs)*w.size()]
	out, limit := b[start:], w.maxCount()
	ok := true
	switch w {
	case WidthFloat:
		for i, v := range vs {
			binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
	case 1:
		for i, v := range vs {
			ok = ok && fits(v, limit)
			out[i] = byte(v)
		}
	case 2:
		for i, v := range vs {
			ok = ok && fits(v, limit)
			binary.BigEndian.PutUint16(out[2*i:], uint16(v))
		}
	case 4:
		for i, v := range vs {
			ok = ok && fits(v, limit)
			binary.BigEndian.PutUint32(out[4*i:], uint32(v))
		}
	default:
		for i, v := range vs {
			ok = ok && fits(v, limit)
			binary.BigEndian.PutUint64(out[8*i:], uint64(v))
		}
	}
	if !ok {
		return b[:start], false
	}
	return b, true
}

// appendIndices appends counts as slots 2-byte indices — each group's once
// per record it counted, in group order, then the pad, len(counts), for the
// slots left — and reports false, appending nothing, unless they are exact
// counts that sum to at most slots (0 ≤ slots). Like appendValues it tests
// and writes in one pass, into the room it made first.
func appendIndices(b []byte, counts []float64, slots int) ([]byte, bool) {
	start := len(b)
	b = slices.Grow(b, 2*slots)[:start+2*slots]
	out, left := b[start:], uint64(slots)
	for z, c := range counts {
		if math.Float64bits(c) == 0 {
			continue // +0, most groups of a small store's answer
		}
		if !fits(c, left) {
			return b[:start], false
		}
		n := uint64(int64(c))
		for range n {
			binary.BigEndian.PutUint16(out, uint16(z))
			out = out[2:]
		}
		left -= n
	}
	for ; left > 0; left-- {
		binary.BigEndian.PutUint16(out, uint16(len(counts)))
		out = out[2:]
	}
	return b, true
}

// readIndices counts an index layout's block into groups, refusing an index
// below the one before it or past the pad, len(groups).
func readIndices(groups []float64, block []byte) error {
	prev := 0
	for i := 0; i < len(block); i += 2 {
		z := int(binary.BigEndian.Uint16(block[i:]))
		if z < prev || z > len(groups) {
			return fmt.Errorf("%w: answer index %d after %d in a vector of %d groups", ErrBadFrame, z, prev, len(groups))
		}
		if z < len(groups) {
			groups[z]++
		}
		prev = z
	}
	return nil
}

// readValues decodes len(vs) values at width w from block, refusing an
// 8-byte integer past the width's largest count: no float64 holds it, so it
// has no message.
func readValues(vs []float64, block []byte, w Width) error {
	switch w {
	case 1:
		for i := range vs {
			vs[i] = float64(block[i])
		}
	case 2:
		for i := range vs {
			vs[i] = float64(binary.BigEndian.Uint16(block[2*i:]))
		}
	case 4:
		for i := range vs {
			vs[i] = float64(binary.BigEndian.Uint32(block[4*i:]))
		}
	case 8:
		for i := range vs {
			u := binary.BigEndian.Uint64(block[8*i:])
			if u > w.maxCount() {
				return fmt.Errorf("%w: an answer value over its 8-byte width", ErrBadFrame)
			}
			vs[i] = float64(u)
		}
	default:
		for i := range vs {
			vs[i] = math.Float64frombits(binary.BigEndian.Uint64(block[8*i:]))
		}
	}
	return nil
}

// AppendGatewayResponse appends the response envelope's binary encoding to
// dst, with AppendGatewayRequest's growth rule. A response that is not
// exactly one of OK and refused, a refusal beside another section, and a
// refusal its code does not allow (unknown code, a cursor or a text where the
// code carries none) are a caller's bug, refused.
//
// An answer whose values its Width does not hold, a scalar beside groups and
// an unknown width are refused too, and so are indices on a scalar, on more
// than 65,535 groups or on counts that sum past Slots, and Slots beside
// any other width.
//
//	uvarint id · u8 flags ·
//	  [refusal: u8 code · uvarint cursor · uvarint len · detail]
//	  [scalar:  u8 width · value]                       (flag 4)
//	  [groups:  u8 width · uvarint n (≥ 1) · n × value]  (flag 64)
//	            width 1, 2, 4, 8: a big-endian count; 0: f64
//	         |  u8 0x82 · uvarint n (1..65535) · uvarint k · k × u16 index
//	            the counted records' groups, non-decreasing, then n (the pad)
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
	if a := resp.Answer; a != nil {
		if len(a.Groups) == 0 {
			flags |= flagScalar
		} else if math.Float64bits(a.Scalar) != 0 {
			return dst, fmt.Errorf("wire: a scalar %v beside %d groups", a.Scalar, len(a.Groups))
		} else {
			flags |= flagGroups
		}
		if a.Width == WidthIndex {
			if flags&flagGroups == 0 || len(a.Groups) > maxIndexed || a.Slots < 0 || a.Slots > MaxFrame/2 {
				return dst, fmt.Errorf("wire: %d groups as %d indices", len(a.Groups), a.Slots)
			}
		} else if a.Width.size() == 0 || a.Slots != 0 {
			return dst, fmt.Errorf("wire: answer width %d with %d index slots", a.Width, a.Slots)
		}
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
	if a := resp.Answer; a != nil {
		size += a.Width.size()*len(a.Groups) + 2*a.Slots
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
	if a := resp.Answer; a != nil {
		b = append(b, byte(a.Width))
		values := a.Groups
		if flags&flagScalar != 0 {
			values = []float64{a.Scalar}
		} else {
			b = binfmt.AppendUvarint(b, uint64(len(values)))
		}
		var ok bool
		if a.Width == WidthIndex {
			if b, ok = appendIndices(binfmt.AppendUvarint(b, uint64(a.Slots)), values, a.Slots); !ok {
				return dst, fmt.Errorf("wire: %d groups that are not counts within their %d indices", len(values), a.Slots)
			}
		} else if b, ok = appendValues(b, a.Width, values); !ok {
			return dst, fmt.Errorf("wire: an answer value its width %d does not hold", a.Width)
		}
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
	if flags&(flagScalar|flagGroups) == flagScalar|flagGroups {
		return GatewayResponse{}, fmt.Errorf("%w: a scalar beside groups", ErrBadFrame)
	}
	if flags&(flagScalar|flagGroups) != 0 {
		a := AnswerSpec{Width: Width(r.U8("answer width"))}
		// n values of size bytes each, or, in the index layout, count indices.
		size, n := a.Width.size(), uint64(1)
		if flags&flagGroups != 0 {
			n = r.Uvarint("group count")
		}
		count, indexed := n, a.Width == WidthIndex && flags&flagGroups != 0
		if indexed {
			size, count = 2, r.Uvarint("answer index count")
		}
		if r.Err() != nil {
			return GatewayResponse{}, r.Err()
		}
		if size == 0 {
			return GatewayResponse{}, fmt.Errorf("%w: answer width %d", ErrBadFrame, a.Width)
		}
		if n == 0 {
			return GatewayResponse{}, fmt.Errorf("%w: a group vector of none", ErrBadFrame)
		}
		if indexed && n > maxIndexed {
			return GatewayResponse{}, errIndexPad
		}
		if count > uint64(r.Remaining()/size) {
			return GatewayResponse{}, errAnswerBlock
		}
		block := r.Bytes(int(count)*size, "answer values")
		var scalar [1]float64
		values := scalar[:]
		if flags&flagGroups != 0 {
			a.Groups = make([]float64, n)
			values = a.Groups
		}
		var err error
		if indexed {
			a.Slots, err = int(count), readIndices(values, block)
		} else {
			err = readValues(values, block, a.Width)
		}
		if err != nil {
			return GatewayResponse{}, err
		}
		a.Scalar = scalar[0]
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
