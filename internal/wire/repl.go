package wire

import (
	"errors"
	"fmt"
	"io"

	"dpsync/internal/binfmt"
)

// Replication protocol: a follower node dials the primary gateway on the
// same listener the client protocol uses, opening with a 5-byte hello whose
// magic ("DPSR" instead of the client's "DPSG") routes the connection to the
// replication handler. After the version ack the follower sends one ReplJoin
// frame naming its per-shard resume cursors; the primary answers with a
// ReplJoinAck and then streams ReplFrames — committed WAL entry frames (the
// exact internal/store CRC frame layout, so the follower can re-verify and
// re-append them verbatim), snapshot-transfer markers for followers too far
// behind the primary's replication buffer, and idle heartbeats. The stream
// is one-directional after the handshake: the follower never writes again,
// and detects primary death by read deadline against the heartbeat cadence.
//
// Frames travel inside the same 4-byte length-prefixed framing as the client
// protocol (WriteFrame / ReadFrame), which is also what lets
// internal/faultnet's frame-boundary write buffering wrap the replication
// link unchanged.

// replMagic opens a replication connection; same shape as helloMagic so a
// single 5-byte read can dispatch either protocol.
var replMagic = [4]byte{'D', 'P', 'S', 'R'}

// readMagic opens a read-only client connection ("DPSQ" — Q for query): the
// same multiplexed client protocol as helloMagic, but the serving node only
// answers queries and stats. A cluster follower — which refuses every
// "DPSG" hello with ErrNotPrimary — accepts this one and serves from its
// replicated committed prefix; sync/resume frames arriving on it are
// refused per-request. The byte after the magic proposes the codec, acked
// exactly like the client hello.
var readMagic = [4]byte{'D', 'P', 'S', 'Q'}

// ReplVersion is the one replication protocol version this build speaks:
// streams carry ReplEntry frames, and ReplEntryTraced frames for sampled
// syncs (the trace-context extension — a trace ID and parent span ID — that
// lets a span tree cross the replication link). There is no negotiation: a
// primary refuses a hello proposing any other version, and a follower
// refuses an ack naming one.
const ReplVersion = 2

// HelloRefused is the hello-ack byte a non-primary node answers to any
// hello, client or replication: this node cannot serve you, try another
// address. It is CodeNotPrimary's hello form (the ack slot is one byte), read
// back as the same sentinel, and deliberately sits outside every valid
// codec/version value.
const HelloRefused = 0xFF

// ErrNotPrimary is CodeNotPrimary's sentinel: a dialed node says so at the
// hello (HelloRefused), a read-only connection per write request (a
// Refusal). Clients with an address list treat the hello form as "advance to
// the next address", not as a failure of the cluster.
var ErrNotPrimary = errors.New("wire: node is not the cluster primary")

// HelloKind discriminates what protocol a connection's hello opened.
type HelloKind int

const (
	// HelloClient is the multiplexed client protocol ("DPSG" + codec byte).
	HelloClient HelloKind = iota
	// HelloRepl is the replication protocol ("DPSR" + version byte).
	HelloRepl
	// HelloRead is the read-only client protocol ("DPSQ" + codec byte):
	// queries and stats only, served by followers from their committed
	// replicated prefix (and by a primary, which is trivially fresh).
	HelloRead
)

// WriteReadHello sends the 5-byte read-only hello: readMagic then the
// proposed codec version byte. The answer is the same 1-byte hello ack as
// the client protocol (ReadHelloAck): the accepted codec, or HelloRefused
// from a node that serves no read plane.
func WriteReadHello(w io.Writer, proposed Codec) error {
	return writeHello(w, readMagic, byte(proposed))
}

// WriteReplHello sends the 5-byte replication hello.
func WriteReplHello(w io.Writer, version byte) error {
	return writeHello(w, replMagic, version)
}

// ReadAnyHello consumes one 5-byte hello and reports which protocol it
// opens: HelloClient or HelloRead with the proposed codec, or HelloRepl with
// the proposed replication version. A magic matching no protocol is a
// violation (ErrBadFrame). An unknown codec/version byte is not an error
// here — the server answers an unknown codec with the one it speaks (the
// client decides whether it can live with that) and an unknown replication
// version with a refusal.
func ReadAnyHello(r io.Reader) (HelloKind, byte, error) {
	var buf [5]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, fmt.Errorf("wire: reading hello: %w", err)
	}
	switch [4]byte(buf[:4]) {
	case helloMagic:
		return HelloClient, buf[4], nil
	case replMagic:
		return HelloRepl, buf[4], nil
	case readMagic:
		return HelloRead, buf[4], nil
	default:
		return 0, 0, fmt.Errorf("%w: bad hello magic %q", ErrBadFrame, buf[:4])
	}
}

// WriteHelloRefused answers a hello with the refusal byte: this node is not
// primary. Works for both protocols — the ack slot is one byte either way.
func WriteHelloRefused(w io.Writer) error {
	if _, err := w.Write([]byte{HelloRefused}); err != nil {
		return fmt.Errorf("wire: hello refusal: %w", err)
	}
	return nil
}

// WriteReplHelloAck sends the primary's 1-byte answer: the replication
// version the stream will speak.
func WriteReplHelloAck(w io.Writer, version byte) error {
	if _, err := w.Write([]byte{version}); err != nil {
		return fmt.Errorf("wire: repl hello ack: %w", err)
	}
	return nil
}

// ReadReplHelloAck consumes the primary's answer. A refusal byte means the
// dialed node cannot serve the stream (ErrNotPrimary — redial elsewhere);
// anything but ReplVersion is a hard error.
func ReadReplHelloAck(r io.Reader) error {
	var buf [1]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return fmt.Errorf("wire: reading repl hello ack: %w", err)
	}
	if buf[0] == HelloRefused {
		return ErrNotPrimary
	}
	if buf[0] != ReplVersion {
		return fmt.Errorf("%w: primary speaks repl version %d, want %d", ErrBadFrame, buf[0], ReplVersion)
	}
	return nil
}

// MaxNodeLen bounds a cluster node identifier, mirroring MaxOwnerLen.
const MaxNodeLen = 255

// ReplCursor is a follower's resume position on one shard's replication
// stream: Offset is the last stream offset the follower has durably applied
// (0: nothing — stream from the beginning or send a snapshot transfer).
// Offsets are the primary's per-shard commit sequence, monotone from 1, so
// the contiguity rule offset == cursor+1 is what guarantees the link never
// gaps and never re-applies.
type ReplCursor struct {
	Shard  uint32
	Offset uint64
}

// ReplJoin is the follower's opening frame: who it is and where each shard's
// stream should resume.
type ReplJoin struct {
	Node    string
	Cursors []ReplCursor
}

// EncodeReplJoin serializes a join frame payload.
func EncodeReplJoin(j ReplJoin) ([]byte, error) {
	if len(j.Node) == 0 || len(j.Node) > MaxNodeLen {
		return nil, fmt.Errorf("wire: node id length %d outside [1, %d]", len(j.Node), MaxNodeLen)
	}
	b := make([]byte, 0, 2+len(j.Node)+4+12*len(j.Cursors))
	b = append(b, byte(len(j.Node)))
	b = append(b, j.Node...)
	b = binfmt.AppendU32(b, uint32(len(j.Cursors)))
	for _, c := range j.Cursors {
		b = binfmt.AppendU32(b, c.Shard)
		b = binfmt.AppendU64(b, c.Offset)
	}
	return b, nil
}

// DecodeReplJoin parses a join frame payload (malformed input rejected with
// ErrBadFrame, never a panic or over-allocation).
func DecodeReplJoin(b []byte) (ReplJoin, error) {
	if len(b) == 0 {
		return ReplJoin{}, fmt.Errorf("%w: empty repl join frame", ErrBadFrame)
	}
	r := binfmt.NewReader(b, ErrBadFrame)
	var j ReplJoin
	nodeLen := int(r.U8("node length"))
	j.Node = string(r.Bytes(nodeLen, "node id"))
	n := int(r.U32("cursor count"))
	// Each cursor costs 12 bytes; a larger claim is a lie.
	if n > r.Remaining()/12 {
		return ReplJoin{}, fmt.Errorf("%w: cursor count %d exceeds frame", ErrBadFrame, n)
	}
	if n > 0 {
		j.Cursors = make([]ReplCursor, n)
		for i := range j.Cursors {
			j.Cursors[i].Shard = r.U32("cursor shard")
			j.Cursors[i].Offset = r.U64("cursor offset")
		}
	}
	if err := r.Done("repl join"); err != nil {
		return ReplJoin{}, err
	}
	if j.Node == "" {
		return ReplJoin{}, fmt.Errorf("%w: empty node id", ErrBadFrame)
	}
	return j, nil
}

// ReplJoinAck flag bits.
const replJoinFlagSnapshot = 1

// ReplJoinAck is the primary's answer to a join: the shard count the stream
// will carry (the follower sizes its cursors by it) and whether the primary
// will open with a snapshot transfer because at least one requested cursor
// has fallen behind its replication buffer.
type ReplJoinAck struct {
	Shards   uint32
	Snapshot bool
}

// EncodeReplJoinAck serializes a join-ack frame payload.
func EncodeReplJoinAck(a ReplJoinAck) []byte {
	b := make([]byte, 0, 5)
	b = binfmt.AppendU32(b, a.Shards)
	var flags byte
	if a.Snapshot {
		flags |= replJoinFlagSnapshot
	}
	return append(b, flags)
}

// DecodeReplJoinAck parses a join-ack frame payload.
func DecodeReplJoinAck(b []byte) (ReplJoinAck, error) {
	if len(b) == 0 {
		return ReplJoinAck{}, fmt.Errorf("%w: empty repl join ack frame", ErrBadFrame)
	}
	r := binfmt.NewReader(b, ErrBadFrame)
	var a ReplJoinAck
	a.Shards = r.U32("shard count")
	flags := r.U8("join ack flags")
	if r.Err() == nil && flags&^byte(replJoinFlagSnapshot) != 0 {
		return ReplJoinAck{}, fmt.Errorf("%w: unknown join ack flag bits %#x", ErrBadFrame, flags)
	}
	a.Snapshot = flags&replJoinFlagSnapshot != 0
	if err := r.Done("repl join ack"); err != nil {
		return ReplJoinAck{}, err
	}
	if a.Shards == 0 {
		return ReplJoinAck{}, fmt.Errorf("%w: zero shard count", ErrBadFrame)
	}
	return a, nil
}

// ReplFrame kind bytes. 0 is deliberately unused so an all-zero frame cannot
// decode as a valid message.
const (
	// ReplEntry carries one committed WAL entry frame for a shard. Offset is
	// the shard's stream position (0 for snapshot-transfer bootstrap entries,
	// which carry history rather than new commits); CommitNs is the
	// primary's commit wall clock, the follower's replication-lag probe.
	ReplEntry = 1
	// ReplSnapBegin opens a snapshot transfer on one shard: the bootstrap
	// entries that follow reconstruct the shard's full owner histories up to
	// stream position Offset (the basis the live tail resumes from).
	ReplSnapBegin = 2
	// ReplSnapEnd closes a shard's snapshot transfer: the follower advances
	// its cursor to the basis and expects the live tail next.
	ReplSnapEnd = 3
	// ReplHeartbeat keeps an idle stream alive and carries the primary's
	// wall clock so followers can bound staleness.
	ReplHeartbeat = 4
	// ReplEntryTraced is a ReplEntry carrying the trace-context extension:
	// the trace ID of the sampled sync that committed the entry and the
	// primary-side parent span ID the follower's apply span hangs under.
	ReplEntryTraced = 5
)

// ReplFrame is one message on the replication stream. Which fields are
// meaningful depends on Kind (see the kind bytes above); Entry is the raw
// store WAL frame — [u32 len][u32 crc][payload] — which the follower CRC-
// verifies and decodes with store.DecodeEntryFrame before applying.
type ReplFrame struct {
	Kind     byte
	Shard    uint32
	Offset   uint64
	CommitNs int64
	Entry    []byte
	// TraceID/ParentSpan are the trace-context extension, meaningful only
	// on ReplEntryTraced frames (TraceID must be non-zero there).
	TraceID    uint64
	ParentSpan uint32
}

// EncodeReplFrame serializes a stream frame payload.
func EncodeReplFrame(f ReplFrame) ([]byte, error) {
	switch f.Kind {
	case ReplEntry:
		if len(f.Entry) == 0 {
			return nil, fmt.Errorf("wire: repl entry frame without entry bytes")
		}
		b := make([]byte, 0, 1+4+8+8+4+len(f.Entry))
		b = append(b, ReplEntry)
		b = binfmt.AppendU32(b, f.Shard)
		b = binfmt.AppendU64(b, f.Offset)
		b = binfmt.AppendU64(b, uint64(f.CommitNs))
		b = binfmt.AppendU32(b, uint32(len(f.Entry)))
		return append(b, f.Entry...), nil
	case ReplEntryTraced:
		if len(f.Entry) == 0 {
			return nil, fmt.Errorf("wire: repl traced entry frame without entry bytes")
		}
		if f.TraceID == 0 {
			return nil, fmt.Errorf("wire: repl traced entry frame without trace ID")
		}
		b := make([]byte, 0, 1+4+8+8+8+4+4+len(f.Entry))
		b = append(b, ReplEntryTraced)
		b = binfmt.AppendU32(b, f.Shard)
		b = binfmt.AppendU64(b, f.Offset)
		b = binfmt.AppendU64(b, uint64(f.CommitNs))
		b = binfmt.AppendU64(b, f.TraceID)
		b = binfmt.AppendU32(b, f.ParentSpan)
		b = binfmt.AppendU32(b, uint32(len(f.Entry)))
		return append(b, f.Entry...), nil
	case ReplSnapBegin:
		b := make([]byte, 0, 1+4+8)
		b = append(b, ReplSnapBegin)
		b = binfmt.AppendU32(b, f.Shard)
		return binfmt.AppendU64(b, f.Offset), nil
	case ReplSnapEnd:
		b := make([]byte, 0, 1+4)
		b = append(b, ReplSnapEnd)
		return binfmt.AppendU32(b, f.Shard), nil
	case ReplHeartbeat:
		b := make([]byte, 0, 1+8)
		b = append(b, ReplHeartbeat)
		return binfmt.AppendU64(b, uint64(f.CommitNs)), nil
	default:
		return nil, fmt.Errorf("wire: unknown repl frame kind %d", f.Kind)
	}
}

// DecodeReplFrame parses a stream frame payload (malformed input rejected
// with ErrBadFrame, never a panic or over-allocation).
func DecodeReplFrame(b []byte) (ReplFrame, error) {
	if len(b) == 0 {
		return ReplFrame{}, fmt.Errorf("%w: empty repl frame", ErrBadFrame)
	}
	r := binfmt.NewReader(b, ErrBadFrame)
	var f ReplFrame
	f.Kind = r.U8("repl frame kind")
	switch f.Kind {
	case ReplEntry:
		f.Shard = r.U32("repl shard")
		f.Offset = r.U64("repl offset")
		f.CommitNs = int64(r.U64("repl commit ns"))
		n := int(r.U32("repl entry length"))
		f.Entry = r.Bytes(n, "repl entry bytes")
		if r.Err() == nil && len(f.Entry) == 0 {
			return ReplFrame{}, fmt.Errorf("%w: repl entry frame without entry bytes", ErrBadFrame)
		}
	case ReplEntryTraced:
		f.Shard = r.U32("repl shard")
		f.Offset = r.U64("repl offset")
		f.CommitNs = int64(r.U64("repl commit ns"))
		f.TraceID = r.U64("repl trace id")
		f.ParentSpan = r.U32("repl parent span")
		n := int(r.U32("repl entry length"))
		f.Entry = r.Bytes(n, "repl entry bytes")
		if r.Err() == nil && len(f.Entry) == 0 {
			return ReplFrame{}, fmt.Errorf("%w: repl traced entry frame without entry bytes", ErrBadFrame)
		}
		if r.Err() == nil && f.TraceID == 0 {
			return ReplFrame{}, fmt.Errorf("%w: repl traced entry frame without trace ID", ErrBadFrame)
		}
	case ReplSnapBegin:
		f.Shard = r.U32("repl shard")
		f.Offset = r.U64("repl snapshot basis")
	case ReplSnapEnd:
		f.Shard = r.U32("repl shard")
	case ReplHeartbeat:
		f.CommitNs = int64(r.U64("repl commit ns"))
	default:
		return ReplFrame{}, fmt.Errorf("%w: unknown repl frame kind %d", ErrBadFrame, f.Kind)
	}
	if err := r.Done("repl frame"); err != nil {
		return ReplFrame{}, err
	}
	return f, nil
}
