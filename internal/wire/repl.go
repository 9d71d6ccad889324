package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"dpsync/internal/binfmt"
)

// Replication protocol: a follower node dials the primary gateway on the
// same listener the client protocol uses, opening with a 5-byte hello whose
// magic ("DPSR" instead of the client's "DPSG") routes the connection to the
// replication handler. After the version ack the follower sends one ReplJoin
// frame naming its per-shard resume cursors; the primary answers with its
// shard count (the join ack) and then streams ReplFrames — committed WAL entry frames (the
// exact internal/store CRC frame layout, so the follower can re-verify and
// re-append them verbatim), snapshot-transfer markers for followers too far
// behind the primary's replication buffer, and idle heartbeats. The stream
// is one-directional after the handshake: the follower never writes again,
// and detects primary death by read deadline against the heartbeat cadence.
//
// Frames travel inside the same uvarint length-prefixed framing as the client
// protocol (FrameHeader, Conn), which is also what lets
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
// the client codec's rules — minimal-form varints, each fact stated once, one
// encoding per message — and its uvarint frame length, which is all that 4
// changed from 3. There is no negotiation: a primary refuses a hello
// proposing any other version (the retired 1 to 3 included), and a follower
// refuses an ack naming one.
const ReplVersion = 4

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
// proposed codec version byte. The answer is the client protocol's hello ack
// (ReadHelloAck): the accepted codec and the node's backend, or HelloRefused
// alone from a node that serves no read plane.
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

// ReplJoin is the follower's opening frame: who it is and where each shard's
// stream should resume. Cursors[i] is shard i's position — the last stream
// offset the follower has durably applied (0: nothing; stream from the
// beginning or send a snapshot transfer). Offsets are the primary's per-shard
// commit sequence, monotone from 1, so the contiguity rule offset ==
// cursor+1 is what guarantees the link never gaps and never re-applies.
//
// Layout: u8 len · node · uv n · n × uv offset.
type ReplJoin struct {
	Node    string
	Cursors []uint64
}

// EncodeReplJoin serializes a join frame payload.
func EncodeReplJoin(j ReplJoin) ([]byte, error) {
	if len(j.Node) == 0 || len(j.Node) > MaxNodeLen {
		return nil, fmt.Errorf("wire: node id length %d outside [1, %d]", len(j.Node), MaxNodeLen)
	}
	b := make([]byte, 0, 1+len(j.Node)+binary.MaxVarintLen64*(1+len(j.Cursors)))
	b = append(b, byte(len(j.Node)))
	b = append(b, j.Node...)
	b = binfmt.AppendUvarint(b, uint64(len(j.Cursors)))
	for _, c := range j.Cursors {
		b = binfmt.AppendUvarint(b, c)
	}
	return b, nil
}

// DecodeReplJoin parses a join frame payload (malformed input rejected with
// ErrBadFrame, never a panic or over-allocation).
func DecodeReplJoin(b []byte) (ReplJoin, error) {
	r := binfmt.NewReader(b, ErrBadFrame)
	var j ReplJoin
	j.Node = string(r.Bytes(int(r.U8("node length")), "node id"))
	n := r.Uvarint("cursor count")
	// Each cursor takes at least a byte; a larger claim is a lie.
	if n > uint64(r.Remaining()) {
		r.Reject("cursor count %d exceeds frame", n)
	}
	if r.Err() == nil && n > 0 {
		j.Cursors = make([]uint64, n)
		for i := range j.Cursors {
			j.Cursors[i] = r.Uvarint("cursor offset")
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

// EncodeReplJoinAck serializes the primary's answer to a join: its shard
// count (uv shards), which the follower checks against its own.
func EncodeReplJoinAck(shards uint64) []byte { return binfmt.AppendUvarint(nil, shards) }

// DecodeReplJoinAck parses a join-ack frame payload; zero shards is
// ErrBadFrame.
func DecodeReplJoinAck(b []byte) (uint64, error) {
	r := binfmt.NewReader(b, ErrBadFrame)
	shards := r.Uvarint("shard count")
	if err := r.Done("repl join ack"); err != nil {
		return 0, err
	}
	if shards == 0 {
		return 0, fmt.Errorf("%w: zero shard count", ErrBadFrame)
	}
	return shards, nil
}

// ReplFrame kind bytes. 0 is deliberately unused so an all-zero frame cannot
// decode as a valid message.
const (
	// ReplEntry carries one committed WAL entry frame for a shard. Offset is
	// the shard's stream position (0 for snapshot-transfer bootstrap entries,
	// which carry history rather than new commits); CommitNs is the
	// primary's commit wall clock, the follower's replication-lag probe, and
	// rides only on live entries (Offset > 0).
	ReplEntry = 1
	// ReplSnapBegin opens a snapshot transfer on one shard: the bootstrap
	// entries that follow reconstruct the shard's full owner histories up to
	// stream position Offset (the basis the live tail resumes from).
	ReplSnapBegin = 2
	// ReplSnapEnd closes a shard's snapshot transfer: the follower advances
	// its cursor to the basis and expects the live tail next.
	ReplSnapEnd = 3
	// ReplHeartbeat keeps an idle stream alive; it is its kind byte alone.
	ReplHeartbeat = 4
)

// replTraced is the flag bit of an entry's kind byte: the entry's sync was
// sampled, and a trace context — its trace ID and the primary-side parent
// span ID the follower's apply span hangs under — follows the stream
// position.
const replTraced = 0x80

// ReplFrame is one message on the replication stream. Which fields are
// meaningful depends on Kind (see the kind bytes above); Entry is the raw
// store WAL frame — [u32 len][u32 crc][payload] — which the follower CRC-
// verifies and decodes with store.DecodeEntryFrame before applying.
//
// Layouts, after the kind byte:
//
//	ReplEntry      uv shard · uv offset · [u64 commit ns, offset > 0]
//	               · [uv trace · uv parent, traced] · entry (the rest)
//	ReplSnapBegin  uv shard · uv basis
//	ReplSnapEnd    uv shard
//	ReplHeartbeat  (nothing)
type ReplFrame struct {
	Kind     byte
	Shard    uint32
	Offset   uint64
	CommitNs int64
	Entry    []byte
	// TraceID/ParentSpan are the trace context of a sampled entry: a
	// non-zero TraceID makes the entry traced.
	TraceID    uint64
	ParentSpan uint32
}

// EncodeReplFrame serializes a stream frame payload.
func EncodeReplFrame(f ReplFrame) ([]byte, error) {
	var b []byte
	switch f.Kind {
	case ReplEntry:
		if len(f.Entry) == 0 {
			return nil, fmt.Errorf("wire: repl entry frame without entry bytes")
		}
		b = make([]byte, 0, 1+2*binary.MaxVarintLen64+8+binary.MaxVarintLen64+binary.MaxVarintLen32+len(f.Entry))
		kind := byte(ReplEntry)
		if f.TraceID != 0 {
			kind |= replTraced
		}
		b = binfmt.AppendUvarint(append(b, kind), uint64(f.Shard))
		b = binfmt.AppendUvarint(b, f.Offset)
		if f.Offset > 0 {
			b = binfmt.AppendU64(b, uint64(f.CommitNs))
		}
		if f.TraceID != 0 {
			b = binfmt.AppendUvarint(b, f.TraceID)
			b = binfmt.AppendUvarint(b, uint64(f.ParentSpan))
		}
		return append(b, f.Entry...), nil
	case ReplSnapBegin:
		b = binfmt.AppendUvarint([]byte{ReplSnapBegin}, uint64(f.Shard))
		return binfmt.AppendUvarint(b, f.Offset), nil
	case ReplSnapEnd:
		return binfmt.AppendUvarint([]byte{ReplSnapEnd}, uint64(f.Shard)), nil
	case ReplHeartbeat:
		return []byte{ReplHeartbeat}, nil
	default:
		return nil, fmt.Errorf("wire: unknown repl frame kind %d", f.Kind)
	}
}

// DecodeReplFrame parses a stream frame payload (malformed input rejected
// with ErrBadFrame, never a panic or over-allocation). The entry aliases b.
func DecodeReplFrame(b []byte) (ReplFrame, error) {
	r := binfmt.NewReader(b, ErrBadFrame)
	var f ReplFrame
	f.Kind = r.U8("repl frame kind")
	traced := f.Kind == ReplEntry|replTraced
	if traced {
		f.Kind = ReplEntry
	}
	switch f.Kind {
	case ReplEntry:
		f.Shard = uvarint32(&r, "repl shard")
		f.Offset = r.Uvarint("repl offset")
		if f.Offset > 0 {
			f.CommitNs = int64(r.U64("repl commit ns"))
		}
		if traced {
			if f.TraceID = r.Uvarint("repl trace id"); f.TraceID == 0 {
				r.Reject("traced repl entry with a zero trace id")
			}
			f.ParentSpan = uvarint32(&r, "repl parent span")
		}
		if f.Entry = r.Bytes(r.Remaining(), "repl entry"); len(f.Entry) == 0 {
			r.Reject("repl entry frame without entry bytes")
		}
	case ReplSnapBegin:
		f.Shard = uvarint32(&r, "repl shard")
		f.Offset = r.Uvarint("repl snapshot basis")
	case ReplSnapEnd:
		f.Shard = uvarint32(&r, "repl shard")
	case ReplHeartbeat:
	default:
		r.Reject("unknown repl frame kind %d", f.Kind)
	}
	if err := r.Done("repl frame"); err != nil {
		return ReplFrame{}, err
	}
	return f, nil
}

// uvarint32 reads a uvarint that must fit 32 bits.
func uvarint32(r *binfmt.Reader, what string) uint32 {
	v := r.Uvarint(what)
	if v > math.MaxUint32 {
		r.Reject("%s %d overflows 32 bits", what, v)
	}
	return uint32(v)
}
