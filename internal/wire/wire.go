// Package wire defines the client/server protocol for the networked
// three-party deployment: length-prefixed frames over TCP carrying the EDB
// protocol messages (setup, update, query, stats).
//
// There is one payload codec, the binary one (binary.go): each frame carries
// a request ID and an owner namespace (GatewayRequest / GatewayResponse)
// around the EDB message, so one connection can multiplex many owners'
// pipelined sync batches. A request names its owner once per connection —
// inline the first time, which binds a handle, and by that handle after
// (MaxBindings). The codec is compact and canonical — counters are
// minimal-form varints, a batch's ciphertexts one uniform-width block, an
// answer's groups 4-byte integers when every group is one — so a one-record
// sync is 55 bytes on the wire by handle (66 inline) and its ack 6, and each
// message has exactly one byte string (TestFrameSizes pins the sizes, the
// fuzz targets the bijection). What a frame's length reveals is what the protocol already
// reveals: how many records a sync carries (an owner seals them as one
// message, seal.Size(n) bytes), never how many are dummies, and which query
// was asked, never what the data answered.
//
// A response is exactly one of OK and refused, and there is one way to
// refuse: a Refusal (refusal.go), which is also the error the client returns
// — callers branch on its code's sentinel with errors.Is, never on text.
//
// A connection opens with a 5-byte hello — magic plus a version byte
// (WriteHello / ReadAnyHello) — that says which protocol it speaks:
// read-write client, read-only client, or replication (repl.go).
//
// After the hello there is one way to move a frame: Conn (conn.go), a
// buffered frame connection whose reader yields every pipelined frame one
// socket read brought in and whose writer builds frames in place — the
// codec's Append encoders write behind a header Conn reserves — and reaches
// the socket only when its owner flushes or the buffer fills. When to flush
// is the owner's rule, and every owner's rule is "when nothing more is
// waiting", never a timer. The package-level ReadFrame and WriteFrame are
// the unbuffered pair for exact-length exchanges on a raw connection
// (handshakes, tools, tests).
//
// Records cross the wire only as sealed ciphertexts — the owner encrypts
// locally and the server never sees plaintexts or the real/dummy split. The
// enclave half of the server (which holds the data key, standing in for an
// attested SGX enclave) is the only component that opens ciphertexts.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
)

// MaxFrame bounds a single frame (16 MiB): large enough for any realistic
// sync batch, small enough to stop a malformed length prefix from OOMing
// the server.
const MaxFrame = 16 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// ErrBadFrame is the typed error wrapping every payload-decoding failure:
// zero-length frames where a message is required, truncated or trailing
// bytes, counts that exceed the frame. Servers match it with errors.Is to
// tell protocol violations (count them, hang up after a bound) apart from
// application errors (report them, keep serving).
var ErrBadFrame = errors.New("wire: malformed frame")

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: payload: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: short payload: %w", err)
	}
	return payload, nil
}

// MsgType discriminates protocol requests.
type MsgType string

// Protocol message types.
const (
	MsgSetup  MsgType = "setup"
	MsgUpdate MsgType = "update"
	MsgQuery  MsgType = "query"
	MsgStats  MsgType = "stats"
	// MsgResume asks the gateway for the owner's committed logical clock —
	// the reconnect handshake. A client that lost its connection mid-
	// pipeline resumes from the returned clock instead of guessing which of
	// its in-flight syncs landed (see Response.Resume).
	MsgResume MsgType = "resume"
)

// Request is a client→server message.
type Request struct {
	Type MsgType
	// Sealed carries ciphertexts for setup/update.
	Sealed [][]byte
	// Query describes the analyst request for MsgQuery.
	Query *QuerySpec
	// Seq is the owner's sync sequence number for setup/update requests:
	// the logical tick this sync claims (setup is 1, the first update 2,
	// ...). The gateway applies syncs tick-ordered and idempotently — a
	// retransmitted Seq the owner has already applied is acknowledged
	// without re-ingesting or re-charging the ε ledger, which is what makes
	// reconnect replay a privacy-safe operation. Every sync is sequenced: the
	// gateway refuses Seq 0, and a setup at any Seq but 1, as a bad request.
	Seq uint64
	// MinOffset is the freshness bound for MsgQuery on a read-only (replica)
	// connection: the minimum per-shard replication offset the answering
	// node must have committed. 0 means "any" — serve whatever committed
	// prefix the replica holds. A primary ignores it (the primary is always
	// fresh); a follower behind the bound refuses (CodeStale) instead of
	// answering. Only a query carries one: the encoder refuses a
	// bound on any other message type rather than drop it silently.
	MinOffset uint64
}

// QuerySpec is the wire form of query.Query.
type QuerySpec struct {
	Kind     int
	Provider uint8
	JoinWith uint8
	Lo       uint16
	Hi       uint16
}

// ToQuery converts the wire form back to a query.Query.
func (s QuerySpec) ToQuery() query.Query {
	return query.Query{
		Kind:     query.Kind(s.Kind),
		Provider: record.Provider(s.Provider),
		JoinWith: record.Provider(s.JoinWith),
		Lo:       s.Lo,
		Hi:       s.Hi,
	}
}

// FromQuery converts a query.Query to its wire form.
func FromQuery(q query.Query) QuerySpec {
	return QuerySpec{
		Kind:     int(q.Kind),
		Provider: uint8(q.Provider),
		JoinWith: uint8(q.JoinWith),
		Lo:       q.Lo,
		Hi:       q.Hi,
	}
}

// Response is a server→client message: exactly one of OK and Refusal. An OK
// response carries the sections its request asks for; a refused one carries
// nothing but the refusal (refusal.go) — the codec accepts no other shape.
type Response struct {
	OK      bool
	Refusal *Refusal
	Answer  *AnswerSpec
	Cost    *CostSpec
	Stats   *StatsSpec
	// Resume answers a MsgResume handshake, and rides on the ack of a
	// duplicate sync (see ResumeSpec).
	Resume *ResumeSpec
}

// ResumeSpec is the gateway's answer to a resume handshake: the owner's
// committed logical clock — how many syncs (setup + updates) have durably
// landed in this owner's namespace. A reconnecting client replays anything
// it sent past Clock and skips anything at or below it; the gateway's
// tick-ordered idempotent apply makes the replay safe either way. The ack of
// a duplicate sync carries one too, read when the ack is sent (a plain ack
// carries none): a setup that finds tick 1 taken learns from it where the
// owner's clock stands, without a resume.
type ResumeSpec struct {
	Clock uint64
}

// AnswerSpec is the wire form of query.Answer.
type AnswerSpec struct {
	Scalar float64
	Groups []float64
}

// ToAnswer converts back to a query.Answer.
func (a AnswerSpec) ToAnswer() query.Answer {
	return query.Answer{Scalar: a.Scalar, Groups: a.Groups}
}

// CostSpec is the wire form of edb.Cost.
type CostSpec struct {
	Seconds        float64
	RecordsScanned int64
	PairsCompared  int64
}

// ToCost converts back to an edb.Cost.
func (c CostSpec) ToCost() edb.Cost {
	return edb.Cost{Seconds: c.Seconds, RecordsScanned: c.RecordsScanned, PairsCompared: c.PairsCompared}
}

// StatsSpec is the wire form of edb.StorageStats (server view: no split).
// Scheme and Leakage let a remote owner session report its backend's
// identity and §6 leakage class without a dedicated info message.
type StatsSpec struct {
	Records int
	Bytes   int64
	Updates int
	// Scheme is the backend's edb.Database Name ("ObliDB", "Crypteps", ...).
	Scheme string
	// Leakage is the backend's edb.LeakageClass as an int.
	Leakage int
}

// NewQueryResponse builds the success response for a query evaluation —
// shared by the gateway and the follower read plane so the answer/cost wire
// shape cannot diverge between them.
func NewQueryResponse(ans query.Answer, cost edb.Cost) Response {
	return Response{
		OK:     true,
		Answer: &AnswerSpec{Scalar: ans.Scalar, Groups: ans.Groups},
		Cost: &CostSpec{
			Seconds:        cost.Seconds,
			RecordsScanned: cost.RecordsScanned,
			PairsCompared:  cost.PairsCompared,
		},
	}
}

// NewStatsResponse builds the success response for a stats request (the
// server view: record/byte/update totals, never the real/dummy split).
// scheme and leakage identify the backend.
func NewStatsResponse(st edb.StorageStats, scheme string, leakage int) Response {
	return Response{OK: true, Stats: &StatsSpec{
		Records: st.Records, Bytes: st.Bytes, Updates: st.Updates,
		Scheme: scheme, Leakage: leakage,
	}}
}
