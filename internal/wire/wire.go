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
// answer's values integers of the least width its public bound needs (Width)
// — so a one-record sync is 55 bytes on the wire by handle (66 inline) and
// its ack 6, and each message has exactly one byte string (TestFrameSizes
// pins the sizes, the fuzz targets the bijection). What a frame's length
// reveals is what the protocol already reveals: how many records a sync
// carries (an owner seals them as one message, seal.Size(n) bytes), never
// how many are dummies, and which query was asked of how large a store,
// never what the data answered.
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
	"math"
	"math/bits"

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

// AnswerSpec is the wire form of query.Answer: one scalar, or — when Groups
// is non-empty — one group vector, beside which the scalar is zero and not
// sent. Width says how every value of it travels; for WidthIndex, Slots is
// the number of indices the vector travels as (0 for every other width).
type AnswerSpec struct {
	Scalar float64
	Groups []float64
	Width  Width
	Slots  int
}

// Width is how an answer's values travel: as big-endian unsigned integers of
// 1, 2, 4 or 8 bytes, or — the zero Width, WidthFloat — as the 8 bytes of an
// IEEE-754 double, which carry any value bit-exact. One width covers a whole
// answer, never one value, and an integer width holds exactly the counts from
// 0 to its largest (maxCount); the encoder refuses a value it does not hold,
// and the decoder an 8-byte integer above it.
type Width byte

// WidthFloat is the zero Width: 8 float bytes a value.
const WidthFloat Width = 0

// WidthIndex is a group vector's other layout, for exact counts that sum to
// at most Slots: not one value a group but one 2-byte index a counted
// record — Slots of them, the groups of the counted records in non-decreasing
// order, then the vector's length, the pad, for the rest. A group vector
// travels this way when a store of V records bounds its counts' sum by V
// (GroupCount: a record falls in at most one group) and V indices take fewer
// bytes than the vector at its bound's width. Its code is no width's: the
// high bit says "indices", the low bits their 2 bytes.
const WidthIndex Width = 0x82

// maxIndexed bounds the length of a vector that travels as indices: its pad,
// the length, is a 2-byte index too. It also bounds what an index layout can
// make the decoder allocate, whatever the frame claims.
const maxIndexed = 1<<16 - 1

// maxCount returns the largest count w holds: 2^(8w) − 1 for 1, 2 and 4
// bytes, and 2⁵³ for 8 — past it a float64, an answer's value in memory,
// skips integers, so a larger one would not decode to the count that was
// sent. It is 0 for the float width and for an unknown one.
func (w Width) maxCount() uint64 {
	switch w {
	case 1, 2, 4:
		return 1<<(8*w) - 1
	case 8:
		return 1 << 53
	}
	return 0
}

// size returns the bytes one value takes at w, 0 for an unknown width.
func (w Width) size() int {
	switch w {
	case WidthFloat:
		return 8
	case 1, 2, 4, 8:
		return int(w)
	}
	return 0
}

// fits reports whether v is a count of at most limit. The comparison is on
// bits, so −0, NaN, ±Inf, fractions and anything out of range say no (an
// out-of-range conversion yields some int64, which is negative, past limit —
// at most 2⁵³ — or converts back to a float64 other than v).
func fits(v float64, limit uint64) bool {
	i := int64(v)
	return i >= 0 && uint64(i) <= limit && math.Float64bits(float64(i)) == math.Float64bits(v)
}

// holds reports whether w holds every value of vs: the float width any
// value, an integer width the counts up to its largest.
func (w Width) holds(vs []float64) bool {
	if w == WidthFloat {
		return true
	}
	limit := w.maxCount()
	for _, v := range vs {
		if !fits(v, limit) {
			return false
		}
	}
	return true
}

// boundWidth returns the least integer width that holds what a store of
// records records, real and dummy, bounds every exact value of an answer to
// a query of kind k by — a count of its records (RangeCount, each GroupCount
// group), of pairs of them (JoinCount), or a sum of at most 2³² − 1 a record
// (SumFare: FareCents is a uint32) — and WidthFloat when none does: for a
// bound past 2⁵³, a product past 64 bits, or an unknown kind.
func boundWidth(k query.Kind, records int) Width {
	v := uint64(max(records, 0))
	bound, hi := v, uint64(0)
	switch k {
	case query.RangeCount, query.GroupCount:
	case query.JoinCount:
		hi, bound = bits.Mul64(v, v)
	case query.SumFare:
		hi, bound = bits.Mul64(v, math.MaxUint32)
	default:
		return WidthFloat
	}
	for _, w := range []Width{1, 2, 4, 8} {
		if hi == 0 && bound <= w.maxCount() {
			return w
		}
	}
	return WidthFloat
}

// indexCheaper reports whether v indices — 2 bytes each, after their
// count's varint — take fewer bytes than n values at width w, for a vector
// of n groups the index layout can carry.
func indexCheaper(n, v int, w Width) bool {
	dense, k := uint64(n*w.size()), uint64(max(v, 0))
	return n <= maxIndexed && k < dense && 2*k+uint64(bits.Len64(k|1)+6)/7 < dense
}

// countsWithin reports whether counts are exact counts that sum to at most
// v.
func countsWithin(counts []float64, v int) bool {
	left := uint64(max(v, 0))
	for _, c := range counts {
		if math.Float64bits(c) == 0 {
			continue // +0, most groups of a small store's answer
		}
		if !fits(c, left) {
			return false
		}
		left -= uint64(int64(c))
	}
	return true
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

// NewBoundedQueryResponse builds the success response for a query of kind k
// answered from a store of records records (edb.StorageStats.Records — a
// number the server already holds). Every value travels at the least width
// that holds the bound the store's size puts on every exact answer of that
// kind; a GroupCount vector, whose exact counts sum to at most records,
// travels as records indices (WidthIndex) instead when they are fewer bytes.
// So an exact backend's response is a function of (k, records) alone, never
// of the data; an answer with a value that is not an exact count within the
// bound — a noisy backend's — travels as floats.
func NewBoundedQueryResponse(ans query.Answer, cost edb.Cost, k query.Kind, records int) Response {
	w := boundWidth(k, records)
	if k == query.GroupCount && indexCheaper(len(ans.Groups), records, w) && countsWithin(ans.Groups, records) {
		return answerResponse(&AnswerSpec{Groups: ans.Groups, Width: WidthIndex, Slots: records}, cost)
	}
	return queryResponse(ans, cost, w)
}

// NewQueryResponse builds the success response for an answer with no bound
// applied, at codec 5's widths: groups as 4-byte counts when every one is a
// count below 2³², a scalar and any other groups as floats.
func NewQueryResponse(ans query.Answer, cost edb.Cost) Response {
	w := WidthFloat
	if len(ans.Groups) > 0 {
		w = 4
	}
	return queryResponse(ans, cost, w)
}

// queryResponse builds a query's success response with its values at width
// w, or as floats when w does not hold one of them. An answer with groups is
// its groups: they are what query.Answer.Total reads, and the wire carries
// no scalar beside them.
func queryResponse(ans query.Answer, cost edb.Cost, w Width) Response {
	a := &AnswerSpec{Scalar: ans.Scalar, Groups: ans.Groups}
	values := a.Groups
	if len(values) > 0 {
		a.Scalar = 0
	} else {
		values = []float64{a.Scalar}
	}
	if !w.holds(values) {
		w = WidthFloat
	}
	a.Width = w
	return answerResponse(a, cost)
}

// answerResponse builds a query's success response around its answer.
func answerResponse(a *AnswerSpec, cost edb.Cost) Response {
	return Response{
		OK:     true,
		Answer: a,
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
