package wire

import (
	"errors"
	"fmt"

	"dpsync/internal/edb"
)

// RefusalCode names the precondition a node refused a request on: one code
// per reason the gateway itself decides, plus CodeFailed for what a backend
// or ledger returned (doc.go, "Serving", says who decides each). 0 is unused:
// an all-zero refusal section names no code. 2 was codec 8's stale refusal,
// a replica behind a query's freshness bound; it is retired, a hole both
// codec halves refuse, never reused.
type RefusalCode uint8

const (
	CodeBackpressure RefusalCode = iota + 1 // the connection exceeded its in-flight cap; nothing was touched
	_                                       // 2: retired
	CodeNotPrimary                          // a write on a read-only connection (at the hello: HelloRefused)
	CodeNotSetup                            // an update or query for a namespace that never ran setup
	CodeSeqGap                              // a sync whose Seq skips ahead; Cursor = the seq expected
	CodeSuspended                           // the owner is frozen at its committed prefix until a restart; the cause is in the server's log
	CodeClosing                             // the shard workers are gone
	CodeBadRequest                          // a malformed frame or a request the protocol has no place for; Detail says what
	CodeFailed                              // a backend or ledger returned an error; Detail is its text

	// MaxRefusalCode is the largest code: a per-code array has
	// MaxRefusalCode+1 slots.
	MaxRefusalCode = CodeFailed
)

// The sentinels a *Refusal unwraps to, one per code, so callers branch with
// errors.Is and never on text. CodeNotPrimary's is ErrNotPrimary (repl.go,
// beside its hello form); CodeNotSetup's is edb.ErrNotSetup, what an
// in-process edb.Database returns for the same condition.
var (
	ErrBackpressure = errors.New("wire: backpressure: in-flight cap exceeded")
	ErrSeqGap       = errors.New("wire: sync sequence gap")
	ErrSuspended    = errors.New("wire: owner suspended, a sync's durability is unknown; restart the node to recover")
	ErrClosing      = errors.New("wire: node is shutting down")
	ErrBadRequest   = errors.New("wire: bad request")
	ErrFailed       = errors.New("wire: request failed")
)

// refusalKind is a row of the per-code table: the label the code is counted
// under, its sentinel, what its Cursor means ("" for a code that carries
// none) and whether it carries Detail — the only thing that makes a
// refusal's length vary.
type refusalKind struct {
	name   string
	err    error
	cursor string
	detail bool
}

var refusalKinds = [MaxRefusalCode + 1]refusalKind{
	CodeBackpressure: {name: "backpressure", err: ErrBackpressure},
	CodeNotPrimary:   {name: "not-primary", err: ErrNotPrimary},
	CodeNotSetup:     {name: "not-setup", err: edb.ErrNotSetup},
	CodeSeqGap:       {name: "seq-gap", err: ErrSeqGap, cursor: "expected seq"},
	CodeSuspended:    {name: "suspended", err: ErrSuspended},
	CodeClosing:      {name: "closing", err: ErrClosing},
	CodeBadRequest:   {name: "bad-request", err: ErrBadRequest, detail: true},
	CodeFailed:       {name: "failed", err: ErrFailed, detail: true},
}

// kind is c's row of the table; a code outside it, or in its hole, is a
// malformed frame's.
func (c RefusalCode) kind() refusalKind {
	if c < 1 || c > MaxRefusalCode || refusalKinds[c].err == nil {
		return refusalKind{name: fmt.Sprintf("RefusalCode(%d)", uint8(c)), err: ErrBadFrame}
	}
	return refusalKinds[c]
}

// Known reports whether c is one of the codes a refusal may carry.
func (c RefusalCode) Known() bool { return c.kind().err != ErrBadFrame }

// String is the code's label, as in gateway_refusals_total{code="…"}.
func (c RefusalCode) String() string { return c.kind().name }

// Refusal is the one way a node says no: which precondition failed, the
// cursor that goes with it (CodeSeqGap's) and, for CodeBadRequest
// and CodeFailed only, a text. It is the error the client returns, wrapped:
// Unwrap is the code's sentinel, so errors.Is and errors.As work end to end.
// Neither codec half lets one travel that check refuses.
type Refusal struct {
	Code   RefusalCode
	Cursor uint64
	Detail string
}

// Refuse builds the refusal response — the one constructor every refused
// request goes through.
func Refuse(code RefusalCode, cursor uint64, detail string) Response {
	return Response{Refusal: &Refusal{Code: code, Cursor: cursor, Detail: detail}}
}

// check reports why r cannot travel: an unknown code, or a cursor or text on
// a code that carries none.
func (r *Refusal) check() error {
	switch k := r.Code.kind(); {
	case k.err == ErrBadFrame:
		return fmt.Errorf("unknown refusal code %d", uint8(r.Code))
	case r.Cursor != 0 && k.cursor == "":
		return fmt.Errorf("%s refusal with a cursor", k.name)
	case r.Detail != "" && !k.detail:
		return fmt.Errorf("%s refusal with a text", k.name)
	}
	return nil
}

// Error is the sentinel's text, then the cursor or the detail.
func (r *Refusal) Error() string {
	k := r.Code.kind()
	switch {
	case k.cursor != "":
		return fmt.Sprintf("%v (%s %d)", k.err, k.cursor, r.Cursor)
	case r.Detail != "":
		return fmt.Sprintf("%v: %s", k.err, r.Detail)
	}
	return k.err.Error()
}

// Unwrap returns the code's sentinel.
func (r *Refusal) Unwrap() error { return r.Code.kind().err }
