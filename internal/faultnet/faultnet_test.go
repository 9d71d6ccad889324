package faultnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// sink is a net.Conn that captures writes; reads report EOF.
type sink struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	closed bool
}

func (s *sink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("sink: closed")
	}
	return s.buf.Write(p)
}

func (s *sink) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

func (s *sink) Read([]byte) (int, error) { return 0, errors.New("sink: no reads") }
func (s *sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
func (s *sink) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (s *sink) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (s *sink) SetDeadline(time.Time) error      { return nil }
func (s *sink) SetReadDeadline(time.Time) error  { return nil }
func (s *sink) SetWriteDeadline(time.Time) error { return nil }

// frame builds a length-prefixed frame with the given payload byte repeated.
func frame(n int, b byte) []byte {
	out := make([]byte, 4+n)
	binary.BigEndian.PutUint32(out, uint32(n))
	for i := 4; i < len(out); i++ {
		out[i] = b
	}
	return out
}

var hello = []byte{'D', 'P', 'S', 'G', 2}

// TestHelloPassthroughAndDuplicate pins the two core frame-awareness
// properties: the 5-byte hello is never buffered or duplicated, and a
// duplicated frame is shipped whole twice even when the caller delivers it
// in two Writes (header, then payload) the way wire.WriteFrame does.
func TestHelloPassthroughAndDuplicate(t *testing.T) {
	in := New(Config{Seed: 1, Duplicate: 1.0})
	s := &sink{}
	c := in.Wrap(s)

	if _, err := c.Write(hello); err != nil {
		t.Fatalf("hello write: %v", err)
	}
	if got := s.Bytes(); !bytes.Equal(got, hello) {
		t.Fatalf("hello not passed through verbatim: %x", got)
	}

	f := frame(6, 0xAB)
	if _, err := c.Write(f[:4]); err != nil { // header only: no frame yet
		t.Fatalf("header write: %v", err)
	}
	if got := s.Bytes(); len(got) != len(hello) {
		t.Fatalf("partial frame leaked to transport: %d bytes", len(got))
	}
	if _, err := c.Write(f[4:]); err != nil {
		t.Fatalf("payload write: %v", err)
	}
	want := append(append([]byte(nil), hello...), append(f, f...)...)
	if got := s.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("duplicate delivery mismatch:\n got %x\nwant %x", got, want)
	}
	if n := in.Counts().Duplicates; n != 1 {
		t.Fatalf("Duplicates = %d, want 1", n)
	}
}

// TestCoalescedWriteFaultsPerFrame pins frame awareness against a buffered
// writer: one Write carrying several whole frames and the head of another —
// what a flushed wire.Conn hands the transport — is cut back into frames, the
// schedule decides each frame's fate on its own (here: every one duplicated),
// and the torn tail waits for the bytes that complete it.
func TestCoalescedWriteFaultsPerFrame(t *testing.T) {
	in := New(Config{Seed: 1, Duplicate: 1.0})
	s := &sink{}
	c := in.Wrap(s)
	a, b, d := frame(3, 0xA1), frame(0, 0), frame(5, 0xD4)
	burst := append(append(append(append([]byte(nil), hello...), a...), b...), d[:6]...)
	if n, err := c.Write(burst); err != nil || n != len(burst) {
		t.Fatalf("coalesced write = %d, %v", n, err)
	}
	want := append(append(append(append(append([]byte(nil), hello...), a...), a...), b...), b...)
	if got := s.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("after the burst:\n got %x\nwant %x", got, want)
	}
	if _, err := c.Write(d[6:]); err != nil {
		t.Fatal(err)
	}
	want = append(append(want, d...), d...)
	if got := s.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("after the torn frame completed:\n got %x\nwant %x", got, want)
	}
	if n := in.Counts().Duplicates; n != 3 {
		t.Fatalf("Duplicates = %d, want one per frame (3)", n)
	}
}

// TestTruncationSevers pins that a truncation ships a strict prefix of the
// frame and then latches the connection dead with ErrInjected.
func TestTruncationSevers(t *testing.T) {
	in := New(Config{Seed: 7, Truncate: 1.0, Budget: 1})
	s := &sink{}
	c := in.Wrap(s)
	if _, err := c.Write(hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	f := frame(32, 0xCD)
	_, err := c.Write(f)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("truncating write error = %v, want ErrInjected", err)
	}
	got := s.Bytes()[len(hello):]
	if len(got) == 0 || len(got) >= len(f) {
		t.Fatalf("truncation shipped %d bytes, want strict non-empty prefix of %d", len(got), len(f))
	}
	if !bytes.Equal(got, f[:len(got)]) {
		t.Fatalf("truncated bytes are not a prefix of the frame")
	}
	if _, err := c.Write(frame(4, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after severance = %v, want ErrInjected", err)
	}
	if n := in.Counts().Truncations; n != 1 {
		t.Fatalf("Truncations = %d, want 1", n)
	}
}

// TestBudgetExhaustionGoesTransparent pins the termination guarantee: once
// the disruptive budget is spent, later connections deliver every frame.
func TestBudgetExhaustionGoesTransparent(t *testing.T) {
	in := New(Config{Seed: 3, Reset: 1.0, Budget: 1})

	s1 := &sink{}
	c1 := in.Wrap(s1)
	if _, err := c1.Write(hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := c1.Write(frame(8, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("first conn write = %v, want ErrInjected", err)
	}

	s2 := &sink{}
	c2 := in.Wrap(s2)
	if _, err := c2.Write(hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	f := frame(8, 2)
	for i := 0; i < 5; i++ {
		if _, err := c2.Write(f); err != nil {
			t.Fatalf("post-budget write %d: %v", i, err)
		}
	}
	if got, want := len(s2.Bytes()), len(hello)+5*len(f); got != want {
		t.Fatalf("post-budget conn delivered %d bytes, want %d", got, want)
	}
	if n := in.Counts().Resets; n != 1 {
		t.Fatalf("Resets = %d, want 1", n)
	}
}

// TestScheduleDeterminism pins that the same (seed, conn id, frame sequence)
// replays the same faults: identical transport bytes and identical counts.
func TestScheduleDeterminism(t *testing.T) {
	run := func() ([]byte, Counts) {
		in := New(Config{Seed: 42, Budget: 4, Reset: 0.1, Truncate: 0.1, Duplicate: 0.3})
		s := &sink{}
		c := in.WrapID(s, 1)
		_, _ = c.Write(hello)
		for i := 0; i < 200; i++ {
			if _, err := c.Write(frame(16, byte(i))); err != nil {
				break
			}
		}
		return s.Bytes(), in.Counts()
	}
	b1, n1 := run()
	b2, n2 := run()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same seed produced different transport bytes (%d vs %d)", len(b1), len(b2))
	}
	if n1 != n2 {
		t.Fatalf("same seed produced different fault counts: %+v vs %+v", n1, n2)
	}
	if n1.Total() == 0 {
		t.Fatalf("schedule injected no faults at all: %+v", n1)
	}
}

// TestOversizedFrameGoesTransparent pins the defensive fallback for
// non-protocol traffic: a frame header claiming an absurd length flips the
// connection to passthrough instead of buffering forever.
func TestOversizedFrameGoesTransparent(t *testing.T) {
	in := New(Config{Seed: 9, Duplicate: 1.0})
	s := &sink{}
	c := in.Wrap(s)
	_, _ = c.Write(hello)
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, 1<<30) // claims a 1GiB frame
	if _, err := c.Write(huge); err != nil {
		t.Fatalf("oversized header write: %v", err)
	}
	more := []byte{1, 2, 3, 4}
	if _, err := c.Write(more); err != nil {
		t.Fatalf("post-oversize write: %v", err)
	}
	want := append(append(append([]byte(nil), hello...), huge...), more...)
	if got := s.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("transparent mode mangled bytes:\n got %x\nwant %x", got, want)
	}
	if n := in.Counts().Duplicates; n != 0 {
		t.Fatalf("transparent mode still injected %d duplicates", n)
	}
}
