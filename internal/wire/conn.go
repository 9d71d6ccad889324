package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// connBufSize is both the read buffer and the write buffer's flush
// threshold: a few hundred pipelined one-record syncs (66 bytes each on the
// wire) or a few dozen DP-Timer batches (an 8-record sync is 374), small
// enough that thousands of idle connections cost little.
const connBufSize = 32 << 10

// Conn is the buffered frame connection every connection loop moves frames
// through once the hello exchange (which reads and writes exact byte counts
// on the raw conn) is over.
//
// The read half fills its buffer with one socket read and yields every
// complete frame already in it without touching the socket again. The write
// half appends frames — header and payload, encoded in place — to one buffer
// that reaches the socket only on Flush or when it passes connBufSize. The
// halves share no state: one goroutine may read while another writes, but
// each half needs its caller's serialization.
//
// ReadTimeout and WriteTimeout (zero or negative = none) are armed only
// before an operation that can reach the socket: a frame served from the
// buffer re-arms nothing, and every socket write gets a fresh deadline. Set
// them before the first frame.
type Conn struct {
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte
}

// NewConn wraps nc, whose hello exchange is complete.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, connBufSize)}
}

// Close closes the underlying connection; unflushed frames are dropped.
func (c *Conn) Close() error { return c.nc.Close() }

// frameBuffered reports whether the next frame can be read without blocking.
func (c *Conn) frameBuffered() bool {
	have := c.br.Buffered()
	if have < 4 {
		return false
	}
	hdr, _ := c.br.Peek(4)
	return uint64(have) >= 4+uint64(binary.BigEndian.Uint32(hdr))
}

// ReadFrame reads one length-prefixed frame. The payload lands in buf when
// its capacity suffices and in a fresh allocation otherwise, so a caller
// whose decoder copies passes its previous payload back and a caller whose
// decoder aliases (request decode: Sealed points into the payload) passes
// nil. io.EOF passes through bare for a clean shutdown between frames.
func (c *Conn) ReadFrame(buf []byte) ([]byte, error) {
	if c.ReadTimeout > 0 && !c.frameBuffered() {
		_ = c.nc.SetReadDeadline(time.Now().Add(c.ReadTimeout))
	}
	hdr, err := c.br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	_, _ = c.br.Discard(4) // cannot fail: Peek just buffered these bytes
	if uint32(cap(buf)) >= n {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, fmt.Errorf("wire: short payload: %w", err)
	}
	return buf, nil
}

// BeginFrame opens a frame: it returns the write buffer extended by a
// reserved 4-byte header, for the caller to append the payload to and hand
// to EndFrame. Nothing is committed until EndFrame, so a caller whose
// encoder fails simply drops the returned slice.
func (c *Conn) BeginFrame() []byte {
	return append(c.wbuf, 0, 0, 0, 0)
}

// EndFrame commits the frame BeginFrame opened: b is BeginFrame's slice
// with the payload appended. It returns the frame's size on the wire.
// ErrFrameTooLarge rejects the frame without committing it and is the only
// error that is about the frame; any other is the socket's, from the flush
// a full buffer forces.
func (c *Conn) EndFrame(b []byte) (int, error) {
	hdr := len(c.wbuf)
	n := len(b) - hdr - 4
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[hdr:], uint32(n))
	c.wbuf = b
	if len(b) >= connBufSize {
		return n + 4, c.Flush()
	}
	return n + 4, nil
}

// WriteFrame appends one already encoded payload as a frame.
func (c *Conn) WriteFrame(payload []byte) error {
	_, err := c.EndFrame(append(c.BeginFrame(), payload...))
	return err
}

// Flush writes every buffered frame to the socket in one Write. After an
// error the stream is torn at an unknown byte; the buffer is dropped and the
// connection is only good for closing.
func (c *Conn) Flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	if c.WriteTimeout > 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.WriteTimeout))
	}
	_, err := c.nc.Write(c.wbuf)
	if cap(c.wbuf) > 4*connBufSize {
		c.wbuf = nil // one oversized frame must not pin its buffer for the connection's life
	} else {
		c.wbuf = c.wbuf[:0]
	}
	if err != nil {
		return fmt.Errorf("wire: write: %w", err)
	}
	return nil
}
