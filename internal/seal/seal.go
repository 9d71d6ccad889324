// Package seal provides the record-encryption layer shared by the encrypted
// database substrates. Records are serialized to a fixed width
// (record.EncodedSize) and a batch of them is sealed as one AES-256-GCM
// message under a per-database key and one random nonce:
// nonce ‖ GCM(r₁ ‖ … ‖ rₙ) ‖ tag, Size(n) = 16n + 28 bytes.
//
// The privacy argument of DP-Sync leans on this layer in one specific way:
// a sealed dummy record must be indistinguishable from a sealed real record.
// With equal-length plaintexts and an IND-CPA-secure AEAD that holds by
// construction — a message's length is a function of its record count
// alone, the volume the sync strategy already releases, and without the key
// its bytes are computationally independent of the records inside, dummies
// included.
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"dpsync/internal/record"
)

// KeySize is the AES-256 key length in bytes.
const KeySize = 32

// Sealed is one message: nonce ‖ AES-GCM ciphertext of m ≥ 1 encoded
// records (which includes the 16-byte GCM tag), Size(m) bytes long.
type Sealed []byte

// SealedSize is the length of a one-record message: what Seal returns, and
// what SealAll returns per record.
const SealedSize = overhead + record.EncodedSize

const (
	nonceSize = 12
	tagSize   = 16
	overhead  = nonceSize + tagSize
)

// Size is the length of the message that seals n ≥ 1 records.
func Size(n int) int { return overhead + n*record.EncodedSize }

// Records is the number of records a message of length l seals, or 0 when
// no message is l bytes long.
func Records(l int) int {
	if l < SealedSize || (l-overhead)%record.EncodedSize != 0 {
		return 0
	}
	return (l - overhead) / record.EncodedSize
}

// Sealer encrypts and decrypts fixed-width records under one key. A Sealer is
// safe for concurrent use: the underlying AEAD is stateless and nonces come
// from crypto/rand.
type Sealer struct {
	aead cipher.AEAD
	rand io.Reader
}

// ErrBadKey is returned for keys of the wrong length.
var ErrBadKey = errors.New("seal: key must be 32 bytes")

// ErrCorrupt is returned when a ciphertext fails authentication or has the
// wrong framing.
var ErrCorrupt = errors.New("seal: ciphertext corrupt or truncated")

// NewSealer builds a Sealer from a 32-byte key.
func NewSealer(key []byte) (*Sealer, error) {
	if len(key) != KeySize {
		return nil, ErrBadKey
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	return &Sealer{aead: aead, rand: rand.Reader}, nil
}

// NewRandomKey generates a fresh AES-256 key.
func NewRandomKey() ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("seal: generating key: %w", err)
	}
	return key, nil
}

// WriteKeyFile writes key to path as one line of hex, readable by its owner
// only: the file the three parties share the data key through.
func WriteKeyFile(path string, key []byte) error {
	if err := os.WriteFile(path, []byte(hex.EncodeToString(key)+"\n"), 0o600); err != nil {
		return fmt.Errorf("writing key file: %w", err)
	}
	return nil
}

// ReadKeyFile reads the hex key WriteKeyFile wrote, surrounding whitespace
// ignored.
func ReadKeyFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading key file: %w", err)
	}
	key, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		return nil, fmt.Errorf("decoding key file: %w", err)
	}
	return key, nil
}

// SealBatch encrypts a batch of records, in order, as the messages a sync
// carries: one message of Size(len(rs)) bytes — one nonce, and one in-place
// seal into one allocation — or, for an empty batch, none, with no nonce
// drawn.
func (s *Sealer) SealBatch(rs []record.Record) ([]Sealed, error) {
	if len(rs) == 0 {
		return nil, nil
	}
	msg := make(Sealed, Size(len(rs)))
	nonce, plain := msg[:nonceSize], msg[nonceSize:len(msg)-tagSize]
	if _, err := io.ReadFull(s.rand, nonce); err != nil {
		return nil, fmt.Errorf("seal: nonce: %w", err)
	}
	for i, r := range rs {
		b := record.Encode(r)
		copy(plain[i*record.EncodedSize:], b[:])
	}
	s.aead.Seal(plain[:0], nonce, plain, nil)
	return []Sealed{msg}, nil
}

// Seal encrypts one record as a one-record message.
func (s *Sealer) Seal(r record.Record) (Sealed, error) {
	cts, err := s.SealBatch([]record.Record{r})
	if err != nil {
		return nil, err
	}
	return cts[0], nil
}

// SealAll encrypts a batch one record per message, preserving order — the
// per-record shape a server still accepts (SealBatch is the owner's).
func (s *Sealer) SealAll(rs []record.Record) ([]Sealed, error) {
	out := make([]Sealed, len(rs))
	for i, r := range rs {
		ct, err := s.Seal(r)
		if err != nil {
			return nil, err
		}
		out[i] = ct
	}
	return out, nil
}

// Open decrypts and authenticates a one-record message.
func (s *Sealer) Open(ct Sealed) (record.Record, error) {
	if len(ct) != SealedSize {
		return record.Record{}, ErrCorrupt
	}
	plain, err := s.AppendOpen(nil, ct)
	if err != nil {
		return record.Record{}, err
	}
	return record.Decode(plain)
}

// AppendOpen decrypts and authenticates one message and appends its
// plaintext — Records(len(ct)) encoded records back to back — to dst,
// returning the extended slice: the allocation-free open for a caller that
// reuses a buffer. A message of any length but Size(m), m ≥ 1, is
// ErrCorrupt, and a rejected message appends nothing.
func (s *Sealer) AppendOpen(dst []byte, ct Sealed) ([]byte, error) {
	if Records(len(ct)) == 0 {
		return dst, ErrCorrupt
	}
	out, err := s.aead.Open(dst, ct[:nonceSize], ct[nonceSize:], nil)
	if err != nil {
		return dst, ErrCorrupt
	}
	return out, nil
}

// OpenAll decrypts a batch of messages and returns every record they seal,
// in order. It fails whole, naming the first message that does not open.
func (s *Sealer) OpenAll(cts []Sealed) ([]record.Record, error) {
	n := 0
	for _, ct := range cts {
		n += Records(len(ct))
	}
	out := make([]record.Record, 0, n)
	var plain []byte
	for i, ct := range cts {
		var err error
		if plain, err = s.AppendOpen(plain[:0], ct); err != nil {
			return nil, fmt.Errorf("seal: message %d: %w", i, err)
		}
		for off := 0; off < len(plain); off += record.EncodedSize {
			r, err := record.Decode(plain[off : off+record.EncodedSize])
			if err != nil {
				return nil, fmt.Errorf("seal: message %d: %w", i, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}
