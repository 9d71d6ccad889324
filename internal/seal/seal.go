// Package seal provides the record-encryption layer shared by the encrypted
// database substrates. Records are serialized to a fixed width
// (record.EncodedSize) and sealed with AES-256-GCM under per-database keys
// and random nonces.
//
// The privacy argument of DP-Sync leans on this layer in one specific way:
// a sealed dummy record must be indistinguishable from a sealed real record.
// With equal-length plaintexts and an IND-CPA-secure AEAD that holds by
// construction — every ciphertext is the same length and, without the key,
// computationally independent of its payload.
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"dpsync/internal/record"
)

// KeySize is the AES-256 key length in bytes.
const KeySize = 32

// Sealed is one encrypted record: nonce ‖ AES-GCM ciphertext (which includes
// the 16-byte GCM tag). Every Sealed value has length SealedSize.
type Sealed []byte

// SealedSize is the ciphertext width of a single sealed record.
const SealedSize = nonceSize + record.EncodedSize + tagSize

const (
	nonceSize = 12
	tagSize   = 16
)

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

// Seal encrypts one record.
func (s *Sealer) Seal(r record.Record) (Sealed, error) {
	nonce := make([]byte, nonceSize, SealedSize)
	if _, err := io.ReadFull(s.rand, nonce); err != nil {
		return nil, fmt.Errorf("seal: nonce: %w", err)
	}
	plain := record.Encode(r)
	return s.aead.Seal(nonce, nonce, plain[:], nil), nil
}

// SealAll encrypts a batch of records, preserving order.
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

// Open decrypts and authenticates one sealed record.
func (s *Sealer) Open(ct Sealed) (record.Record, error) {
	plain, err := s.AppendOpen(nil, ct)
	if err != nil {
		return record.Record{}, err
	}
	return record.Decode(plain)
}

// AppendOpen decrypts and authenticates one sealed record and appends its
// record.EncodedSize plaintext bytes to dst, returning the extended slice —
// the allocation-free form of Open for a caller that reuses a buffer. A
// rejected ciphertext appends nothing.
func (s *Sealer) AppendOpen(dst []byte, ct Sealed) ([]byte, error) {
	if len(ct) != SealedSize {
		return dst, ErrCorrupt
	}
	out, err := s.aead.Open(dst, ct[:nonceSize], ct[nonceSize:], nil)
	if err != nil {
		return dst, ErrCorrupt
	}
	return out, nil
}

// OpenAll decrypts a batch, preserving order.
func (s *Sealer) OpenAll(cts []Sealed) ([]record.Record, error) {
	out := make([]record.Record, len(cts))
	for i, ct := range cts {
		r, err := s.Open(ct)
		if err != nil {
			return nil, fmt.Errorf("seal: record %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}
