package oblidb

import (
	"fmt"

	"dpsync/internal/oram"
	"dpsync/internal/seal"
)

// ORAM backing for the outsourced ciphertexts. The paper evaluates ObliDB "with
// ORAM enabled": the enclave's table blocks live in a Path ORAM so that even
// the *physical* block-access sequence leaks nothing. EnableORAM switches
// this simulator to that configuration — every ingested ciphertext is also
// written through Path ORAM, and ScanThroughORAM replays a full table scan
// as ORAM reads, which tests use to verify the end-to-end physical trace is
// data-independent.
//
// The default (disabled) configuration models the same leakage profile at
// simulation speed; enabling ORAM costs O(log n) bucket touches per record
// access, exactly the paper's deployment trade-off.

// EnableORAM allocates a Path ORAM for up to capacity ciphertexts and
// mirrors all future ingests into it. Must be called before Setup.
func (db *DB) EnableORAM(capacity int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.setup {
		return fmt.Errorf("oblidb: EnableORAM must precede Setup")
	}
	if db.stats.Records > 0 {
		return fmt.Errorf("oblidb: store not empty")
	}
	o, err := oram.New(capacity)
	if err != nil {
		return err
	}
	db.oram = o
	return nil
}

// ORAMEnabled reports whether the Path ORAM layer is active.
func (db *DB) ORAMEnabled() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.oram != nil
}

// mirrorToORAM writes a batch of ciphertexts into the ORAM, id-ed by their
// position in the store (1-based). Callers hold db.mu. Sealed records are
// 44 bytes and ORAM blocks 64; each ciphertext occupies one block,
// length-prefixed so reads can strip the padding.
func (db *DB) mirrorToORAM(cts []seal.Sealed, firstIndex int) error {
	if db.oram == nil {
		return nil
	}
	for i, ct := range cts {
		if len(ct) > oram.BlockSize-1 {
			return fmt.Errorf("oblidb: ciphertext %d too large for ORAM block", firstIndex+i)
		}
		var blk [oram.BlockSize]byte
		blk[0] = byte(len(ct))
		copy(blk[1:], ct)
		if err := db.oram.Write(uint32(firstIndex+i+1), blk); err != nil {
			return fmt.Errorf("oblidb: oram write %d: %w", firstIndex+i, err)
		}
	}
	return nil
}

// ScanThroughORAM performs a full-store scan through the Path ORAM layer,
// returning the ciphertexts in store order. The physical access trace this
// produces (oram.AccessLog) is what the L-0 claim rests on when ORAM mode is
// enabled.
func (db *DB) ScanThroughORAM() ([]seal.Sealed, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.oram == nil {
		return nil, fmt.Errorf("oblidb: ORAM not enabled")
	}
	out := make([]seal.Sealed, db.stats.Records)
	for i := range out {
		blk, err := db.oram.Read(uint32(i + 1))
		if err != nil {
			return nil, fmt.Errorf("oblidb: oram read %d: %w", i, err)
		}
		n := int(blk[0])
		if n > oram.BlockSize-1 {
			return nil, fmt.Errorf("oblidb: corrupt ORAM block %d", i)
		}
		ct := make(seal.Sealed, n)
		copy(ct, blk[1:1+n])
		out[i] = ct
	}
	return out, nil
}

// ORAMAccessLog exposes the physical access transcript for tests.
func (db *DB) ORAMAccessLog() []uint32 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.oram == nil {
		return nil
	}
	return db.oram.AccessLog()
}
