package store

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"dpsync/internal/dp"
)

// fuzzSeedSegment builds a valid two-entry segment image for seeding.
func fuzzSeedSegment(t interface{ Fatal(...any) }) []byte {
	seg := segmentHeader()
	for tick := uint64(1); tick <= 2; tick++ {
		frame, err := encodeEntryFrame(Entry{Owner: "owner-a", Batch: Batch{
			Tick:   tick,
			Setup:  tick == 1,
			Sealed: [][]byte{[]byte("ciphertext")},
			Charge: Charge{Name: "m_update", Eps: 0.5, Rule: dp.Sequential},
		}})
		if err != nil {
			t.Fatal(err)
		}
		seg = append(seg, frame...)
	}
	return seg
}

// FuzzDecodeSegment throws arbitrary bytes at the WAL segment decoder: it
// must never panic or over-allocate, always return the longest valid prefix
// of entries, and classify every failure as a typed error (torn tail or
// corruption) — mirroring internal/wire/fuzz_test.go for the on-disk codec.
func FuzzDecodeSegment(f *testing.F) {
	valid := fuzzSeedSegment(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])             // torn tail
	f.Add(segmentHeader())                  // empty log
	f.Add([]byte{})                         // zero-byte file
	f.Add([]byte("DPSW"))                   // header cut short
	f.Add([]byte("JUNKJUNKJUNK"))           // wrong magic
	f.Add(append(segmentHeader(), 0, 0, 0)) // partial frame header
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)-2] ^= 0xFF
	f.Add(corrupted)
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeSegment(data)
		if err != nil && !errors.Is(err, ErrTornTail) && !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("untyped error: %v", err)
		}
		// Whatever was accepted must be well-formed enough to re-encode,
		// and re-encoding must reproduce the consumed prefix bit for bit.
		reenc := segmentHeader()
		for _, e := range entries {
			frame, ferr := encodeEntryFrame(e)
			if ferr != nil {
				t.Fatalf("accepted entry cannot be re-encoded: %v", ferr)
			}
			reenc = append(reenc, frame...)
		}
		if len(entries) > 0 && !bytes.Equal(reenc, data[:len(reenc)]) {
			t.Fatal("decoded prefix does not round-trip")
		}
		// And the prefix property: a valid segment truncated anywhere must
		// yield a prefix of the full decode, never different entries.
		if err == nil && len(entries) > 0 {
			again, aerr := decodeSegment(reenc)
			if aerr != nil || len(again) != len(entries) {
				t.Fatalf("re-decode of accepted segment: %d entries, %v", len(again), aerr)
			}
		}
	})
}

// FuzzDecodeEntry exercises the per-entry payload decoder directly.
func FuzzDecodeEntry(f *testing.F) {
	frame, err := encodeEntryFrame(Entry{Owner: "o", Batch: Batch{
		Tick: 1, Setup: true, Sealed: [][]byte{{1, 2, 3}},
		Charge: Charge{Name: "m_setup", Eps: 0.25, Rule: dp.Sequential},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame[8:]) // the payload inside the frame
	f.Add([]byte{})
	f.Add([]byte{entryKindSync})
	f.Add([]byte{entryKindSync, 1, 'o'})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEntry(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		reenc, err := encodeEntryFrame(e)
		if err != nil {
			t.Fatalf("accepted entry cannot be re-encoded: %v", err)
		}
		if !bytes.Equal(reenc[8:], data) {
			t.Fatal("entry round trip changed bytes")
		}
	})
}

// FuzzDecodeHistorySegment throws arbitrary bytes at the history-segment
// scanner (the salvage/inspection path for the spill tier): same
// longest-valid-prefix, typed-error, round-trip contract as the WAL
// decoder, under the history header.
func FuzzDecodeHistorySegment(f *testing.F) {
	seg := historyHeader()
	for tick := uint64(1); tick <= 3; tick++ {
		frame, err := encodeEntryFrame(Entry{Owner: "owner-h", Batch: Batch{
			Tick:   tick,
			Setup:  tick == 1,
			Sealed: [][]byte{[]byte("spilled-ct")},
			Charge: Charge{Name: "m_update", Eps: 0.5, Rule: dp.Sequential},
		}})
		if err != nil {
			f.Fatal(err)
		}
		seg = append(seg, frame...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-5])   // torn tail
	f.Add(historyHeader())    // empty segment
	f.Add([]byte{})           // zero-byte file (crash between create and header)
	f.Add([]byte("DPSH"))     // header cut short
	f.Add([]byte("DPSWJUNK")) // WAL magic on a history path
	f.Add(fuzzSeedSegment(f)) // whole WAL image (wrong magic)
	corrupted := append([]byte(nil), seg...)
	corrupted[len(corrupted)-3] ^= 0x40
	f.Add(corrupted)
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeHistorySegment(data)
		if err != nil && !errors.Is(err, ErrTornTail) && !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("untyped error: %v", err)
		}
		reenc := historyHeader()
		for _, e := range entries {
			frame, ferr := encodeEntryFrame(e)
			if ferr != nil {
				t.Fatalf("accepted entry cannot be re-encoded: %v", ferr)
			}
			reenc = append(reenc, frame...)
		}
		if len(entries) > 0 && !bytes.Equal(reenc, data[:len(reenc)]) {
			t.Fatal("decoded prefix does not round-trip")
		}
	})
}

// FuzzStreamHistoryRun exercises the manifest-driven run decoder recovery
// streams spilled history through: arbitrary bytes against an arbitrary
// SegmentRef must never panic, never over-allocate past the claimed run,
// and fail with a typed corruption error on any mismatch — bytes vs frame
// CRCs, run CRC, owner, tick chain, or count.
func FuzzStreamHistoryRun(f *testing.F) {
	// A genuine run: two frames for one owner, contiguous ticks.
	var run []byte
	for tick := uint64(4); tick <= 5; tick++ {
		frame, err := encodeEntryFrame(Entry{Owner: "o", Batch: Batch{
			Tick:   tick,
			Sealed: [][]byte{[]byte("x")},
			Charge: Charge{Name: "m_update", Eps: 0.25, Rule: dp.Sequential},
		}})
		if err != nil {
			f.Fatal(err)
		}
		run = append(run, frame...)
	}
	f.Add(run, uint32(2), crc32.Checksum(run, crcTable), uint64(4))
	f.Add(run, uint32(2), uint32(0), uint64(4))                     // run CRC mismatch
	f.Add(run, uint32(3), crc32.Checksum(run, crcTable), uint64(4)) // count beyond bytes
	f.Add(run[:len(run)-1], uint32(2), uint32(1), uint64(4))        // torn run
	f.Add([]byte{}, uint32(0), uint32(0), uint64(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 32), uint32(1), uint32(9), uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, count, crc uint32, firstTick uint64) {
		if count > uint32(len(data)) {
			count %= uint32(len(data) + 1) // keep iteration bounded by input size
		}
		ref := SegmentRef{Seg: 1, Off: 0, Len: uint32(len(data)), CRC: crc, FirstTick: firstTick, Count: count}
		var got []Batch
		err := streamRun(bytes.NewReader(data), "o", ref, func(bt Batch) error {
			got = append(got, bt)
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// An accepted run delivered exactly Count contiguous batches from
		// FirstTick.
		if uint32(len(got)) != count {
			t.Fatalf("accepted run delivered %d batches, ref says %d", len(got), count)
		}
		for i, bt := range got {
			if bt.Tick != firstTick+uint64(i) {
				t.Fatalf("batch %d at tick %d, want %d", i, bt.Tick, firstTick+uint64(i))
			}
		}
	})
}

// FuzzDecodeSnapshot exercises the snapshot manifest decoder:
// all-or-nothing acceptance, typed rejection, structural history-shape
// validation, no panics.
func FuzzDecodeSnapshot(f *testing.F) {
	st := OwnerState{Owner: "owner-a", Budget: dp.NewBudget()}
	for tick := uint64(1); tick <= 2; tick++ {
		if err := st.Apply(Batch{Tick: tick, Setup: tick == 1, Sealed: [][]byte{[]byte("x")},
			Charge: Charge{Name: "m_update", Eps: 0.5, Rule: dp.Sequential}}); err != nil {
			f.Fatal(err)
		}
	}
	img, err := encodeSnapshot([]OwnerState{st})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)-1])
	f.Add([]byte{})
	f.Add([]byte("DPSS"))
	corrupted := append([]byte(nil), img...)
	corrupted[len(corrupted)/2] ^= 0x01
	f.Add(corrupted)
	// A tiered manifest: two ticks behind a segment ref, two inline.
	tiered := OwnerState{Owner: "owner-b", Budget: dp.NewBudget(),
		Clock:   2,
		Spilled: []SegmentRef{{Seg: 3, Off: 5, Len: 96, CRC: 0xDEADBEEF, FirstTick: 1, Count: 2}},
	}
	for tick := uint64(3); tick <= 4; tick++ {
		if err := tiered.Apply(Batch{Tick: tick, Sealed: [][]byte{[]byte("y")},
			Charge: Charge{Name: "m_update", Eps: 0.5, Rule: dp.Sequential}}); err != nil {
			f.Fatal(err)
		}
	}
	tieredImg, err := encodeSnapshot([]OwnerState{st, tiered})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tieredImg)
	tieredBad := append([]byte(nil), tieredImg...)
	tieredBad[len(tieredBad)-2] ^= 0x10
	f.Add(tieredBad)
	// A retired version byte over an intact payload: refused.
	for _, v := range []byte{1, 2, 3} {
		retired := append([]byte(nil), img...)
		retired[4] = v
		f.Add(retired)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		owners, err := decodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// One format: every accepted input round-trips bit for bit.
		reenc, err := encodeSnapshot(owners)
		if err != nil {
			t.Fatalf("accepted snapshot cannot be re-encoded: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatal("snapshot round trip changed bytes")
		}
	})
}
