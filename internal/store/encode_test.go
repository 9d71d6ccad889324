package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"dpsync/internal/binfmt"
	"dpsync/internal/dp"
	"dpsync/internal/leakage"
	"dpsync/internal/record"
)

// The two-pass encoders the single-pass ones replaced, kept verbatim as the
// reference the on-disk bytes are held to: payload built in a slice grown by
// doubling, then copied whole behind a header into a second one.

func refEncodeEntryFrame(e Entry) ([]byte, error) {
	if len(e.Owner) == 0 || len(e.Owner) > maxOwnerLen {
		return nil, fmt.Errorf("store: owner id length %d outside [1, %d]", len(e.Owner), maxOwnerLen)
	}
	payload := make([]byte, 0, 64+batchSealedSize(e.Batch))
	payload = append(payload, entryKindSync)
	payload = append(payload, byte(len(e.Owner)))
	payload = append(payload, e.Owner...)
	payload, err := appendBatch(payload, e.Batch)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxEntrySize {
		return nil, fmt.Errorf("store: entry payload %d bytes exceeds %d", len(payload), maxEntrySize)
	}
	frame := make([]byte, 0, 8+len(payload))
	frame = binfmt.AppendU32(frame, uint32(len(payload)))
	frame = binfmt.AppendU32(frame, crc32.Checksum(payload, crcTable))
	return append(frame, payload...), nil
}

func batchSealedSize(bt Batch) int {
	n := 0
	for _, ct := range bt.Sealed {
		n += 4 + len(ct)
	}
	return n
}

func refEncodeSnapshot(owners []OwnerState) ([]byte, error) {
	sorted := make([]OwnerState, len(owners))
	copy(sorted, owners)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Owner < sorted[j].Owner })
	payload := make([]byte, 0, 1024)
	payload = binfmt.AppendU32(payload, uint32(len(sorted)))
	for i := range sorted {
		st := &sorted[i]
		if len(st.Owner) == 0 || len(st.Owner) > maxOwnerLen {
			return nil, fmt.Errorf("store: owner id length %d outside [1, %d]", len(st.Owner), maxOwnerLen)
		}
		if err := validateHistoryShape(st); err != nil {
			return nil, fmt.Errorf("store: snapshot history for %q: %v", st.Owner, err)
		}
		payload = append(payload, byte(len(st.Owner)))
		payload = append(payload, st.Owner...)
		payload = binfmt.AppendU64(payload, st.Clock)
		budget := st.Budget
		if budget == nil {
			budget = dp.NewBudget()
		}
		ledger, err := budget.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("store: snapshot ledger for %q: %w", st.Owner, err)
		}
		payload = binfmt.AppendU32(payload, uint32(len(ledger)))
		payload = append(payload, ledger...)
		payload = binfmt.AppendU32(payload, uint32(len(st.Events)))
		for _, ev := range st.Events {
			payload = binfmt.AppendU64(payload, uint64(ev.Tick))
			payload = binfmt.AppendU32(payload, uint32(ev.Volume))
			var f byte
			if ev.Flush {
				f = 1
			}
			payload = append(payload, f)
		}
		payload = binfmt.AppendU32(payload, uint32(len(st.Spilled)))
		for _, ref := range st.Spilled {
			payload = binfmt.AppendU64(payload, ref.Seg)
			payload = binfmt.AppendU64(payload, ref.Off)
			payload = binfmt.AppendU32(payload, ref.Len)
			payload = binfmt.AppendU32(payload, ref.CRC)
			payload = binfmt.AppendU64(payload, ref.FirstTick)
			payload = binfmt.AppendU32(payload, ref.Count)
		}
		payload = binfmt.AppendU32(payload, uint32(len(st.Tail)))
		for _, bt := range st.Tail {
			payload, err = appendBatch(payload, bt)
			if err != nil {
				return nil, err
			}
		}
	}
	if len(payload) > maxSnapshotSize {
		return nil, fmt.Errorf("store: snapshot payload %d bytes exceeds %d", len(payload), maxSnapshotSize)
	}
	out := make([]byte, 0, 13+len(payload))
	out = append(out, snapMagic[:]...)
	out = append(out, snapVersion)
	out = binfmt.AppendU32(out, uint32(len(payload)))
	out = binfmt.AppendU32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...), nil
}

// randomBatch draws a batch at tick: 0–4 ciphertexts of 0–60 bytes, so empty
// Sealed and zero-length ciphertexts both occur.
func randomBatch(rng *rand.Rand, tick uint64) Batch {
	bt := Batch{
		Tick: tick, Setup: tick == 1, Flush: rng.Intn(8) == 0,
		Charge: Charge{Name: "m_update", Eps: float64(rng.Intn(4)) / 4, Rule: dp.Sequential},
	}
	if tick == 1 {
		bt.Charge.Name = "m_setup"
	}
	for n := rng.Intn(5); n > 0; n-- {
		ct := make([]byte, rng.Intn(61))
		rng.Read(ct)
		bt.Sealed = append(bt.Sealed, ct)
	}
	return bt
}

// randomOwnerState draws a tenant whose history shape is valid: refs chain
// from tick 1, the tail continues them, the clock closes the chain. The ledger
// is nil, empty or multi-charge; the transcript is independent of the history
// (the encoders do not relate them).
func randomOwnerState(rng *rand.Rand, owner string) OwnerState {
	st := OwnerState{Owner: owner}
	switch rng.Intn(3) {
	case 1:
		st.Budget = dp.NewBudget()
	case 2:
		st.Budget = dp.NewBudget()
		for i, n := 0, 1+rng.Intn(11); i < n; i++ {
			name := fmt.Sprintf("mech-%d", rng.Intn(12))
			rule := dp.CompositionRule(len(name) % 2)
			_ = st.Budget.Charge(name, 0.25, rule)
		}
	}
	for i, n := 0, rng.Intn(301); i < n; i++ {
		st.Events = append(st.Events, leakage.Event{
			Tick: record.Tick(rng.Intn(1 << 20)), Volume: rng.Intn(1 << 10), Flush: rng.Intn(5) == 0,
		})
	}
	tick := uint64(1)
	for i, n := 0, rng.Intn(7); i < n; i++ {
		ref := SegmentRef{
			Seg: rng.Uint64(), Off: rng.Uint64(), Len: 1 + rng.Uint32()>>1, CRC: rng.Uint32(),
			FirstTick: tick, Count: 1 + uint32(rng.Intn(50)),
		}
		st.Spilled = append(st.Spilled, ref)
		tick += uint64(ref.Count)
	}
	for i, n := 0, rng.Intn(41); i < n; i++ {
		st.Tail = append(st.Tail, randomBatch(rng, tick))
		tick++
	}
	st.Clock = tick - 1
	return st
}

func randomOwnerName(rng *rand.Rand) string {
	n := []int{1, 255, 1 + rng.Intn(30)}[rng.Intn(3)]
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func randomShardState(rng *rand.Rand) []OwnerState {
	seen := map[string]bool{}
	var owners []OwnerState
	for n := rng.Intn(41); len(owners) < n; {
		name := randomOwnerName(rng)
		if !seen[name] {
			seen[name] = true
			owners = append(owners, randomOwnerState(rng, name))
		}
	}
	return owners
}

// TestEncodersMatchReference holds the single-pass encoders to the bytes the
// two-pass ones wrote, over seeded random states, fresh and into a buffer
// that still holds the previous (differently sized) image.
func TestEncodersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED15))
	var buf []byte
	for round := 0; round < 60; round++ {
		owners := randomShardState(rng)
		want, err := refEncodeSnapshot(owners)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := encodeSnapshot(nil, owners)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = encodeSnapshot(buf, owners); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, want) || !bytes.Equal(buf, want) {
			t.Fatalf("round %d: %d owners: snapshot image differs from the reference encoder's", round, len(owners))
		}
		if _, err := decodeSnapshot(buf); err != nil {
			t.Fatalf("round %d: image does not decode: %v", round, err)
		}
		for _, st := range owners {
			for _, bt := range st.Tail {
				e := Entry{Owner: st.Owner, Batch: bt}
				want, err := refEncodeEntryFrame(e)
				if err != nil {
					t.Fatal(err)
				}
				got, err := encodeEntryFrame(e)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: owner %q tick %d: entry frame differs from the reference encoder's", round, st.Owner, bt.Tick)
				}
			}
		}
	}
	// The live path's builder writes the same bytes from a uniform-width block.
	for round := 0; round < 200; round++ {
		width, n := 1+rng.Intn(64), rng.Intn(9)
		block := make([]byte, n*width)
		rng.Read(block)
		e := Entry{Owner: randomOwnerName(rng), Batch: Batch{
			Tick: 1 + uint64(rng.Int63()), Setup: rng.Intn(2) == 0,
			Charge: Charge{Name: "m_update", Eps: rng.Float64(), Rule: dp.Sequential},
		}}
		for i := 0; i < n; i++ {
			e.Batch.Sealed = append(e.Batch.Sealed, block[i*width:(i+1)*width])
		}
		want, err := refEncodeEntryFrame(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SyncEntry(e.Owner, e.Batch.Tick, e.Batch.Setup, e.Batch.Charge, width, block)
		if err != nil || !bytes.Equal(got.Batch.frame, want) {
			t.Fatalf("round %d: SyncEntry's frame differs from the reference encoder's (err %v)", round, err)
		}
	}
	// The refusals agree too: both encoders reject what the other does.
	for _, e := range []Entry{
		{Owner: "", Batch: Batch{Tick: 1}},
		{Owner: strings.Repeat("x", 256), Batch: Batch{Tick: 1}},
		{Owner: "o", Batch: Batch{Tick: 1, Charge: Charge{Name: strings.Repeat("n", 1<<16)}}},
	} {
		_, refErr := refEncodeEntryFrame(e)
		_, err := encodeEntryFrame(e)
		if refErr == nil || err == nil {
			t.Fatalf("unencodable entry accepted: reference %v, single-pass %v", refErr, err)
		}
	}
}

// rotateAndCheck rotates shard sid to owners and checks that the snapshot
// file left on disk decodes to exactly those states — compared by re-encoding,
// since decode turns a nil ledger into an empty one.
func rotateAndCheck(s *Store, sid int, owners []OwnerState) error {
	if err := s.Rotate(sid, owners); err != nil {
		return err
	}
	img, err := os.ReadFile(snapshotPath(s.dir, sid))
	if err != nil {
		return err
	}
	got, err := decodeSnapshot(img)
	if err != nil {
		return err
	}
	g, err := refEncodeSnapshot(got)
	if err != nil {
		return err
	}
	if w, _ := refEncodeSnapshot(owners); !bytes.Equal(g, w) {
		return fmt.Errorf("shard %d: snapshot file decodes to %d owners that are not the %d rotated", sid, len(got), len(owners))
	}
	return nil
}

// TestRotateBufferReuse is the hazard check for the image buffer a shard
// keeps between rotations: consecutive rotations of different states — a
// large image, then a small one, then a large one again — each leave a file
// holding exactly their own states, and rotations running at once on two
// shards (each with its own buffer) do not touch each other's. Run under
// -race in CI.
func TestRotateBufferReuse(t *testing.T) {
	s, _ := openStore(t, t.TempDir(), 2)
	defer s.Close()
	rng := rand.New(rand.NewSource(0xB0FFE2))
	big, small := randomShardState(rng), []OwnerState{randomOwnerState(rng, "only")}
	for len(big) < 10 {
		big = randomShardState(rng)
	}
	for i, owners := range [][]OwnerState{big, small, big, nil, small} {
		if err := rotateAndCheck(s, 0, owners); err != nil {
			t.Fatalf("rotation %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for sid := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(sid)))
			for i := 0; i < 20 && errs[sid] == nil; i++ {
				errs[sid] = rotateAndCheck(s, sid, randomShardState(rng))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEncoderAllocations pins what the single-pass encoders allocate: one
// exactly-sized frame per entry; and for a snapshot into a warmed buffer, the
// sorted owner index and nothing else — the same count for 16-batch tails and
// 80-batch ones, for 45-byte ciphertexts and 1 KiB ones.
func TestEncoderAllocations(t *testing.T) {
	e := Entry{Owner: "owner-0001", Batch: syncDurableShard()[1].Tail[0]}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := encodeEntryFrame(e); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("encodeEntryFrame allocates %v times, want 1", n)
	}
	frame, _ := encodeEntryFrame(e)
	if len(frame) != cap(frame) {
		t.Fatalf("entry frame is %d bytes in a %d-byte allocation, want exact", len(frame), cap(frame))
	}

	snapshotAllocs := func(owners []OwnerState) float64 {
		buf, err := encodeSnapshot(nil, owners)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := encodeSnapshot(buf, owners); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := benchShard(20, func(int) int { return 16 }, 60, true)
	long := benchShard(20, func(int) int { return 80 }, 60, true)
	fat := benchShard(20, func(int) int { return 80 }, 60, true)
	for i := range fat {
		for j := range fat[i].Tail {
			for k := range fat[i].Tail[j].Sealed {
				fat[i].Tail[j].Sealed[k] = make([]byte, 1024)
			}
		}
	}
	a, b, c := snapshotAllocs(short), snapshotAllocs(long), snapshotAllocs(fat)
	if a != b || b != c || a > 2 {
		t.Fatalf("warmed-buffer snapshot encode allocates %v / %v / %v times for 16-batch, 80-batch and 1 KiB-ciphertext tails; want one small constant", a, b, c)
	}
}

// TestSnapshotEncodeLeavesCallerStatesAlone: the encoder sorts an index, not
// the caller's slice.
func TestSnapshotEncodeLeavesCallerStatesAlone(t *testing.T) {
	owners := []OwnerState{{Owner: "b"}, {Owner: "a"}, {Owner: "c"}}
	if _, err := encodeSnapshot(nil, owners); err != nil {
		t.Fatal(err)
	}
	if owners[0].Owner != "b" || owners[1].Owner != "a" || owners[2].Owner != "c" {
		t.Fatalf("encodeSnapshot reordered the caller's states: %q %q %q", owners[0].Owner, owners[1].Owner, owners[2].Owner)
	}
}
