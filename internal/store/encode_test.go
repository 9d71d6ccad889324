package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dpsync/internal/binfmt"
	"dpsync/internal/dp"
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

// encodeSnapshot is a snapshot image in memory, from the writer Rotate and
// compaction stream their files with.
func encodeSnapshot(owners []OwnerState) ([]byte, error) {
	var iw imageWriter
	return iw.encode(owners)
}

func (iw *imageWriter) encode(owners []OwnerState) ([]byte, error) {
	var payload bytes.Buffer
	n, crc, err := iw.stream(&payload, owners)
	if err != nil {
		return nil, err
	}
	return append(appendSnapHeader(nil, n, crc), payload.Bytes()...), nil
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
			var err error
			if payload, err = appendBatch(payload, bt); err != nil {
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
// Sealed and zero-length ciphertexts both occur, and one of four charges, each
// name with its own ε, so a tail's charges fold into a ledger.
func randomBatch(rng *rand.Rand, tick uint64) Batch {
	k := rng.Intn(4)
	bt := Batch{
		Tick: tick, Setup: tick == 1,
		Charge: Charge{Name: fmt.Sprintf("m_update-%d", k), Eps: float64(k) / 4, Rule: dp.Sequential},
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
// from tick 1, the tail continues them, the clock closes the chain.
func randomOwnerState(rng *rand.Rand, owner string) OwnerState {
	st := OwnerState{Owner: owner}
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

// carryFrames gives every batch of owners' tails that rng picks the frame a
// live sync's batch carries, as a WAL scan decodes it.
func carryFrames(tb testing.TB, rng *rand.Rand, owners []OwnerState) {
	tb.Helper()
	for i := range owners {
		for j, bt := range owners[i].Tail {
			if rng != nil && rng.Intn(2) == 0 {
				continue
			}
			frame, err := encodeEntryFrame(Entry{Owner: owners[i].Owner, Batch: bt})
			if err != nil {
				tb.Fatal(err)
			}
			e, err := DecodeEntryFrame(frame)
			if err != nil {
				tb.Fatal(err)
			}
			owners[i].Tail[j] = e.Batch
		}
	}
}

// TestEncodersMatchReference holds the single-pass encoders to the bytes the
// two-pass ones wrote, over seeded random states whose tails mix batches that
// carry their frames (streamed from them) with hand-built ones (encoded) — by
// a fresh image writer, and by one that has streamed every earlier round. The
// image decodes to tails whose charges fold to the ledger the states' own do.
func TestEncodersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED15))
	var reused imageWriter
	for round := 0; round < 60; round++ {
		owners := randomShardState(rng)
		carryFrames(t, rng, owners)
		want, err := refEncodeSnapshot(owners)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := encodeSnapshot(owners)
		if err != nil {
			t.Fatal(err)
		}
		again, err := reused.encode(owners)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, want) || !bytes.Equal(again, want) {
			t.Fatalf("round %d: %d owners: snapshot image differs from the reference encoder's", round, len(owners))
		}
		back, err := decodeSnapshot(again)
		if err != nil {
			t.Fatalf("round %d: image does not decode: %v", round, err)
		}
		if err := sameLedgers(t, back, owners); err != nil {
			t.Fatalf("round %d: %v", round, err)
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

// sameLedgers checks that every decoded owner's tail folds to the ledger the
// same owner's tail in want does: the image keeps every charge the history
// logged, so the ledger derived from it is the one the owner spent.
func sameLedgers(tb testing.TB, got, want []OwnerState) error {
	wantLedger := map[string]*dp.Budget{}
	for i := range want {
		wantLedger[want[i].Owner] = ledgerOf(tb, want[i].Tail)
	}
	for i := range got {
		if l := ledgerOf(tb, got[i].Tail); !l.Equal(wantLedger[got[i].Owner]) {
			return fmt.Errorf("owner %q: image's ledger %q, want %q", got[i].Owner, l.Describe(), wantLedger[got[i].Owner].Describe())
		}
	}
	return nil
}

// imageOnDisk checks that shard sid's snapshot file decodes to exactly owners
// — compared by re-encoding, since a decoded tail batch carries no frame —
// and that their tails fold to the same ledgers.
func imageOnDisk(tb testing.TB, s *Store, sid int, owners []OwnerState) error {
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
	return sameLedgers(tb, got, owners)
}

// TestRotateHeapFlat is the heap guard on rotation: the image is streamed to
// its file, never held in memory, so what one Rotate allocates is the same
// small constant for 16-batch tails and 80-batch ones, for 45-byte
// ciphertexts and 1 KiB ones, for batches that carry their frames and batches
// that do not. The shapes rotate in order of growing image on one shard, each
// measured on its first rotation, so a buffer that held an image would have
// to grow and show; each leaves a file holding exactly its own states.
func TestRotateHeapFlat(t *testing.T) {
	fat := benchShard(20, func(int) int { return 80 }, true)
	for i := range fat {
		for j := range fat[i].Tail {
			for k := range fat[i].Tail[j].Sealed {
				fat[i].Tail[j].Sealed[k] = make([]byte, 1024)
			}
		}
	}
	carried := benchShard(20, func(int) int { return 80 }, true)
	carryFrames(t, nil, carried)
	shapes := []struct {
		name   string
		owners []OwnerState
	}{
		{"16-batch", benchShard(20, func(int) int { return 16 }, true)},
		{"80-batch", benchShard(20, func(int) int { return 80 }, true)},
		{"carried-frames", carried},
		{"1KiB-ciphertexts", fat},
	}
	// A shape's cost is its cheapest of several fresh stores, each measured
	// right after a collection: the runtime allocates a little on its own now
	// and then (more often mid-cycle), and that only ever adds.
	allocated := make([]uint64, len(shapes))
	for i := range allocated {
		allocated[i] = math.MaxUint64
	}
	var ms runtime.MemStats
	for trial := 0; trial < 4; trial++ {
		s, _ := openStore(t, t.TempDir(), 1)
		// The writer's first image sizes what it keeps: a 64 KiB buffer and
		// the per-owner scratch, for the same 20 owners.
		if err := s.Rotate(0, benchShard(20, func(int) int { return 1 }, true)); err != nil {
			t.Fatal(err)
		}
		for i, shape := range shapes {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if err := s.Rotate(0, shape.owners); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			allocated[i] = min(allocated[i], ms.TotalAlloc-before)
			if err := imageOnDisk(t, s, 0, shape.owners); err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
		}
		s.Close()
	}
	const budget = 4 << 10
	for i, shape := range shapes {
		t.Logf("%s: Rotate allocates %d B", shape.name, allocated[i])
		if allocated[i] != allocated[0] || allocated[i] > budget {
			t.Fatalf("Rotate allocates %v B for the %s shapes; want one constant under %d B, the image never in memory", allocated, shape.name, budget)
		}
	}
}

// TestEncoderAllocations pins what the entry encoder allocates: one
// exactly-sized frame per entry.
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
}

// TestSnapshotEncodeLeavesCallerStatesAlone: the encoder sorts an index, not
// the caller's slice.
func TestSnapshotEncodeLeavesCallerStatesAlone(t *testing.T) {
	owners := []OwnerState{{Owner: "b"}, {Owner: "a"}, {Owner: "c"}}
	if _, err := encodeSnapshot(owners); err != nil {
		t.Fatal(err)
	}
	if owners[0].Owner != "b" || owners[1].Owner != "a" || owners[2].Owner != "c" {
		t.Fatalf("encodeSnapshot reordered the caller's states: %q %q %q", owners[0].Owner, owners[1].Owner, owners[2].Owner)
	}
}

// TestMinOwnerSizeIsExact pins the decoder's owner-count guard to the layout:
// the smallest owner the encoder writes — a one-byte id, clock zero, no
// history — takes exactly minOwnerSize bytes and decodes, so the guard refuses
// no image the encoder can write and nothing looser.
func TestMinOwnerSizeIsExact(t *testing.T) {
	owners := []OwnerState{{Owner: "a"}, {Owner: "b"}, {Owner: "c"}}
	img, err := encodeSnapshot(owners)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(img)-snapHeaderSize, 4+len(owners)*minOwnerSize; got != want {
		t.Fatalf("payload of %d minimal owners is %d bytes, want %d", len(owners), got, want)
	}
	if back, err := decodeSnapshot(img); err != nil || len(back) != len(owners) {
		t.Fatalf("minimal owners decode to %d states: %v", len(back), err)
	}
}
