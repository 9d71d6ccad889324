package record

import (
	"encoding/binary"
	"fmt"
)

// EncodedSize is the fixed serialized width of every record, real or dummy.
// A fixed width is a hard requirement of the privacy model: if dummy records
// serialized shorter, ciphertext lengths would leak the real/dummy split and
// with it the true update counts that DP-Sync spends privacy budget to hide.
//
// Layout (big endian):
//
//	[0:8)   PickupTime (int64)
//	[8:10)  PickupID   (uint16)
//	[10]    Provider   (uint8)
//	[11]    Dummy      (0x00 real / 0x01 dummy)
//	[12:16) FareCents  (uint32)
const EncodedSize = 16

// Encode serializes r into its fixed-width wire form.
func Encode(r Record) [EncodedSize]byte {
	var buf [EncodedSize]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(r.PickupTime))
	binary.BigEndian.PutUint16(buf[8:10], r.PickupID)
	buf[10] = byte(r.Provider)
	if r.Dummy {
		buf[11] = 1
	}
	binary.BigEndian.PutUint32(buf[12:16], r.FareCents)
	return buf
}

// EncodeSlice serializes rs back to back into a single buffer.
func EncodeSlice(rs []Record) []byte {
	out := make([]byte, 0, len(rs)*EncodedSize)
	for _, r := range rs {
		b := Encode(r)
		out = append(out, b[:]...)
	}
	return out
}

// Decode parses one fixed-width record.
func Decode(buf []byte) (Record, error) {
	if len(buf) != EncodedSize {
		return Record{}, fmt.Errorf("record: decode needs %d bytes, got %d", EncodedSize, len(buf))
	}
	r := Record{
		PickupTime: Tick(binary.BigEndian.Uint64(buf[0:8])),
		PickupID:   binary.BigEndian.Uint16(buf[8:10]),
		Provider:   Provider(buf[10]),
		FareCents:  binary.BigEndian.Uint32(buf[12:16]),
	}
	switch buf[11] {
	case 0:
	case 1:
		r.Dummy = true
	default:
		return Record{}, fmt.Errorf("record: invalid dummy marker %#x", buf[11])
	}
	return r, nil
}
