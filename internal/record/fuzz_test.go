package record

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary byte strings to the record decoder: it must
// never panic, and anything it accepts must re-encode to the same bytes
// (the codec is bijective on its valid range).
func FuzzDecode(f *testing.F) {
	seed := Encode(Record{PickupTime: 42, PickupID: 7, Provider: YellowCab, FareCents: 999})
	f.Add(seed[:])
	f.Add(make([]byte, EncodedSize))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, EncodedSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(r)
		if !bytes.Equal(re[:], data) {
			t.Fatalf("accepted %x but re-encodes to %x", data, re)
		}
	})
}
