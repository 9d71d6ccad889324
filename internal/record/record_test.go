package record

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestValidateRealRecords(t *testing.T) {
	tests := []struct {
		name string
		r    Record
		ok   bool
	}{
		{"valid yellow", Record{PickupTime: 10, PickupID: 50, Provider: YellowCab}, true},
		{"valid green max loc", Record{PickupTime: 0, PickupID: NumLocations, Provider: GreenTaxi}, true},
		{"zero pickup id", Record{PickupTime: 1, PickupID: 0, Provider: YellowCab}, false},
		{"overflow pickup id", Record{PickupTime: 1, PickupID: NumLocations + 1, Provider: YellowCab}, false},
		{"negative time", Record{PickupTime: -1, PickupID: 5, Provider: YellowCab}, false},
		{"bad provider", Record{PickupTime: 1, PickupID: 5, Provider: 99}, false},
		{"dummy always valid", Record{PickupID: 9999, Provider: 99, Dummy: true}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.r.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() error = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewDummy(t *testing.T) {
	d := NewDummy(YellowCab)
	if !d.Dummy {
		t.Error("NewDummy not marked dummy")
	}
	if d.Provider != YellowCab {
		t.Errorf("provider = %v, want YellowCab", d.Provider)
	}
}

func TestProviderString(t *testing.T) {
	if YellowCab.String() != "YellowCab" || GreenTaxi.String() != "GreenTaxi" {
		t.Error("unexpected provider names")
	}
	if !strings.Contains(Provider(7).String(), "7") {
		t.Error("unknown provider should include numeric value")
	}
}

func TestCountRealAndSplit(t *testing.T) {
	rs := []Record{
		{PickupTime: 1, PickupID: 2, Provider: YellowCab},
		NewDummy(YellowCab),
		{PickupTime: 3, PickupID: 4, Provider: GreenTaxi},
		NewDummy(GreenTaxi),
		NewDummy(GreenTaxi),
	}
	if got := CountReal(rs); got != 2 {
		t.Errorf("CountReal = %d, want 2", got)
	}
	if got := CountReal(rs[1:2]); got != 0 {
		t.Errorf("CountReal of one dummy = %d, want 0", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rs := []Record{
		{PickupTime: 12345, PickupID: 100, Provider: YellowCab, FareCents: 1250},
		{PickupTime: 0, PickupID: 1, Provider: GreenTaxi, FareCents: 0},
		NewDummy(YellowCab),
		{PickupTime: 1<<40 + 7, PickupID: NumLocations, Provider: GreenTaxi, FareCents: 1<<32 - 1},
	}
	for i, r := range rs {
		buf := Encode(r)
		got, err := Decode(buf[:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != r {
			t.Errorf("record %d: round trip %+v != %+v", i, got, r)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, EncodedSize-1)); err == nil {
		t.Error("short buffer accepted")
	}
	var buf [EncodedSize]byte
	buf[11] = 0xFF
	if _, err := Decode(buf[:]); err == nil {
		t.Error("invalid dummy marker accepted")
	}
}

// TestEncodeSliceDecodeSlice pins EncodeSlice as the records' Encode forms
// back to back: the slice decodes, EncodedSize bytes at a time, to rs.
func TestEncodeSliceDecodeSlice(t *testing.T) {
	rs := []Record{
		{PickupTime: 1, PickupID: 10, Provider: YellowCab},
		NewDummy(GreenTaxi),
		{PickupTime: 2, PickupID: 20, Provider: GreenTaxi, FareCents: 999},
	}
	buf := EncodeSlice(rs)
	if len(buf) != 3*EncodedSize {
		t.Fatalf("buffer length = %d, want %d", len(buf), 3*EncodedSize)
	}
	for i := range rs {
		got, err := Decode(buf[i*EncodedSize : (i+1)*EncodedSize])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != rs[i] {
			t.Errorf("record %d mismatch: %+v != %+v", i, got, rs[i])
		}
	}
}

func TestEncodedWidthIsUniform(t *testing.T) {
	// Fixed width is what keeps dummies indistinguishable after sealing;
	// pin it so the constant and the codec cannot drift apart.
	real := Encode(Record{PickupTime: 999, PickupID: 7, Provider: YellowCab, FareCents: 5})
	dummy := Encode(NewDummy(GreenTaxi))
	if len(real) != len(dummy) || len(real) != EncodedSize {
		t.Errorf("widths differ: real=%d dummy=%d const=%d", len(real), len(dummy), EncodedSize)
	}
}

// Property: every encodable record round-trips exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(tick int64, id uint16, prov uint8, fare uint32, dummy bool) bool {
		if tick < 0 {
			tick = -tick
		}
		r := Record{PickupTime: Tick(tick), PickupID: id, Provider: Provider(prov), FareCents: fare, Dummy: dummy}
		buf := Encode(r)
		got, err := Decode(buf[:])
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: CountReal(rs) real records and the rest dummies make up rs.
func TestQuickSplitConservation(t *testing.T) {
	f := func(flags []bool) bool {
		rs := make([]Record, len(flags))
		dummies := 0
		for i, d := range flags {
			rs[i] = Record{PickupTime: Tick(i), PickupID: 1, Provider: YellowCab, Dummy: d}
			if d {
				dummies++
			}
		}
		return CountReal(rs)+dummies == len(rs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
