package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"dpsync/internal/edb"
)

func sampleRequests() []GatewayRequest {
	return []GatewayRequest{
		{ID: 1, Owner: "owner-a", Req: Request{Type: MsgSetup, Sealed: [][]byte{{1, 2, 3}, {4, 5, 6}, {0xFF, 0, 0xFF}}}},
		{ID: 2, Owner: "o", Req: Request{Type: MsgUpdate, Sealed: [][]byte{{9, 9, 9, 9}}}},
		{ID: 1 << 60, Owner: "owner-b", Req: Request{Type: MsgUpdate}},
		{ID: 3, Owner: "q", Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 2, Provider: 1, JoinWith: 2, Lo: 7, Hi: 99}}},
		{ID: 4, Handle: 1, Req: Request{Type: MsgStats}},
		{ID: 5, Owner: "owner-c", Req: Request{Type: MsgSetup, Seq: 1, Sealed: [][]byte{{4, 5}}}},
		{ID: 6, Owner: "owner-c", Req: Request{Type: MsgUpdate, Seq: 1 << 40, Sealed: [][]byte{{6}}}},
		{ID: 7, Owner: "owner-c", Req: Request{Type: MsgResume}},
		{ID: 8, Owner: "owner-c", Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 1, Provider: 2}}},
		{ID: 1<<64 - 1, Owner: "owner-c", Req: Request{Type: MsgUpdate, Seq: 1<<64 - 1, Sealed: [][]byte{make([]byte, 44), make([]byte, 44)}}},
		{ID: 9, Handle: 128, Req: Request{Type: MsgUpdate, Seq: 3, Sealed: [][]byte{make([]byte, 44)}}},
		{ID: 10, Handle: MaxBindings, Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 3}}},
		{ID: 11, Handle: 1<<64 - 1, Req: Request{Type: MsgResume}},
	}
}

func sampleResponses() []GatewayResponse {
	return []GatewayResponse{
		{ID: 1, Resp: Response{OK: true}},
		{ID: 2, Resp: Refuse(CodeNotSetup, 0, "")},
		{ID: 3, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: []float64{1, 2, 3}, Width: 1},
			Cost: &CostSpec{RecordsScanned: 1000, PairsCompared: -1}}},
		{ID: 3, Resp: Response{OK: true, Answer: &AnswerSpec{Scalar: 42.5}, Cost: &CostSpec{}}},
		{ID: 4, Resp: Response{OK: true, Stats: &StatsSpec{Records: 12, Bytes: 12288, Updates: 3}}},
		{ID: 5, Resp: Response{OK: true, Stats: &StatsSpec{Records: 1, Bytes: 6400, Updates: 1}}},
		{ID: 6, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 42}}},
		{ID: 7, Resp: Response{OK: true, Resume: &ResumeSpec{Clock: 0}}},
		{ID: 8, Resp: Refuse(CodeBackpressure, 0, "")},
		{ID: 9, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: []float64{0, 7, 1<<32 - 1}, Width: 4}, Cost: &CostSpec{}}},
		{ID: 10, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: []float64{0, 7, 1 << 32}, Width: 8}}},
		{ID: 10, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: []float64{0, 7, 1 << 32}}}},
		{ID: 11, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: []float64{2.5, math.Inf(-1), math.Copysign(0, -1)}}}},
		{ID: 11, Resp: Response{OK: true, Answer: &AnswerSpec{Scalar: -1}}},
		{ID: 11, Resp: Response{OK: true, Answer: &AnswerSpec{Scalar: 255, Width: 1}}},
		{ID: 11, Resp: Response{OK: true, Answer: &AnswerSpec{Scalar: 65535, Width: 2}}},
		{ID: 11, Resp: Response{OK: true, Answer: &AnswerSpec{Scalar: 0, Width: 4}}},
		{ID: 11, Resp: Response{OK: true, Answer: &AnswerSpec{Scalar: 1 << 53, Width: 8}}},
		{ID: 11, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: []float64{0, 2, 0, 1}, Width: WidthIndex, Slots: 5}, Cost: &CostSpec{}}},
		{ID: 11, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: []float64{3}, Width: WidthIndex, Slots: 3}}},
		{ID: 11, Resp: Response{OK: true, Answer: &AnswerSpec{Groups: make([]float64, 265), Width: WidthIndex}}},
		{ID: 12, Resp: Refuse(CodeSeqGap, 1<<40, "")},
		{ID: 13, Resp: Refuse(CodeSeqGap, 2, "")},
		{ID: 14, Resp: Refuse(CodeBadRequest, 0, "gateway: unbound handle 7")},
		{ID: 15, Resp: Refuse(CodeFailed, 0, "edb: Setup called twice")},
		{ID: 16, Resp: Refuse(CodeFailed, 0, "")},
	}
}

func TestGatewayRequestRoundTrip(t *testing.T) {
	for _, g := range sampleRequests() {
		b, err := CodecBinary.EncodeGatewayRequest(g)
		if err != nil {
			t.Fatalf("encode %+v: %v", g, err)
		}
		got, err := CodecBinary.DecodeGatewayRequest(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Errorf("round trip: got %+v want %+v", got, g)
		}
	}
}

func TestGatewayResponseRoundTrip(t *testing.T) {
	for _, g := range sampleResponses() {
		b, err := CodecBinary.EncodeGatewayResponse(g)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := CodecBinary.DecodeGatewayResponse(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Errorf("round trip: got %+v want %+v", got, g)
		}
	}
}

func TestDecodeRejectsZeroLengthFrames(t *testing.T) {
	if _, err := CodecBinary.DecodeGatewayRequest(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("DecodeGatewayRequest(nil) = %v, want ErrBadFrame", err)
	}
	if _, err := CodecBinary.DecodeGatewayResponse(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("DecodeGatewayResponse(nil) = %v, want ErrBadFrame", err)
	}
}

// TestBinaryDecodeTypedErrors throws truncated, lying and non-canonical
// frames at both decoders: every one is ErrBadFrame. The byte strings are
// written out by hand (the layout is in AppendGatewayRequest's and
// AppendGatewayResponse's comments); 0x80 0x00 is zero spelled in two bytes,
// and a request's "0, 1" after its ID names the owner by handle 1.
func TestBinaryDecodeTypedErrors(t *testing.T) {
	valid, err := CodecBinary.EncodeGatewayRequest(sampleRequests()[0])
	if err != nil {
		t.Fatal(err)
	}
	ff9 := bytes.Repeat([]byte{0xFF}, 9)
	maxU64 := append(append([]byte{}, ff9...), 0x01)
	scalar := func(tail ...byte) []byte { // id 9, OK|scalar, then tail: width, value
		return append([]byte{9, flagOK | flagScalar}, tail...)
	}
	groups := func(tail ...byte) []byte { // id 9, OK|groups, then tail: width, count, values
		return append([]byte{9, flagOK | flagGroups}, tail...)
	}
	indices := func(tail ...byte) []byte { // groups as indices, then tail: count, index count, indices
		return groups(append([]byte{byte(WidthIndex)}, tail...)...)
	}
	requests := map[string][]byte{
		"truncated header":           valid[:5],
		"truncated sealed":           valid[:len(valid)-2],
		"trailing bytes":             append(append([]byte{}, valid...), 0xEE),
		"unknown msg type":           {1, 0, 1, 0xCC},
		"fixed-width id (codec 2)":   {0, 0, 0, 0, 0, 0, 0, 1, 0, binStats},
		"padded id":                  {0x81, 0x00, 0, 1, binStats},
		"id past 64 bits":            append(append(append([]byte{}, ff9...), 0x02), 0, 1, binStats),
		"id past 10 bytes":           append(bytes.Repeat([]byte{0x80}, 10), 0x01, 0, 1, binStats),
		"padded seq":                 {1, 0, 1, binUpdate, 0x80, 0x00, 0},
		"padded count":               {1, 0, 1, binUpdate, 0, 0x80, 0x00},
		"padded width":               {1, 0, 1, binUpdate, 0, 1, 0x83, 0x00, 1, 2, 3},
		"count exceeds frame":        {1, 0, 1, binSetup, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 44},
		"n×width overflows uint64":   append(append(append([]byte{1, 0, 1, binSetup, 0}, maxU64...), maxU64...), 1, 2, 3),
		"n×width wraps into range":   append(append([]byte{1, 0, 1, binSetup, 0}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), 0x02, 7, 7), // 2⁶³ × 2 = 0
		"block one byte short":       {1, 0, 1, binSetup, 0, 2, 3, 1, 2, 3, 4, 5},
		"width 0 with n > 0":         {1, 0, 1, binSetup, 0, 5, 0},
		"width block with n = 0":     {1, 0, 1, binSetup, 0, 0, 44},
		"retired type 6 (codec 8)":   {1, 1, 'a', 6, 2, 1, 0, 0, 50, 0, 100, 17},
		"stats with a trailing byte": {1, 0, 1, binStats, 5},
		"owner handle 0":             {1, 0, 0, binStats},
		"padded owner handle":        {1, 0, 0x81, 0x00, binStats},
		"owner handle missing":       {1, 0},
		"owner handle past 64 bits":  append(append(append([]byte{1, 0}, ff9...), 0x02), binStats),
		"name one byte short":        {1, 5, 'o', 'w', 'n', 'e'},
		"retired JSON":               []byte(`{"id":1,"owner":"o","req":{"type":"stats"}}`),
	}
	for name, b := range requests {
		if _, err := CodecBinary.DecodeGatewayRequest(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("request %s: err = %v, want ErrBadFrame", name, err)
		}
	}
	responses := map[string][]byte{
		"short":                       {1},
		"fixed-width id (codec 2)":    {0, 0, 0, 0, 0, 0, 0, 1, flagOK},
		"padded id":                   {0x81, 0x00, flagOK},
		"trailing bytes":              {1, flagOK, 0},
		"neither OK nor refused":      {1, 0},
		"a lone section":              {1, flagResume, 5},
		"OK and refused":              {1, flagOK | flagRefused, byte(CodeClosing), 0, 0},
		"refusal beside an answer":    {1, flagRefused | flagScalar, byte(CodeClosing), 0, 0, 1, 7},
		"refusal beside a resume":     {1, flagRefused | flagResume, byte(CodeClosing), 0, 0, 5},
		"refusal code 0":              {1, flagRefused, 0, 0, 0},
		"refusal code 10":             {1, flagRefused, 10, 0, 0},
		"retired bit 128":             {1, flagRefused | 128, byte(CodeSeqGap), 16, 0},
		"retired code 2 (codec 8)":    {1, flagRefused, 2, 16, 0},
		"retired code 2, no cursor":   {1, flagRefused, 2, 0, 0},
		"codec-3 backpressure":        append([]byte{1, 2 | 64, 42}, ErrBackpressure.Error()...),
		"codec-3 error frame":         {1, 2, 4, 'b', 'o', 'o', 'm'},
		"codec-3 not-setup text":      append([]byte{1, 2, 24}, "edb: database not set up"...),
		"truncated refusal":           {1, flagRefused, byte(CodeSeqGap)},
		"padded refusal cursor":       {1, flagRefused, byte(CodeSeqGap), 0x90, 0x00, 0},
		"padded detail length":        {1, flagRefused, byte(CodeFailed), 0, 0x81, 0x00, 'x'},
		"detail one byte short":       {1, flagRefused, byte(CodeFailed), 0, 4, 'b', 'o', 'o'},
		"detail past the cap":         {1, flagRefused, byte(CodeFailed), 0, 0x80, 0x80, 0x04, 'x'},
		"cursor on backpressure":      {1, flagRefused, byte(CodeBackpressure), 7, 0},
		"text on not-setup":           {1, flagRefused, byte(CodeNotSetup), 0, 1, 'x'},
		"trailing byte on refusal":    {1, flagRefused, byte(CodeClosing), 0, 0, 0},
		"group count exceeds frame":   groups(4, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F),
		"groups×width overflows":      groups(append(append([]byte{8}, maxU64...), 1, 2, 3)...),
		"group block one short":       groups(4, 2, 0, 0, 0, 1, 0, 0, 0),
		"group flag, no section":      groups(),
		"a group vector of none":      groups(4, 0),
		"padded group count":          groups(4, 0x81, 0x00, 0, 0, 0, 7),
		"a scalar beside groups":      {9, flagOK | flagScalar | flagGroups, 1, 7, 1, 1, 7},
		"codec-5 group answer":        {9, flagOK | flagScalar, 0, 0, 0, 0, 0, 0, 0, 0, 2, 4, 0, 0, 0, 7, 0, 0, 0, 9}, // f64 0 · 2 groups · width 4
		"scalar flag, no section":     scalar(),
		"truncated scalar":            scalar(4, 0, 0, 7),
		"unknown width code 3":        scalar(3, 0, 0, 7),
		"unknown width code 16":       groups(16, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7),
		"unknown width code 0x88":     scalar(0x88, 0x40, 0x1C, 0, 0, 0, 0, 0, 0),
		"scalar over its width":       scalar(8, 0, 0x20, 0, 0, 0, 0, 0, 1),                                                 // 2⁵³ + 1
		"group over its width":        groups(8, 2, 0, 0, 0, 0, 0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), // 7, 2⁶⁴ − 1
		"indices descending":          indices(3, 3, 0, 2, 0, 1, 0, 1),
		"an index past the pad":       indices(3, 2, 0, 1, 0, 4),
		"a pad before an index":       indices(3, 2, 0, 3, 0, 1),
		"index count past frame":      indices(3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 1),
		"index count past 64 bits":    indices(append(append([]byte{3}, ff9...), 0x02)...),
		"index block one short":       indices(3, 2, 0, 1, 0),
		"indices on a scalar":         scalar(byte(WidthIndex), 1, 0, 1),
		"indices on no groups":        indices(0, 0),
		"indices on 65,536 groups":    indices(0x80, 0x80, 0x04, 0),
		"padded index count":          indices(3, 0x81, 0x00, 0, 1),
		"padded indexed group count":  indices(0x83, 0x00, 1, 0, 1),
		"padded cost":                 {1, flagOK | flagCost, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x00, 0},
		"padded resume clock":         {1, flagOK | flagResume, 0xAA, 0x00},
		"seq-gap cursor past 64 bits": append(append([]byte{1, flagRefused, byte(CodeSeqGap)}, ff9...), 0x7F, 0),
		"truncated stats":             {1, flagOK | flagStats, 12, 0x80},
	}
	for name, b := range responses {
		if _, err := CodecBinary.DecodeGatewayResponse(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("response %s: err = %v, want ErrBadFrame", name, err)
		}
	}
	// The float width carries every value bit-exact, a count and −0 alike;
	// the 8-byte integer width every count up to 2⁵³.
	if g, err := CodecBinary.DecodeGatewayResponse(groups(0, 2, 0x40, 0x1C, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0)); err != nil ||
		g.Resp.Answer.Groups[0] != 7 || !math.Signbit(g.Resp.Answer.Groups[1]) {
		t.Errorf("7 and -0 as floats: %+v, %v", g.Resp.Answer, err)
	}
	if g, err := CodecBinary.DecodeGatewayResponse(scalar(8, 0, 0x20, 0, 0, 0, 0, 0, 0)); err != nil || g.Resp.Answer.Scalar != 1<<53 {
		t.Errorf("2⁵³ at width 8: %+v, %v", g.Resp.Answer, err)
	}
	// Indices count into their groups, and the pads into none: 1, 1, 2 and
	// a pad in a vector of 3 are the counts 0, 2, 1 in 4 slots.
	if g, err := CodecBinary.DecodeGatewayResponse(indices(3, 4, 0, 1, 0, 1, 0, 2, 0, 3)); err != nil ||
		!reflect.DeepEqual(g.Resp.Answer, &AnswerSpec{Groups: []float64{0, 2, 1}, Width: WidthIndex, Slots: 4}) {
		t.Errorf("indices 1, 1, 2, pad: %+v, %v", g.Resp.Answer, err)
	}

	// A block that claims more than its frame holds is refused before
	// anything is allocated for it — not a slice header, not an error string.
	for name, decode := range map[string]func(){
		"count exceeds frame":       func() { _, _ = CodecBinary.DecodeGatewayRequest(requests["count exceeds frame"]) },
		"n×width overflows uint64":  func() { _, _ = CodecBinary.DecodeGatewayRequest(requests["n×width overflows uint64"]) },
		"n×width wraps into range":  func() { _, _ = CodecBinary.DecodeGatewayRequest(requests["n×width wraps into range"]) },
		"group count exceeds frame": func() { _, _ = CodecBinary.DecodeGatewayResponse(responses["group count exceeds frame"]) },
		"groups×width overflows":    func() { _, _ = CodecBinary.DecodeGatewayResponse(responses["groups×width overflows"]) },
		"index count past frame":    func() { _, _ = CodecBinary.DecodeGatewayResponse(responses["index count past frame"]) },
		"indices on 65,536 groups":  func() { _, _ = CodecBinary.DecodeGatewayResponse(responses["indices on 65,536 groups"]) },
	} {
		if n := testing.AllocsPerRun(100, decode); n > 1 {
			t.Errorf("%s: %v allocs/op, want the rejection to come before any allocation", name, n)
		}
	}
}

func TestEncodeGuards(t *testing.T) {
	long := make([]byte, MaxOwnerLen+1)
	for i := range long {
		long[i] = 'a'
	}
	ct := func(n int) []byte { return make([]byte, n) }
	for name, g := range map[string]GatewayRequest{
		"over-long owner id":        {Owner: string(long), Req: Request{Type: MsgStats}},
		"no owner":                  {Req: Request{Type: MsgStats}},
		"a name and a handle":       {Owner: "o", Handle: 1, Req: Request{Type: MsgStats}},
		"unknown message type":      {Owner: "o", Req: Request{Type: "bogus"}},
		"query without spec":        {Handle: 1, Req: Request{Type: MsgQuery}},
		"out-of-range kind":         {Handle: 1, Req: Request{Type: MsgQuery, Query: &QuerySpec{Kind: 1000, Provider: 1}}},
		"mixed-length batch":        {Owner: "o", Req: Request{Type: MsgUpdate, Seq: 2, Sealed: [][]byte{ct(44), ct(44), ct(43)}}},
		"batch of empty ciphertext": {Owner: "o", Req: Request{Type: MsgSetup, Seq: 1, Sealed: [][]byte{{}, {}}}},
	} {
		buf := append(make([]byte, 0, 256), 0xA, 0xB, 0xC)
		got, err := AppendGatewayRequest(buf, g)
		if err == nil {
			t.Errorf("%s: encoded", name)
		}
		if !bytes.Equal(got, []byte{0xA, 0xB, 0xC}) {
			t.Errorf("%s: the refused encode returned %d bytes, want the buffer as it was", name, len(got))
		}
	}
	// A response is exactly one of OK and refused, a refusal travels alone,
	// and only the codes that carry a cursor or a text may set one.
	for name, r := range map[string]Response{
		"neither OK nor refused":   {},
		"a lone section":           {Resume: &ResumeSpec{Clock: 5}},
		"OK and refused":           {OK: true, Refusal: &Refusal{Code: CodeClosing}},
		"refusal beside a resume":  {Refusal: &Refusal{Code: CodeClosing}, Resume: &ResumeSpec{Clock: 5}},
		"refusal code 0":           {Refusal: &Refusal{}},
		"refusal code 10":          {Refusal: &Refusal{Code: 10}},
		"retired refusal code 2":   Refuse(2, 16, ""),
		"code 2 with no cursor":    Refuse(2, 0, ""),
		"cursor on backpressure":   Refuse(CodeBackpressure, 7, ""),
		"text on suspended":        Refuse(CodeSuspended, 0, "the disk is full"),
		"a scalar beside groups":   {OK: true, Answer: &AnswerSpec{Scalar: 1, Groups: []float64{1}, Width: 1}},
		"unknown width 3":          {OK: true, Answer: &AnswerSpec{Scalar: 1, Width: 3}},
		"a scalar over its width":  {OK: true, Answer: &AnswerSpec{Scalar: 256, Width: 1}},
		"a group over its width":   {OK: true, Answer: &AnswerSpec{Groups: []float64{1, 65536}, Width: 2}},
		"a fraction at width 4":    {OK: true, Answer: &AnswerSpec{Groups: []float64{1, 2.5}, Width: 4}},
		"a negative count":         {OK: true, Answer: &AnswerSpec{Scalar: -1, Width: 8}},
		"−0 at width 1":            {OK: true, Answer: &AnswerSpec{Scalar: math.Copysign(0, -1), Width: 1}},
		"NaN at width 8":           {OK: true, Answer: &AnswerSpec{Groups: []float64{math.NaN()}, Width: 8}},
		"2⁵³ + 2 at width 8":       {OK: true, Answer: &AnswerSpec{Scalar: 1<<53 + 2, Width: 8}},
		"indices on a scalar":      {OK: true, Answer: &AnswerSpec{Scalar: 1, Width: WidthIndex, Slots: 1}},
		"counts past their slots":  {OK: true, Answer: &AnswerSpec{Groups: []float64{1, 2}, Width: WidthIndex, Slots: 2}},
		"a fraction as indices":    {OK: true, Answer: &AnswerSpec{Groups: []float64{0.5}, Width: WidthIndex, Slots: 1}},
		"a negative index count":   {OK: true, Answer: &AnswerSpec{Groups: []float64{-1, 2}, Width: WidthIndex, Slots: 2}},
		"negative slots":           {OK: true, Answer: &AnswerSpec{Groups: []float64{0}, Width: WidthIndex, Slots: -1}},
		"slots past any frame":     {OK: true, Answer: &AnswerSpec{Groups: []float64{0}, Width: WidthIndex, Slots: MaxFrame}},
		"65,536 groups as indices": {OK: true, Answer: &AnswerSpec{Groups: make([]float64, 1<<16), Width: WidthIndex}},
		"slots beside width 1":     {OK: true, Answer: &AnswerSpec{Groups: []float64{1}, Width: 1, Slots: 1}},
		"slots beside a scalar":    {OK: true, Answer: &AnswerSpec{Scalar: 1, Width: 1, Slots: 1}},
	} {
		buf := append(make([]byte, 0, 256), 0xA, 0xB, 0xC)
		got, err := AppendGatewayResponse(buf, GatewayResponse{ID: 1, Resp: r})
		if err == nil {
			t.Errorf("response %s: encoded", name)
		}
		if !bytes.Equal(got, []byte{0xA, 0xB, 0xC}) {
			t.Errorf("response %s: the refused encode returned %d bytes, want the buffer as it was", name, len(got))
		}
	}
	// Bytes 1 to 8 were the JSON codec, the fixed-width-integer layout, the
	// error-text-beside-flag-bits layout, the owner named inline in every
	// request, every answer at 4-byte groups beside an 8-byte scalar, every
	// group vector one value a group, a 4-byte frame length and a query that
	// could carry a freshness bound; they name no codec now, and nothing
	// encodes or decodes under them.
	for _, retired := range []Codec{1, 2, 3, 4, 5, 6, 7, 8} {
		if _, err := retired.EncodeGatewayRequest(sampleRequests()[0]); err == nil {
			t.Errorf("request encoded under the retired codec byte %d", retired)
		}
		if _, err := retired.DecodeGatewayResponse([]byte{1, flagOK}); err == nil {
			t.Errorf("response decoded under the retired codec byte %d", retired)
		}
	}
}

func TestHelloNegotiation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, CodecBinary); err != nil {
		t.Fatal(err)
	}
	kind, got, err := ReadAnyHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != HelloClient || Codec(got) != CodecBinary {
		t.Errorf("hello = kind %v codec %v", kind, got)
	}
	// An unknown or retired codec byte passes through ReadAnyHello — the
	// server acks the one codec it speaks, version byte 10, whatever was
	// proposed (over a socket: the gateway's
	// TestGatewayAcksUnknownCodecWithBinary).
	obli := Backend{Scheme: "ObliDB", Leakage: edb.L0}
	for _, proposed := range []Codec{77, 9, 8, 7, 6, 5, 4, 3, 2, 1} {
		buf.Reset()
		_ = WriteHello(&buf, proposed)
		kind, got, err = ReadAnyHello(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if kind != HelloClient || Codec(got) != proposed || proposed.Valid() {
			t.Errorf("proposed codec %d: read kind %v codec %d, valid %v", proposed, kind, got, proposed.Valid())
		}
		_ = WriteHelloAck(&buf, obli) // what the gateway answers any proposal
		if ack := buf.Bytes(); len(ack) == 0 || ack[0] != 10 {
			t.Errorf("proposed codec %d: acked % x, want codec 10", proposed, ack)
		}
		if be, err := ReadHelloAck(&buf); err != nil || be != obli {
			t.Errorf("proposed codec %d: acked %v (%v), want %v", proposed, be, err, obli)
		}
	}
	// The three protocols' hellos differ in the magic alone.
	for want, write := range map[HelloKind]func() error{
		HelloRead: func() error { return WriteReadHello(&buf, CodecBinary) },
		HelloRepl: func() error { return WriteReplHello(&buf, ReplVersion) },
	} {
		buf.Reset()
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if kind, _, err := ReadAnyHello(&buf); err != nil || kind != want {
			t.Errorf("hello kind = %v (%v), want %v", kind, err, want)
		}
	}
	// Bad magic is a protocol violation.
	if _, _, err := ReadAnyHello(bytes.NewReader([]byte("HTTP/1.1 blah"))); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad magic: err = %v, want ErrBadFrame", err)
	}
	// Ack round trip; invalid ack rejected; the refusal byte is not-primary.
	for _, be := range []Backend{obli, {Scheme: "Crypteps", Leakage: edb.LDP}, {Scheme: "unidentified", Leakage: edb.L2}} {
		buf.Reset()
		if err := WriteHelloAck(&buf, be); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadHelloAck(&buf); err != nil || got != be {
			t.Errorf("ack = %v, %v; want %v", got, err, be)
		}
	}
	for _, b := range []byte{0x7F, 1, 2, 3, 4, 5, 6, 7, 8, 9} { // 1 to 9: the retired codecs' bytes
		if _, err := ReadHelloAck(bytes.NewReader([]byte{b, 0, 6, 'O', 'b', 'l', 'i', 'D', 'B'})); !errors.Is(err, ErrBadFrame) {
			t.Errorf("invalid ack %#x: err = %v, want ErrBadFrame", b, err)
		}
	}
	// An ack stating what no backend is — a class edb does not define, no
	// scheme name, one with a byte no name has — is refused whole, and
	// neither end writes one; one cut short is an error.
	for name, ack := range map[string][]byte{
		"class 4":             {10, 4, 6, 'O', 'b', 'l', 'i', 'D', 'B'},
		"class 255":           {10, 255, 6, 'O', 'b', 'l', 'i', 'D', 'B'},
		"empty scheme":        {10, 0, 0},
		"a space in a scheme": {10, 0, 2, 'O', ' '},
		"a control byte":      {10, 0, 2, 'O', '\n'},
		"a byte past ASCII":   {10, 0, 2, 'O', 0xC3},
	} {
		if be, err := ReadHelloAck(bytes.NewReader(ack)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: read %v, %v; want ErrBadFrame", name, be, err)
		}
	}
	for _, be := range []Backend{{Scheme: "ObliDB", Leakage: 4}, {Scheme: ""}, {Scheme: "a b"}, {Scheme: string(bytes.Repeat([]byte{'x'}, 256))}} {
		buf.Reset()
		if err := WriteHelloAck(&buf, be); err == nil || buf.Len() != 0 {
			t.Errorf("ack of %q class %d written: % x", be.Scheme, int(be.Leakage), buf.Bytes())
		}
	}
	for _, short := range [][]byte{{}, {10}, {10, 0}, {10, 0, 6, 'O', 'b', 'l'}} {
		if _, err := ReadHelloAck(bytes.NewReader(short)); err == nil {
			t.Errorf("ack % x cut short: read without an error", short)
		}
	}
	if _, err := ReadHelloAck(bytes.NewReader([]byte{HelloRefused})); !errors.Is(err, ErrNotPrimary) {
		t.Errorf("refused ack: err = %v, want ErrNotPrimary", err)
	}
}
