package compress

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/fxrz-go/fxrz/internal/grid"
)

func TestAxisErrorBoundModelSpace(t *testing.T) {
	a := Axis{Kind: AbsErrorBound, Min: 1e-9, Max: 100}
	if got := a.ToModel(1e-3); got != -3 {
		t.Errorf("ToModel(1e-3) = %v", got)
	}
	if got := a.FromModel(-3); math.Abs(got-1e-3)/1e-3 > 1e-12 {
		t.Errorf("FromModel(-3) = %v", got)
	}
	// Clamping.
	if got := a.FromModel(10); got != 100 {
		t.Errorf("FromModel(10) = %v, want clamp to 100", got)
	}
	if got := a.FromModel(-30); got != 1e-9 {
		t.Errorf("FromModel(-30) = %v, want clamp to 1e-9", got)
	}
}

func TestAxisPrecisionModelSpace(t *testing.T) {
	a := Axis{Kind: Precision, Min: 2, Max: 32}
	if got := a.ToModel(16); got != -16 {
		t.Errorf("ToModel(16) = %v", got)
	}
	if got := a.FromModel(-16.4); got != 16 {
		t.Errorf("FromModel(-16.4) = %v, want rounded 16", got)
	}
	if got := a.Clamp(99); got != 32 {
		t.Errorf("Clamp(99) = %v", got)
	}
	if got := a.Clamp(0.2); got != 2 {
		t.Errorf("Clamp(0.2) = %v", got)
	}
}

func TestAxisRoundTripQuick(t *testing.T) {
	a := Axis{Kind: AbsErrorBound, Min: 1e-12, Max: 1e6}
	check := func(exp int8) bool {
		e := int(exp) % 6 // exponents in (-6, 6), inside the domain
		knob := math.Pow(10, float64(e))
		back := a.FromModel(a.ToModel(knob))
		return math.Abs(back-knob)/knob < 1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestAxisSpan(t *testing.T) {
	a := Axis{Kind: AbsErrorBound, Min: 1e-4, Max: 1}
	s := a.Span(5)
	if len(s) != 5 {
		t.Fatalf("span len %d", len(s))
	}
	if math.Abs(s[0]-1e-4)/1e-4 > 1e-9 || math.Abs(s[4]-1) > 1e-12 {
		t.Errorf("span endpoints %v", s)
	}
	// Log-uniform: consecutive ratios equal.
	r1, r2 := s[1]/s[0], s[2]/s[1]
	if math.Abs(r1-r2)/r1 > 1e-9 {
		t.Errorf("span not log-uniform: %v", s)
	}
	p := Axis{Kind: Precision, Min: 2, Max: 32}
	ps := p.Span(40)
	for i := 1; i < len(ps); i++ {
		if ps[i] <= ps[i-1] {
			t.Fatalf("precision span not strictly increasing: %v", ps)
		}
		if ps[i] != math.Round(ps[i]) {
			t.Fatalf("precision span not integral: %v", ps)
		}
	}
	if got := a.Span(1); len(got) < 2 {
		t.Errorf("Span(1) should clamp to 2 points, got %v", got)
	}
}

func TestRatioAndMaxAbsError(t *testing.T) {
	f := grid.MustNew("t", 10)
	if got := Ratio(f, make([]byte, 10)); got != 4 {
		t.Errorf("Ratio = %v", got)
	}
	if got := Ratio(f, nil); got != 0 {
		t.Errorf("Ratio(empty) = %v", got)
	}
	g := f.Clone()
	g.Data[3] = 7
	e, err := MaxAbsError(f, g)
	if err != nil || e != 7 {
		t.Errorf("MaxAbsError = %v, %v", e, err)
	}
	if _, err := MaxAbsError(f, grid.MustNew("u", 3)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Magic: MagicSZ, Name: "nyx/baryon_density/ts3", Dims: []int{512, 512, 512}, Knob: 1.25e-3}
	blob := AppendHeader(nil, h)
	blob = append(blob, 0xAB, 0xCD) // payload
	got, payload, err := ParseHeader(blob, MagicSZ)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != h.Name || got.Knob != h.Knob || len(got.Dims) != 3 || got.Dims[0] != 512 {
		t.Errorf("header %+v", got)
	}
	if len(payload) != 2 || payload[0] != 0xAB {
		t.Errorf("payload %v", payload)
	}
}

func TestHeaderRejects(t *testing.T) {
	h := Header{Magic: MagicZFP, Name: "x", Dims: []int{4}, Knob: 1}
	blob := AppendHeader(nil, h)
	if _, _, err := ParseHeader(blob, MagicSZ); err == nil {
		t.Error("wrong magic accepted")
	}
	if _, _, err := ParseHeader(nil, MagicZFP); err == nil {
		t.Error("empty blob accepted")
	}
	for cut := 1; cut < len(blob); cut++ {
		if _, _, err := ParseHeader(blob[:cut], MagicZFP); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestHeaderQuick(t *testing.T) {
	check := func(name string, d1, d2 uint8, knob float64) bool {
		if math.IsNaN(knob) {
			return true
		}
		if len(name) > 255 {
			name = name[:255]
		}
		dims := []int{int(d1)%64 + 1, int(d2)%64 + 1}
		blob := AppendHeader(nil, Header{Magic: MagicMGARD, Name: name, Dims: dims, Knob: knob})
		got, _, err := ParseHeader(blob, MagicMGARD)
		return err == nil && got.Name == name && got.Knob == knob &&
			got.Dims[0] == dims[0] && got.Dims[1] == dims[1]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCheckElems(t *testing.T) {
	if n, err := CheckElems([]int{6, 7, 5}, 1024); err != nil || n != 210 {
		t.Fatalf("valid dims rejected: n=%d err=%v", n, err)
	}
	cases := []struct {
		name    string
		dims    []int
		payload int
	}{
		{"zero dim", []int{0, 4}, 1024},
		{"negative dim", []int{-3}, 1024},
		{"budget exceeded", []int{1 << 20, 1 << 10}, 2},
		// The naive product of four maximal dims wraps int64 to something
		// tiny; the overflow-safe accumulation must still reject it.
		{"int64 overflow", []int{1 << 32, 1 << 32, 1 << 32, 1 << 32}, 1 << 20},
		{"addressable overflow", []int{1 << 30, 1 << 30}, 1 << 30},
	}
	for _, tc := range cases {
		n, err := CheckElems(tc.dims, tc.payload)
		if err == nil {
			t.Errorf("%s: accepted (n=%d)", tc.name, n)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", tc.name, err)
		}
	}
}

// lenCodec is a codec without a Sizer hook whose stream for knob k is k
// bytes long; a negative knob is an error.
type lenCodec struct{}

func (lenCodec) Name() string { return "len" }
func (lenCodec) Axis() Axis   { return Axis{Kind: Precision, Min: 1, Max: 64} }
func (lenCodec) Compress(f *grid.Field, k float64) ([]byte, error) {
	if k < 0 {
		return nil, fmt.Errorf("len: knob %v", k)
	}
	return make([]byte, int(k)), nil
}
func (lenCodec) Decompress([]byte) (*grid.Field, error) { return nil, errors.New("len: no decoder") }

// A codec without the Sizer hook is sized by compressing at every knob, at
// every width, and the error is the first failing knob's.
func TestCompressedSizesAdapter(t *testing.T) {
	f := grid.MustNew("f", 4)
	knobs := []float64{3, 0, 17, 5, 1, 9}
	for _, w := range []int{1, 2, 4} {
		sizes, err := CompressedSizes(lenCodec{}, f, knobs, w)
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range knobs {
			if sizes[j] != int(k) {
				t.Errorf("width %d: sizes %v for knobs %v", w, sizes, knobs)
				break
			}
		}
		_, err = CompressedSizes(lenCodec{}, f, []float64{3, -2, 4, -5}, w)
		var ke *KnobError
		if !errors.As(err, &ke) || ke.Knob != -2 || err.Error() != "len: knob -2" {
			t.Errorf("width %d: err %v, want knob -2's", w, err)
		}
	}
	if got := SizeRatio(f, 8); got != 2 || SizeRatio(f, 0) != 0 {
		t.Errorf("SizeRatio(16-byte field, 8) = %v", got)
	}
}
