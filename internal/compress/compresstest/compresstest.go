// Package compresstest provides conformance checks shared by the codec test
// suites: round-trip geometry, error-bound enforcement, ratio monotonicity
// along the configuration axis, and corruption robustness.
package compresstest

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// TestFields returns a deterministic set of fields exercising the shapes and
// textures the codecs must handle: 1D–4D, constant, smooth, oscillatory,
// noisy, tiny, and boundary-unfriendly (non-multiple-of-4) extents.
func TestFields() []*grid.Field {
	rng := rand.New(rand.NewSource(2023))
	var fs []*grid.Field

	smooth3 := grid.MustNew("smooth3d", 17, 19, 23)
	for z := 0; z < 17; z++ {
		for y := 0; y < 19; y++ {
			for x := 0; x < 23; x++ {
				v := math.Sin(float64(z)/5) * math.Cos(float64(y)/7) * math.Sin(float64(x)/9)
				smooth3.Set(float32(10+5*v), z, y, x)
			}
		}
	}
	fs = append(fs, smooth3)

	const1 := grid.MustNew("const2d", 16, 16)
	const1.Fill(3.25)
	fs = append(fs, const1)

	noisy := grid.MustNew("noisy1d", 211)
	for i := range noisy.Data {
		noisy.Data[i] = rng.Float32()*100 - 50
	}
	fs = append(fs, noisy)

	wave2 := grid.MustNew("wave2d", 33, 31)
	for y := 0; y < 33; y++ {
		for x := 0; x < 31; x++ {
			wave2.Set(float32(math.Sin(float64(x+y)/3)), y, x)
		}
	}
	fs = append(fs, wave2)

	f4 := grid.MustNew("field4d", 3, 5, 7, 6)
	for i := range f4.Data {
		f4.Data[i] = float32(math.Sin(float64(i) / 40))
	}
	fs = append(fs, f4)

	tiny := grid.MustNew("tiny", 2, 2, 2)
	copy(tiny.Data, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	fs = append(fs, tiny)

	spiky := grid.MustNew("spiky3d", 9, 9, 9)
	for i := range spiky.Data {
		if i%57 == 0 {
			spiky.Data[i] = 1e6
		} else {
			spiky.Data[i] = float32(i % 3)
		}
	}
	fs = append(fs, spiky)

	return fs
}

// RoundTrip checks that decompression restores the geometry and that the
// reported error metric respects the codec's contract. boundFor maps the
// knob to the guaranteed L∞ bound (identity for error-bound codecs; a
// precision-dependent bound for FPZIP). A nil boundFor skips the bound check.
func RoundTrip(t *testing.T, c compress.Compressor, knobs []float64, boundFor func(f *grid.Field, knob float64) float64) {
	t.Helper()
	for _, f := range TestFields() {
		for _, knob := range knobs {
			blob, err := c.Compress(f, knob)
			if err != nil {
				t.Fatalf("%s: compress %s knob=%g: %v", c.Name(), f.Name, knob, err)
			}
			g, err := c.Decompress(blob)
			if err != nil {
				t.Fatalf("%s: decompress %s knob=%g: %v", c.Name(), f.Name, knob, err)
			}
			if g.Size() != f.Size() || len(g.Dims) != len(f.Dims) {
				t.Fatalf("%s: %s knob=%g: geometry mismatch %v vs %v", c.Name(), f.Name, knob, g.Dims, f.Dims)
			}
			for i, d := range f.Dims {
				if g.Dims[i] != d {
					t.Fatalf("%s: %s: dim %d = %d, want %d", c.Name(), f.Name, i, g.Dims[i], d)
				}
			}
			if boundFor != nil {
				bound := boundFor(f, knob)
				maxErr, err := compress.MaxAbsError(f, g)
				if err != nil {
					t.Fatal(err)
				}
				if maxErr > bound*(1+1e-6) {
					t.Errorf("%s: %s knob=%g: max abs error %g exceeds bound %g", c.Name(), f.Name, knob, maxErr, bound)
				}
			}
		}
	}
}

// MonotoneRatio checks that looser settings never substantially shrink the
// compression ratio on a smooth field. Lossy back ends are not perfectly
// monotone, so a small tolerance is allowed.
func MonotoneRatio(t *testing.T, c compress.Compressor, knobs []float64, looserIsLarger bool) {
	t.Helper()
	f := TestFields()[0] // smooth3d
	prev := -math.MaxFloat64
	for i, knob := range knobs {
		r, err := compress.CompressRatio(c, f, knob)
		if err != nil {
			t.Fatalf("%s: knob=%g: %v", c.Name(), knob, err)
		}
		if r <= 0 {
			t.Fatalf("%s: knob=%g: nonpositive ratio %g", c.Name(), knob, r)
		}
		if i > 0 && looserIsLarger && r < prev*0.85 {
			t.Errorf("%s: ratio dropped from %.2f to %.2f between knobs %g and %g", c.Name(), prev, r, knobs[i-1], knob)
		}
		prev = r
	}
}

// SizesMatch checks the compress.Sizer contract on one field: at every width
// in widths, compress.CompressedSizes(c, f, knobs, w) is len(c.Compress(f, k))
// knob for knob. When Compress rejects one of the knobs the whole list must
// fail instead, with a *compress.KnobError that names the first such knob and
// reads as Compress's error. c must implement compress.Sizer, so the check
// cannot pass through the generic adapter unnoticed.
func SizesMatch(t *testing.T, c compress.Compressor, f *grid.Field, knobs []float64, widths []int) {
	t.Helper()
	if _, ok := c.(compress.Sizer); !ok {
		t.Fatalf("%s does not implement compress.Sizer", c.Name())
	}
	want := make([]int, len(knobs))
	var wantErr error
	var badKnob float64
	for j, k := range knobs {
		blob, err := compress.WithWorkers(c, 1).Compress(f, k)
		if err != nil && wantErr == nil {
			wantErr, badKnob = err, k
		}
		want[j] = len(blob)
	}
	for _, w := range widths {
		got, err := compress.CompressedSizes(c, f, knobs, w)
		if wantErr != nil {
			var ke *compress.KnobError
			if !errors.As(err, &ke) || math.Float64bits(ke.Knob) != math.Float64bits(badKnob) || err.Error() != wantErr.Error() {
				t.Errorf("%s: %s %v width %d: err = %v (%#v), want knob %g failing with %q", c.Name(), f.Name, f.Dims, w, err, err, badKnob, wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %s %v width %d: %v", c.Name(), f.Name, f.Dims, w, err)
			continue
		}
		for j := range knobs {
			if got[j] != want[j] {
				t.Errorf("%s: %s %v width %d knob %g: size %d, len(Compress) %d", c.Name(), f.Name, f.Dims, w, knobs[j], got[j], want[j])
			}
		}
	}
}

// RejectsCorrupt verifies the decoder returns errors (never panics) on
// mutated streams and on garbage.
func RejectsCorrupt(t *testing.T, c compress.Compressor, knob float64) {
	t.Helper()
	f := TestFields()[0]
	blob, err := c.Compress(f, knob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(nil); err == nil {
		t.Errorf("%s: nil blob accepted", c.Name())
	}
	if _, err := c.Decompress([]byte{1, 2, 3}); err == nil {
		t.Errorf("%s: garbage accepted", c.Name())
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		mut := append([]byte(nil), blob...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic on corrupt stream: %v", c.Name(), r)
				}
			}()
			g, err := c.Decompress(mut)
			_ = g
			_ = err // either error or wrong data is fine; panic is not
		}()
	}
	// Truncations must error out, not panic.
	for cut := 0; cut < len(blob); cut += 1 + len(blob)/23 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic on truncated stream (len %d): %v", c.Name(), cut, r)
				}
			}()
			_, _ = c.Decompress(blob[:cut])
		}()
	}
}
