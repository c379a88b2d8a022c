package sz

import (
	"math"
	"strings"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/compress/compresstest"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
)

var _ compress.Sizer = (*Compressor)(nil)

// sizeField is parField under another name, or, for kind "denormal", a field
// of float32 subnormals with NaN and ±0 mixed in.
func sizeField(name string, shape []int, kind string) *grid.Field {
	if kind != "denormal" {
		f := parField(shape, kind)
		f.Name = name
		return f
	}
	f := grid.MustNew(name, shape...)
	for i := range f.Data {
		switch i % 5 {
		case 0:
			f.Data[i] = float32(math.NaN())
		case 1:
			f.Data[i] = float32(math.Copysign(0, -1))
		default:
			f.Data[i] = float32(i%11) * math.SmallestNonzeroFloat32
		}
	}
	return f
}

// Sizes are len(Compress) at every width: on small fields of ranks 1–4 over
// the whole bound axis and past it, on multi-slab fields (the chunked entropy
// container, each with a short last slab) and the one-slab control, for
// smooth, noisy, constant and all-zero data, escape storms (every point
// escapes, or NaN/±Inf/huge values every few points) and subnormals; under
// names of 255 bytes and more; and a list holding an invalid bound fails as
// Compress does.
func TestSZCompressedSizesMatchCompress(t *testing.T) {
	widths := append([]int{1}, parWidths()...)
	kinds := []string{"smooth", "noisy", "escape", "inf", "constant", "zero", "denormal"}
	small := [][]int{{1}, {37}, {2, 2}, {9, 13}, {1, 1, 1}, {6, 7, 5}, {2, 2, 2, 2}, {3, 4, 5, 6}}
	ebs := []float64{math.SmallestNonzeroFloat64, 1e-30, 1e-6, 1e-3, 0.1, 1, 1e3, 1e30, math.MaxFloat64}
	for _, shape := range small {
		for _, kind := range kinds {
			compresstest.SizesMatch(t, New(), sizeField(kind, shape, kind), ebs, widths)
		}
	}
	for _, shape := range append([][]int{parControl}, parShapes...) {
		for _, kind := range []string{"smooth", "escape", "inf", "constant"} {
			compresstest.SizesMatch(t, New(), sizeField(kind, shape, kind), []float64{1e-6, 1e-3, 1}, widths)
		}
	}
	for _, n := range []int{255, 256, 300} { // the header keeps 255 bytes
		compresstest.SizesMatch(t, New(), sizeField(strings.Repeat("n", n), []int{6, 7, 5}, "smooth"), ebs, widths)
	}
	f := sizeField("bad", []int{9, 13}, "smooth")
	for _, ebs := range [][]float64{{0}, {1e-3, -1, 0}, {math.NaN()}, {1e-3, math.Inf(1)}} {
		compresstest.SizesMatch(t, New(), f, ebs, widths)
	}
}

// The size path stops before Huffman emission but still quantizes and runs
// LZ once per bound, so each bound counts as one compressor run.
func TestSZSizesCountCompressorRuns(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Reset()
	ebs := []float64{1e-4, 1e-3, 1e-2}
	if _, err := New().CompressedSizes(sizeField("c", []int{6, 7, 5}, "smooth"), ebs); err != nil {
		t.Fatal(err)
	}
	if got := obs.TakeSnapshot().Counters["compressor_runs/sz"]; got != int64(len(ebs)) {
		t.Errorf("compressor_runs/sz = %d, want %d", got, len(ebs))
	}
}
