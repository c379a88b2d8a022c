package zfp

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/compress/compresstest"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
)

var (
	_ compress.Sizer = (*Compressor)(nil)
	_ compress.Sizer = (*FixedRate)(nil)
)

// sizeShapes cover ranks 1–4 (4D folds to 3D), sub-block fields, clipped
// edge blocks, and fields with enough blocks for the chunked walk to fan out.
var sizeShapes = [][]int{
	{1}, {3}, {67},
	{2, 3}, {9, 13}, {24, 24},
	{1, 1, 1}, {6, 7, 5}, {17, 19, 23},
	{2, 2, 2, 2}, {3, 6, 7, 5},
}

// sizeField fills a field with the given character: zfpParField's smooth,
// noisy and spiky, or all zero, constant, or hostile (NaN, ±Inf, ±0,
// denormals and float32 extremes next to ordinary values).
func sizeField(name string, shape []int, kind string) *grid.Field {
	if kind == "smooth" || kind == "noisy" || kind == "spiky" {
		f := zfpParField(shape, kind)
		f.Name = name
		return f
	}
	f := grid.MustNew(name, shape...)
	for i := range f.Data {
		switch kind {
		case "constant":
			f.Data[i] = -7.5
		case "hostile":
			f.Data[i] = []float32{
				float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
				float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -3 * math.SmallestNonzeroFloat32,
				math.MaxFloat32, float32(i) * 1e-3,
			}[i%8]
		}
	}
	return f
}

var sizeKinds = []string{"smooth", "noisy", "spiky", "zero", "constant", "hostile"}

// sizeTolerances spans the axis, 1e-12 to 1e6 in 40 steps, plus tolerances
// past both precision clamps: small enough that every block codes all 32
// planes, large enough that every block codes none.
func sizeTolerances() []float64 {
	var tols []float64
	for i := range 40 {
		tols = append(tols, math.Pow(10, -12+18*float64(i)/39))
	}
	return append(tols, math.SmallestNonzeroFloat64, 1e-300, 1e38, math.MaxFloat64)
}

// Both modes' sizes are len(Compress) on every shape and character, at every
// width, and a list with an invalid knob fails as Compress does.
func TestZFPCompressedSizesMatchCompress(t *testing.T) {
	widths := append([]int{1}, zfpParWidths()...)
	tols := sizeTolerances()
	rates := []float64{1e-3, 0.5, 1, 2.5, 8, 16, 31.9, 32, 63.99, 64}
	for _, shape := range sizeShapes {
		for _, kind := range sizeKinds {
			f := sizeField(kind, shape, kind)
			compresstest.SizesMatch(t, New(), f, tols, widths)
			compresstest.SizesMatch(t, NewFixedRate(), f, rates, widths)
		}
	}
	for _, n := range []int{255, 256, 300} { // the header keeps 255 bytes
		f := sizeField(strings.Repeat("n", n), []int{6, 7, 5}, "smooth")
		compresstest.SizesMatch(t, New(), f, tols, widths)
		compresstest.SizesMatch(t, NewFixedRate(), f, rates, widths)
	}
	f := sizeField("bad", []int{9, 13}, "smooth")
	for _, tols := range [][]float64{{0}, {1e-3, -1, 0}, {math.NaN()}, {1e-3, math.Inf(1)}} {
		compresstest.SizesMatch(t, New(), f, tols, widths)
	}
	for _, rates := range [][]float64{{0}, {8, -1, 0}, {64.0001}, {math.NaN()}, {8, math.Inf(1)}} {
		compresstest.SizesMatch(t, NewFixedRate(), f, rates, widths)
	}
	if sizes, err := New().CompressedSizes(f, nil); err != nil || len(sizes) != 0 {
		t.Errorf("no tolerances: sizes %v, err %v", sizes, err)
	}
}

// The size table is one pass whatever the knob count, and it is not a
// compressor run: it counts under zfp/size_tables.
func TestZFPSizeTableCounter(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Reset()
	if _, err := New().CompressedSizes(sizeField("c", []int{17, 19, 23}, "smooth"), sizeTolerances()); err != nil {
		t.Fatal(err)
	}
	got := obs.TakeSnapshot().Counters
	if got["zfp/size_tables"] != 1 || got["compressor_runs/zfp"] != 0 {
		t.Errorf("zfp/size_tables = %d, compressor_runs/zfp = %d; want 1 and 0", got["zfp/size_tables"], got["compressor_runs/zfp"])
	}
}

// planeBits' cumulative count after m planes is the bit count encodeInts
// returns and writes with an unbounded budget and maxprec m, for every m, on
// blocks of every size: all zero, one significant coefficient, small and
// full-range values, and the int32 extremes.
func TestPlaneBitsMatchEncodeInts(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for nd := 1; nd <= 3; nd++ {
		perm := perms[nd-1]
		size := len(perm)
		q := make([]int32, size)
		for trial := range 300 {
			for i := range q {
				switch trial % 5 {
				case 0:
					q[i] = 0
				case 1:
					q[i] = 0
					if i == trial/5%size {
						q[i] = rng.Int31() >> rng.Intn(31)
					}
				case 2:
					q[i] = int32(rng.Uint32()) >> (1 + rng.Intn(31))
				case 3:
					q[i] = int32(rng.Uint32())
				case 4:
					q[i] = []int32{math.MinInt32, math.MaxInt32, -1, 1, 0}[rng.Intn(5)]
				}
			}
			var p [32]uint64
			var cum [intPrec + 1]int
			gatherPlanes(q, perm, &p)
			planeBits(&p, size, &cum)
			for m := 0; m <= intPrec; m++ {
				var w entropy.BitWriter
				got := encodeInts(&w, unbounded, m, q, perm, &p)
				if got != cum[m] || w.BitLen() != cum[m] {
					t.Fatalf("nd=%d trial %d maxprec %d: encodeInts returned %d and wrote %d bits, planeBits counts %d", nd, trial, m, got, w.BitLen(), cum[m])
				}
			}
		}
	}
}
