package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// latticeClasses fill a field with the values the feature kernel must carry
// exactly as the generic pass does.
var latticeClasses = []struct {
	name string
	fill func(f *grid.Field, rng *rand.Rand)
}{
	{"smooth", func(f *grid.Field, rng *rand.Rand) {
		phase := rng.Float64()
		for i := range f.Data {
			f.Data[i] = float32(math.Sin(phase + float64(i)*0.013))
		}
	}},
	{"noise", func(f *grid.Field, rng *rand.Rand) {
		for i := range f.Data {
			f.Data[i] = float32(rng.NormFloat64()) * 100
		}
	}},
	// Magnitudes 2^-20 to 2^20 of both signs: a stencil sum reassociated
	// rounds differently.
	{"wide", func(f *grid.Field, rng *rand.Rand) {
		for i := range f.Data {
			f.Data[i] = float32(math.Ldexp(rng.Float64()-0.5, rng.Intn(41)-20))
		}
	}},
	// Signed zeros and subnormals around a few ordinary values.
	{"zeros-subnormal", func(f *grid.Field, rng *rand.Rand) {
		specials := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
			-math.SmallestNonzeroFloat32, 0x1p-140, -0x1p-130, 1e-38, 1}
		for i := range f.Data {
			f.Data[i] = specials[rng.Intn(len(specials))]
		}
	}},
	// Smooth data with a rare NaN or infinity, so some stencils see one.
	{"nan-inf", func(f *grid.Field, rng *rand.Rand) {
		specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
		for i := range f.Data {
			f.Data[i] = float32(math.Cos(float64(i) * 0.02))
			if rng.Intn(400) == 0 {
				f.Data[i] = specials[rng.Intn(len(specials))]
			}
		}
	}},
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFeatureLatticeMatchesSubsample pins the in-place lattice passes to
// ExtractFeatures, the generic featureRange over a grid.Subsample copy, bit
// for bit: ExtractFeaturesParallel (the rank-3 kernel, or the generic pass
// at other ranks) on the five adopted features at every width, the generic
// pass over the lattice in place on all eight, and the kernel against the
// generic pass sample by sample. Shapes cover ragged dims, dims under 7 (no
// MSD stencil fits), unit dims, ranks 1, 2 and 4, and a lattice over
// reductionChunk whose chunk boundaries fall mid-row.
func TestFeatureLatticeMatchesSubsample(t *testing.T) {
	type tc struct {
		shape   []int
		strides []int
	}
	small := []int{1, 2, 3, 4, 5}
	cases := []tc{
		{[]int{6, 6, 6}, small},
		{[]int{5, 7, 4}, small},
		{[]int{13, 10, 17}, small},
		{[]int{23, 29, 31}, small},
		{[]int{2, 30, 3}, small},
		{[]int{1, 1, 9}, small},
		{[]int{30, 1, 40}, small},
		{[]int{61}, small},
		{[]int{17, 19}, small},
		{[]int{9, 8, 7, 11}, small},
		// 35·33·37 = 42735 lattice samples: two chunks, split at row
		// offset 32768 mod 37 = 23.
		{[]int{35, 33, 37}, []int{1}},
		{[]int{69, 65, 73}, []int{2}},
	}
	widths := []int{1, 2, runtime.NumCPU()}
	rng := rand.New(rand.NewSource(29))
	for _, c := range cases {
		f := grid.MustNew("lattice", c.shape...)
		for _, class := range latticeClasses {
			class.fill(f, rng)
			for _, k := range c.strides {
				want := ExtractFeatures(f, k)
				if got := latticeOf(f, k).extract(1, true); !sameBits(got.FullVector(), want.FullVector()) {
					t.Fatalf("%v %s stride %d: generic pass in place\n got %+v\nwant %+v", c.shape, class.name, k, got, want)
				}
				if len(c.shape) == 3 && f.Size() < 1<<15 {
					samplewise(t, f, k)
				}
				for _, w := range widths {
					got := ExtractFeaturesParallel(f, k, w)
					if !sameBits(got.Vector(), want.Vector()) {
						t.Fatalf("%v %s stride %d width %d: ExtractFeaturesParallel\n got %+v\nwant %+v",
							c.shape, class.name, k, w, got, want)
					}
					if got.MeanGradient != 0 || got.MinGradient != 0 || got.MaxGradient != 0 {
						t.Fatalf("%v stride %d width %d: the hot path filled gradients %+v", c.shape, k, w, got)
					}
				}
			}
		}
	}
	if l := latticeOf(grid.MustNew("x", 69, 65, 73), 2); l.size() <= reductionChunk || reductionChunk%l.dims[2] == 0 {
		t.Fatalf("the chunked case must span chunks with a mid-row boundary: lattice %v", l.dims)
	}
}

// samplewise reduces every lattice sample of f on its own, through the
// kernel and through the generic pass, so each partial holds one sample's
// terms and a change of a single rounding in any stencil shows.
func samplewise(t *testing.T, f *grid.Field, stride int) {
	t.Helper()
	l := latticeOf(f, stride)
	for idx := range l.size() {
		got, want := featureRange3(l, idx, idx+1), featureRange(l, idx, idx+1, false)
		if !sameBits([]float64{got.sum, float64(got.mn), float64(got.mx), got.mnd, got.mld, got.msd},
			[]float64{want.sum, float64(want.mn), float64(want.mx), want.mnd, want.mld, want.msd}) ||
			got.mldCount != want.mldCount || got.msdCount != want.msdCount {
			t.Fatalf("%v stride %d, sample %d: kernel %+v, generic %+v", f.Dims, stride, idx, got, want)
		}
	}
}
