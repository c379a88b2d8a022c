package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// nonConstantRatioOracle is the scan as it was before the streaming pass,
// kept as the reference the new path is compared against (and the
// BenchmarkKernelCAScan baseline): a separate grid.Field.Mean pass for the
// threshold, then one coordinate-odometer walk per block with float
// compares. Do not optimise it.
func nonConstantRatioOracle(f *grid.Field, side int, lambda float64) float64 {
	threshold := lambda * math.Abs(f.Mean())
	nd := f.NDims()
	nblocks := make([]int, nd)
	total := 1
	for i, d := range f.Dims {
		nblocks[i] = (d + side - 1) / side
		total *= nblocks[i]
	}
	strides := f.Strides()
	bcoord := make([]int, nd)
	shape := make([]int, nd)
	coord := make([]int, nd)
	nonConst := 0
	for bi := 0; bi < total; bi++ {
		// Decompose the linear block index (row-major, last dim fastest).
		rem := bi
		for d := nd - 1; d >= 0; d-- {
			bcoord[d] = rem % nblocks[d]
			rem /= nblocks[d]
		}
		base := 0
		for d := 0; d < nd; d++ {
			origin := bcoord[d] * side
			shape[d] = min(side, f.Dims[d]-origin)
			base += origin * strides[d]
			coord[d] = 0
		}
		mn, mx := blockRangeOdometer(f.Data, base, shape, strides, coord)
		if float64(mx-mn) >= threshold {
			nonConst++
		}
	}
	if nonConst == 0 {
		return 1 / float64(total)
	}
	return float64(nonConst) / float64(total)
}

// blockRangeOdometer computes the value range of a (possibly clipped) block
// via a coordinate odometer. coord is caller scratch, already zeroed.
func blockRangeOdometer(data []float32, base int, shape, strides, coord []int) (mn, mx float32) {
	nd := len(shape)
	mn = data[base]
	mx = mn
	for {
		lin := base
		for d := 0; d < nd; d++ {
			lin += coord[d] * strides[d]
		}
		v := data[lin]
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		d := nd - 1
		for d >= 0 {
			coord[d]++
			if coord[d] < shape[d] {
				break
			}
			coord[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
	return mn, mx
}

// caDataClasses fill a field with the value classes the exactness argument
// in DESIGN.md has to cover.
var caDataClasses = []struct {
	name string
	fill func(data []float32, rng *rand.Rand)
}{
	{"uniform", func(data []float32, rng *rand.Rand) {
		for i := range data {
			data[i] = rng.Float32() * 10
		}
	}},
	{"mixed-sign", func(data []float32, rng *rand.Rand) {
		for i := range data {
			data[i] = float32(rng.NormFloat64()) * 3
			if i%3 == 0 {
				data[i] = -rng.Float32() * 1e-3
			}
		}
	}},
	{"negative", func(data []float32, rng *rand.Rand) {
		for i := range data {
			data[i] = -1 - rng.Float32()*100
		}
	}},
	{"nan", func(data []float32, rng *rand.Rand) {
		for i := range data {
			data[i] = rng.Float32() * 10
			if i%97 == 0 {
				data[i] = float32(math.NaN())
			}
		}
	}},
	// Signed zeros everywhere, an infinity now and then. Seeds differ in
	// whether both signs of infinity occur (NaN sum) or only one (±Inf sum).
	{"zeros-inf", func(data []float32, rng *rand.Rand) {
		negZero := float32(math.Copysign(0, -1))
		oneSign := rng.Intn(2) == 0
		for i := range data {
			switch rng.Intn(4) {
			case 0:
				data[i] = negZero
			case 1:
				data[i] = 0
			default:
				data[i] = float32(rng.NormFloat64())
			}
			if rng.Intn(41) == 0 {
				sign := 1
				if !oneSign && rng.Intn(2) == 0 {
					sign = -1
				}
				data[i] = float32(math.Inf(sign))
			}
		}
	}},
	{"zeros", func(data []float32, rng *rand.Rand) {
		negZero := float32(math.Copysign(0, -1))
		for i := range data {
			data[i] = 0
			if rng.Intn(2) == 0 {
				data[i] = negZero
			}
		}
	}},
	{"plateaus", func(data []float32, rng *rand.Rand) {
		level := float32(1)
		for i := range data {
			if rng.Intn(23) == 0 {
				level = float32(rng.Intn(5)) - 1.5
			}
			data[i] = level
		}
	}},
}

// TestCAStreamMatchesOdometer pins the streaming scan to the per-block
// oracle: the returned R must be the same float64 on every shape class
// (block-aligned, ragged, unit dims, side larger than a dim, ranks 1–4),
// block side, λ, data class and worker count.
func TestCAStreamMatchesOdometer(t *testing.T) {
	shapes := [][]int{
		{1}, {5}, {64},
		{1, 9}, {9, 7}, {16, 17},
		{4, 4, 4}, {7, 9, 5}, {1, 4, 13}, {33, 21, 17},
		{3, 4, 5, 6}, {9, 5, 6, 7},
	}
	rng := rand.New(rand.NewSource(13))
	for _, shape := range shapes {
		f := grid.MustNew("ca", shape...)
		for _, class := range caDataClasses {
			class.fill(f.Data, rng)
			for _, side := range []int{2, 4, 5} {
				for _, lambda := range []float64{0.001, 0.15, 0.5, 2} {
					want := nonConstantRatioOracle(f, side, lambda)
					for _, workers := range []int{1, 2, 5} {
						got := NonConstantRatioParallel(f, side, lambda, workers)
						if got != want {
							t.Fatalf("shape %v %s side %d λ %g workers %d: R = %v, oracle %v",
								shape, class.name, side, lambda, workers, got, want)
						}
					}
				}
			}
		}
	}
}

// The order keys must sort every non-NaN float32 like the floats themselves
// (−0 under +0 is the one strict refinement) and invert exactly.
func TestOrderKey(t *testing.T) {
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	ascending := []float32{-inf, -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32,
		negZero, 0, math.SmallestNonzeroFloat32, 1, math.MaxFloat32, inf}
	for i, v := range ascending {
		if back := keyValue(orderKey(v)); math.Float32bits(back) != math.Float32bits(v) {
			t.Errorf("keyValue(orderKey(%v)) = %v", v, back)
		}
		if i > 0 && orderKey(ascending[i-1]) >= orderKey(v) {
			t.Errorf("orderKey(%v) >= orderKey(%v)", ascending[i-1], v)
		}
	}
}

// raceEnabled is set by race_test.go: the race detector makes sync.Pool drop
// a random share of what it is handed, so pooled buffers stop being reused
// and allocation counts stop repeating.
var raceEnabled bool

// One scan may allocate a constant number of objects — none per block or per
// row: the range array comes from caRanges and the odometer lives on the
// stack. What is left is the scan state and the mean the parallel branch's
// closure captures, plus pool.Run's goroutines at workers > 1.
func TestCAScanAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	allocs := func(workers int, dims ...int) float64 {
		f := grid.MustNew("ca", dims...)
		caDataClasses[0].fill(f.Data, rng)
		return testing.AllocsPerRun(20, func() {
			NonConstantRatioParallel(f, DefaultBlockSide, DefaultLambda, workers)
		})
	}
	if a := allocs(1, 80, 66, 17); a > 2 {
		t.Errorf("serial scan of 80x66x17: %v allocs/run, want <= 2", a)
	}
	small, large := allocs(2, 8, 33, 17), allocs(2, 80, 66, 17)
	if large > small {
		t.Errorf("parallel scan: %v allocs/run on 80x66x17, %v on 8x33x17", large, small)
	}
}
