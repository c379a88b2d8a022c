package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
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

func fillUniform(data []float32, rng *rand.Rand) {
	for i := range data {
		data[i] = rng.Float32() * 10
	}
}

// caDataClasses fill a field with the value classes the exactness argument
// in DESIGN.md has to cover.
var caDataClasses = []struct {
	name string
	fill func(data []float32, rng *rand.Rand)
}{
	{"uniform", fillUniform},
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
	// Smooth ramps mixed with flat stretches, so both verdicts occur at λ 0.15.
	{"ramps-flats", func(data []float32, rng *rand.Rand) {
		for i := range data {
			data[i] = 1
			if rng.Intn(3) != 0 {
				data[i] = float32(rng.NormFloat64())
			}
		}
	}},
	// The knife edges of the parallel scan's threshold band. A mean of
	// exactly 0: one or a few integer plateaus whose mirror image ends the
	// field, so every order sums to 0 and the flat blocks sit on the zero
	// threshold.
	{"zero-mean", func(data []float32, rng *rand.Rand) {
		level := float32(1 + rng.Intn(3))
		n := len(data)
		for i := 0; i < n/2; i++ {
			if rng.Intn(n/4+1) == 0 {
				level = float32(rng.Intn(7) - 3)
			}
			data[i], data[n-1-i] = level, -level
		}
		if n%2 == 1 {
			data[n/2] = 0
		}
	}},
	// A mean of exactly 1 from pairs 1 ± a, a held over long stretches: most
	// block ranges are 0, 0.5 or 2, and at λ 0.5 and 2 some equal the
	// threshold.
	{"range-at-threshold", func(data []float32, rng *rand.Rand) {
		a := float32(0.25)
		for i := 0; i+1 < len(data); i += 2 {
			if rng.Intn(len(data)/16+1) == 0 {
				a = []float32{0, 0.25, 1}[rng.Intn(3)]
			}
			data[i], data[i+1] = 1-a, 1+a
		}
		if len(data)%2 == 1 {
			data[len(data)-1] = 1
		}
	}},
	// Magnitudes 2^-30 to 2^30 of both signs: slab sums and the serial sum
	// round differently.
	{"rounding", func(data []float32, rng *rand.Rand) {
		for i := range data {
			data[i] = float32(math.Ldexp(rng.Float64()-0.4, rng.Intn(61)-30))
		}
	}},
	// ±2^60 at the two ends around ones: the serial sum loses every one and
	// is exactly 0, while a slab of ones sums them exactly, so a parallel
	// scan's sum is not 0. Only a Mean pass gets the zero threshold that
	// makes the flat blocks non-constant.
	{"cancelling", func(data []float32, _ *rand.Rand) {
		for i := range data {
			data[i] = 1
		}
		data[0] += 0x1p60
		data[len(data)-1] -= 0x1p60
	}},
	// One NaN, one +Inf, or a +Inf and a -Inf, anywhere in the field, so a
	// non-finite sum shows up in any slab.
	{"nan-one", func(data []float32, rng *rand.Rand) {
		fillUniform(data, rng)
		data[rng.Intn(len(data))] = float32(math.NaN())
	}},
	{"inf-one", func(data []float32, rng *rand.Rand) {
		fillUniform(data, rng)
		data[rng.Intn(len(data))] = float32(math.Inf(1))
	}},
	{"inf-both", func(data []float32, rng *rand.Rand) {
		fillUniform(data, rng)
		data[rng.Intn(len(data))] = float32(math.Inf(1))
		data[rng.Intn(len(data))] = float32(math.Inf(-1))
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

// TestCAKnifeEdgeFallback checks where the parallel scan pays for a Mean
// pass. On the knife-edge classes some block range falls inside the threshold
// band, so ca/exact_mean_fallback fires, and on "cancelling" R depends on
// the Mean pass. On smooth and noisy data, and on a field whose slab sums
// merely round differently from the serial sum, it does not fire. R is the
// serial value throughout.
func TestCAKnifeEdgeFallback(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	smooth := func(data []float32, _ *rand.Rand) { copy(data, waveField("wave", 24, 5).Data) }
	rng := rand.New(rand.NewSource(17))
	f := grid.MustNew("ca", 24, 24, 24)
	const workers = 2
	roundedApart := false
	for _, c := range []struct {
		name   string
		fill   func([]float32, *rand.Rand)
		lambda float64
		fires  bool
	}{
		{"zero-mean", caClass("zero-mean"), DefaultLambda, true},
		{"range-at-threshold", caClass("range-at-threshold"), 0.5, true},
		{"range-at-threshold", caClass("range-at-threshold"), 2, true},
		{"range-at-threshold", caClass("range-at-threshold"), DefaultLambda, false},
		{"cancelling", caClass("cancelling"), DefaultLambda, true},
		{"smooth", smooth, DefaultLambda, false},
		{"uniform", caClass("uniform"), DefaultLambda, false},
		{"mixed-sign", caClass("mixed-sign"), DefaultLambda, false},
		{"negative", caClass("negative"), DefaultLambda, false},
		{"rounding", caClass("rounding"), DefaultLambda, false},
		{"nan-one", caClass("nan-one"), DefaultLambda, false},
		{"inf-both", caClass("inf-both"), DefaultLambda, false},
	} {
		c.fill(f.Data, rng)
		before := obs.TakeSnapshot().Counters["ca/exact_mean_fallback"]
		got := NonConstantRatioParallel(f, DefaultBlockSide, c.lambda, workers)
		fired := obs.TakeSnapshot().Counters["ca/exact_mean_fallback"] - before
		if want := nonConstantRatioOracle(f, DefaultBlockSide, c.lambda); got != want {
			t.Errorf("%s λ %g: R = %v, oracle %v", c.name, c.lambda, got, want)
		}
		if (fired > 0) != c.fires {
			t.Errorf("%s λ %g: exact_mean_fallback counted %d, want it to fire: %v", c.name, c.lambda, fired, c.fires)
		}
		if c.name == "rounding" {
			roundedApart = slabSum(f, DefaultBlockSide, workers) != serialSum(f.Data)
		}
	}
	if !roundedApart {
		t.Error("the rounding class summed to the serial bits: the band went unexercised")
	}
}

// The width-1 scan adds the samples in Mean's order, on every shape and block
// side, so its threshold needs no band.
func TestCAScanSumIsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][]int{{64}, {9, 7}, {16, 17}, {7, 9, 5}, {33, 21, 17}, {9, 5, 6, 7}} {
		f := grid.MustNew("sum", shape...)
		caClass("rounding")(f.Data, rng)
		for _, side := range []int{1, 2, 3, 4, 5} {
			s, total := newCAScan(f, side)
			s.ranges = make([]keyRange, total)
			if got, want := s.scan(0, s.lead[0]), serialSum(f.Data); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("shape %v side %d: scan sum %v, serial %v", shape, side, got, want)
			}
		}
	}
}

// TestThresholdBandBracketsSerialSum holds thresholdBand to its promise: for
// samples added in slab order, the threshold of the serial sum lies inside
// the band, on data built to make the two orders round apart.
func TestThresholdBandBracketsSerialSum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := grid.MustNew("band", 20, 9, 13)
	apart := 0
	for trial := range 300 {
		switch trial % 3 {
		case 0:
			caClass("rounding")(f.Data, rng)
		case 1: // a few huge terms that cancel, over small ones
			for i := range f.Data {
				f.Data[i] = rng.Float32()
				if rng.Intn(50) == 0 {
					f.Data[i] = float32(math.Ldexp(float64(rng.Intn(3)-1), 60))
				}
			}
		default:
			fillUniform(f.Data, rng)
		}
		n := float64(f.Size())
		mn, mx := f.Range()
		maxAbs := max(math.Abs(mn), math.Abs(mx))
		serial := serialSum(f.Data)
		for _, workers := range []int{2, 3, 5} {
			sum := slabSum(f, DefaultBlockSide, workers)
			if sum != serial {
				apart++
			}
			for _, lambda := range []float64{0.001, DefaultLambda, 1} {
				want := lambda * math.Abs(f.Mean())
				if lo, hi := thresholdBand(sum, n, maxAbs, lambda); !(lo <= want && want <= hi) {
					t.Fatalf("trial %d workers %d λ %g: serial threshold %v outside [%v, %v]", trial, workers, lambda, want, lo, hi)
				}
			}
		}
	}
	if apart == 0 {
		t.Error("no slab sum rounded apart from the serial sum: the band went unexercised")
	}
}

func caClass(name string) func([]float32, *rand.Rand) {
	for _, c := range caDataClasses {
		if c.name == name {
			return c.fill
		}
	}
	panic("no data class " + name)
}

// serialSum adds the samples in index order, as grid.Field.Mean does.
func serialSum(data []float32) float64 {
	var sum float64
	for _, v := range data {
		sum += float64(v)
	}
	return sum
}

// slabSum adds f's samples the way a parallel scan at this width does: one
// chain per slab of block rows, the chains added in slab order.
func slabSum(f *grid.Field, side, workers int) float64 {
	d0 := f.Dims[0]
	nb0 := (d0 + side - 1) / side
	slabs := min(nb0, caSlabsPerWorker*workers)
	row := f.Size() / d0
	var sum float64
	for i := range slabs {
		z0, z1 := i*nb0/slabs*side, min((i+1)*nb0/slabs*side, d0)
		var part float64
		for _, v := range f.Data[z0*row : z1*row] {
			part += float64(v)
		}
		sum += part
	}
	return sum
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
