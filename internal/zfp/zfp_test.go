package zfp

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/compress/compresstest"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
)

func TestRoundTripRespectsTolerance(t *testing.T) {
	compresstest.RoundTrip(t, New(), []float64{1e-3, 1e-1, 1, 100},
		func(f *grid.Field, knob float64) float64 { return knob })
}

func TestRatioMonotone(t *testing.T) {
	compresstest.MonotoneRatio(t, New(), []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}, true)
}

func TestRejectsCorrupt(t *testing.T) {
	compresstest.RejectsCorrupt(t, New(), 1e-2)
}

func TestInvalidTolerance(t *testing.T) {
	f := grid.MustNew("t", 8)
	for _, tol := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := New().Compress(f, tol); err == nil {
			t.Errorf("tol=%v accepted", tol)
		}
	}
}

func TestStairwiseRatioCurve(t *testing.T) {
	// ZFP's hallmark: the ratio depends on the tolerance's exponent, so
	// tolerances within one octave produce identical streams.
	f := grid.MustNew("s", 32, 32, 32)
	for i := range f.Data {
		f.Data[i] = float32(math.Sin(float64(i) / 100))
	}
	c := New()
	r1, err := compress.CompressRatio(c, f, 0.010)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := compress.CompressRatio(c, f, 0.015) // same floor(log2)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("ratios differ within an octave: %v vs %v", r1, r2)
	}
	r3, err := compress.CompressRatio(c, f, 0.04) // two octaves up
	if err != nil {
		t.Fatal(err)
	}
	if r3 <= r1 {
		t.Errorf("ratio did not step up across octaves: %v vs %v", r3, r1)
	}
}

func TestLiftInverseNearExact(t *testing.T) {
	// The lifted transform loses at most a few low-order bits; verify
	// inv(fwd(x)) is within a tiny additive error of x.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 1000; trial++ {
		var p, q [4]int32
		for i := range p {
			p[i] = int32(rng.Intn(1<<28) - 1<<27)
			q[i] = p[i]
		}
		q[0], q[1], q[2], q[3] = fwdLift(q[0], q[1], q[2], q[3])
		q[0], q[1], q[2], q[3] = invLift(q[0], q[1], q[2], q[3])
		for i := range p {
			d := int64(p[i]) - int64(q[i])
			if d < -4 || d > 4 {
				t.Fatalf("lift round trip off by %d at %d: %v", d, i, p)
			}
		}
	}
}

func TestNegabinaryBijection(t *testing.T) {
	check := func(x int32) bool { return negabinaryToInt32(int32ToNegabinary(x)) == x }
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	for _, x := range []int32{0, 1, -1, math.MaxInt32, math.MinInt32} {
		if negabinaryToInt32(int32ToNegabinary(x)) != x {
			t.Errorf("negabinary round trip failed for %d", x)
		}
	}
}

func TestPermutationIsBijective(t *testing.T) {
	for nd := 1; nd <= 3; nd++ {
		perm := perms[nd-1]
		n := 1
		for i := 0; i < nd; i++ {
			n *= 4
		}
		if len(perm) != n {
			t.Fatalf("nd=%d: perm size %d, want %d", nd, len(perm), n)
		}
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("nd=%d: invalid perm %v", nd, perm)
			}
			seen[p] = true
		}
		// Low-sequency (DC) coefficient must come first.
		if perm[0] != 0 {
			t.Errorf("nd=%d: DC not first: %v", nd, perm[0])
		}
	}
}

func TestEncodeDecodeIntsMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		size := []int{4, 16, 64}[trial%3]
		data := make([]uint32, size)
		for i := range data {
			switch trial % 4 {
			case 0:
				data[i] = rng.Uint32()
			case 1:
				data[i] = rng.Uint32() >> 16 // small magnitudes
			case 2:
				data[i] = 0
			default:
				if i == 0 {
					data[i] = rng.Uint32()
				}
			}
		}
		maxprec := 1 + rng.Intn(32)
		for _, maxbits := range []int{unbounded, 30, 100, 1} {
			w := &entropy.BitWriter{}
			var planes [32]uint64
			q, perm := unordered(data)
			used := encodeInts(w, maxbits, maxprec, q, perm, &planes)
			if used > maxbits {
				t.Fatalf("encode used %d > budget %d", used, maxbits)
			}
			got := make([]uint32, size)
			r := entropy.NewBitReader(w.Bytes())
			dused := decodeInts(r, maxbits, maxprec, size, got)
			if dused != used {
				t.Fatalf("decode consumed %d bits, encode produced %d (maxbits=%d maxprec=%d)", dused, used, maxbits, maxprec)
			}
			// With an unbounded budget the planes >= kmin must match exactly.
			if maxbits == unbounded {
				kmin := 0
				if intPrec > maxprec {
					kmin = intPrec - maxprec
				}
				mask := uint32(0xFFFFFFFF) << uint(kmin)
				for i := range data {
					if data[i]&mask != got[i]&mask {
						t.Fatalf("plane mismatch at %d: %08x vs %08x (maxprec %d)", i, data[i]&mask, got[i]&mask, maxprec)
					}
				}
			}
		}
	}
}

func TestFixedRateExactBudget(t *testing.T) {
	f := grid.MustNew("r", 32, 32, 32)
	rng := rand.New(rand.NewSource(8))
	for i := range f.Data {
		f.Data[i] = rng.Float32()*2 - 1
	}
	c := NewFixedRate()
	for _, rate := range []float64{1, 2, 4, 8, 16} {
		blob, err := c.Compress(f, rate)
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		if g.Size() != f.Size() {
			t.Fatal("size mismatch")
		}
		ratio := compress.Ratio(f, blob)
		wantRatio := 32 / rate
		if ratio < wantRatio*0.85 || ratio > wantRatio*1.15 {
			t.Errorf("rate %g: ratio %.2f, want ~%.2f", rate, ratio, wantRatio)
		}
	}
}

func TestFixedRateQualityBelowFixedAccuracy(t *testing.T) {
	// The related-work observation: at matched ratios, fixed-rate ZFP has
	// clearly worse (or at best equal) accuracy than fixed-accuracy ZFP on
	// non-uniform data, because every block gets the same budget.
	f := grid.MustNew("mix", 32, 32, 32)
	for z := 0; z < 32; z++ {
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				v := math.Sin(float64(x) / 3)
				if z >= 16 {
					v = 0.001 * math.Sin(float64(x*y)/7) // near-constant half
				}
				f.Set(float32(v), z, y, x)
			}
		}
	}
	acc := New()
	blobA, err := acc.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	ratioA := compress.Ratio(f, blobA)
	// Fixed-rate at the same ratio.
	rate := 32 / ratioA
	fr := NewFixedRate()
	blobR, err := fr.Compress(f, rate)
	if err != nil {
		t.Fatal(err)
	}
	gA, _ := acc.Decompress(blobA)
	gR, err := fr.Decompress(blobR)
	if err != nil {
		t.Fatal(err)
	}
	errA, _ := compress.MaxAbsError(f, gA)
	errR, _ := compress.MaxAbsError(f, gR)
	if errR < errA {
		t.Errorf("fixed-rate error %g unexpectedly beat fixed-accuracy %g at matched ratio %.1f", errR, errA, ratioA)
	}
}

func Test4DFoldsTo3D(t *testing.T) {
	f := grid.MustNew("orbitals", 6, 5, 9, 7)
	rng := rand.New(rand.NewSource(10))
	for i := range f.Data {
		f.Data[i] = rng.Float32()
	}
	blob, err := New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New().Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Dims) != 4 || g.Dims[0] != 6 || g.Dims[3] != 7 {
		t.Fatalf("dims = %v", g.Dims)
	}
	maxErr, _ := compress.MaxAbsError(f, g)
	if maxErr > 1e-3 {
		t.Errorf("4D max error %g > 1e-3", maxErr)
	}
}

// raceEnabled is set by race_test.go: the race detector makes sync.Pool drop
// a random share of what it is handed, so pooled buffers stop being reused
// and allocation counts stop repeating.
var raceEnabled bool

// A block allocates nothing: at w = 1, Compress, Decompress and
// DecompressRegion make exactly as many allocations on a 64³ field (4096
// blocks) as on a 32³ one (512 blocks), in both modes. The collector is off
// while counting: a collection empties every sync.Pool, and a larger field
// would trigger more of them.
func TestZFPAllocsIndependentOfBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type counts struct{ compress, decompress, region float64 }
	measure := func(c compress.Compressor, knob float64, n int) counts {
		runtime.GC()
		f := regionTestField(t, n, n, n)
		blob, err := c.Compress(f, knob)
		if err != nil {
			t.Fatal(err)
		}
		index, err := BuildRegionIndex(blob)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := []int{n / 4, n / 4, n / 4}, []int{3 * n / 4, 3 * n / 4, 3 * n / 4}
		return counts{
			compress: testing.AllocsPerRun(10, func() {
				if _, err := c.Compress(f, knob); err != nil {
					t.Fatal(err)
				}
			}),
			decompress: testing.AllocsPerRun(10, func() {
				if _, err := c.Decompress(blob); err != nil {
					t.Fatal(err)
				}
			}),
			region: testing.AllocsPerRun(10, func() {
				if _, err := DecompressRegion(blob, index, lo, hi, 1); err != nil {
					t.Fatal(err)
				}
			}),
		}
	}
	for _, m := range []struct {
		c    compress.Compressor
		knob float64
	}{{&Compressor{Workers: 1}, 1e-3}, {&FixedRate{Workers: 1}, 8}} {
		small, large := measure(m.c, m.knob, 32), measure(m.c, m.knob, 64)
		if small != large {
			t.Errorf("%s: allocations per call on 32³ %+v, on 64³ %+v", m.c.Name(), small, large)
		}
	}
}
