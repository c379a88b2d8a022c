package sz

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/compress/compresstest"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/metrics"
)

func TestRoundTripRespectsBound(t *testing.T) {
	compresstest.RoundTrip(t, New(), []float64{1e-4, 1e-2, 0.5, 10},
		func(f *grid.Field, knob float64) float64 { return knob })
}

func TestRatioMonotoneInBound(t *testing.T) {
	compresstest.MonotoneRatio(t, New(), []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}, true)
}

func TestRejectsCorruptStreams(t *testing.T) {
	compresstest.RejectsCorrupt(t, New(), 1e-3)
}

func TestInvalidErrorBound(t *testing.T) {
	f := grid.MustNew("t", 8)
	c := New()
	for _, eb := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := c.Compress(f, eb); err == nil {
			t.Errorf("eb=%v accepted", eb)
		}
	}
}

func TestConstantFieldCompressesExtremely(t *testing.T) {
	f := grid.MustNew("const", 64, 64, 64)
	f.Fill(42)
	r, err := compress.CompressRatio(New(), f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// A constant field quantizes to a single repeated code; with the LZ
	// stage the ratio should be in the thousands.
	if r < 1000 {
		t.Errorf("constant field ratio = %.1f, want >= 1000", r)
	}
}

func TestSmoothFieldBeatsEntropyCeiling(t *testing.T) {
	// Pure symbol entropy coding of float32 tops out at 32×; the LZ stage
	// must push smooth fields past it at loose bounds.
	f := grid.MustNew("smooth", 48, 48, 48)
	for z := 0; z < 48; z++ {
		for y := 0; y < 48; y++ {
			for x := 0; x < 48; x++ {
				f.Set(float32(math.Sin(float64(z)/16)+math.Cos(float64(y)/16)+math.Sin(float64(x)/16)), z, y, x)
			}
		}
	}
	r, err := compress.CompressRatio(New(), f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r < 40 {
		t.Errorf("smooth field at loose bound: ratio = %.1f, want >= 40", r)
	}
}

func TestLorenzoPrediction2D(t *testing.T) {
	// On a bilinear ramp v = a + b·y + c·x the 2D Lorenzo predictor is exact
	// away from the borders.
	f := grid.MustNew("ramp", 8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			f.Set(float32(1+2*y+3*x), y, x)
		}
	}
	l := newLorenzo(f.Dims)
	data := f.Data
	for idx := 0; idx < f.Size(); idx++ {
		c := f.Coord(idx)
		pred := l.predict(data, idx, l.coord)
		if c[0] > 0 && c[1] > 0 {
			want := float64(f.Data[f.Index(c...)])
			if math.Abs(pred-want) > 1e-5 {
				t.Fatalf("Lorenzo at %v: pred %v, want %v", c, pred, want)
			}
		}
		l.advance()
	}
}

func TestLorenzoPrediction3DMatchesPaperFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := grid.MustNew("r", 5, 6, 7)
	for i := range f.Data {
		f.Data[i] = rng.Float32()
	}
	l := newLorenzo(f.Dims)
	d := func(z, y, x int) float64 { return float64(f.Data[f.Index(z, y, x)]) }
	for idx := 0; idx < f.Size(); idx++ {
		c := f.Coord(idx)
		pred := l.predict(f.Data, idx, l.coord)
		if c[0] > 0 && c[1] > 0 && c[2] > 0 {
			i, j, k := c[0], c[1], c[2]
			// Equation (2) of the paper.
			want := d(i-1, j, k) + d(i, j-1, k) + d(i, j, k-1) -
				d(i-1, j-1, k) - d(i-1, j, k-1) - d(i, j-1, k-1) +
				d(i-1, j-1, k-1)
			if math.Abs(pred-want) > 1e-6 {
				t.Fatalf("3D Lorenzo at %v: pred %v, want %v", c, pred, want)
			}
		}
		l.advance()
	}
}

func TestQuickRoundTripBound(t *testing.T) {
	c := New()
	check := func(seed int64, ebExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := grid.MustNew("q", 7, 9)
		for i := range f.Data {
			f.Data[i] = rng.Float32()*20 - 10
		}
		eb := math.Pow(10, -float64(ebExp%6)) // 1 .. 1e-5
		blob, err := c.Compress(f, eb)
		if err != nil {
			return false
		}
		g, err := c.Decompress(blob)
		if err != nil {
			return false
		}
		maxErr, _ := compress.MaxAbsError(f, g)
		return maxErr <= eb*(1+1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHeaderPreservesNameAndDims(t *testing.T) {
	f := grid.MustNew("nyx/baryon", 4, 5, 6)
	for i := range f.Data {
		f.Data[i] = float32(i)
	}
	blob, err := New().Compress(f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New().Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "nyx/baryon" {
		t.Errorf("name = %q", g.Name)
	}
}

func TestPSNRTargetedBound(t *testing.T) {
	// The quantizer's error is roughly uniform in [-eb, eb] (MSE = eb²/3), so
	// the bound that model gives for a target PSNR must land within a few dB
	// of it.
	f := grid.MustNew("p", 32, 32, 32)
	for z := 0; z < 32; z++ {
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				f.Set(float32(math.Sin(float64(z)/7)+math.Cos(float64(y)/9)+math.Sin(float64(x)/5)), z, y, x)
			}
		}
	}
	for _, target := range []float64{50, 70} {
		eb := f.ValueRange() * math.Pow(10, -target/20) * math.Sqrt(3)
		blob, err := New().Compress(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New().Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		psnr, err := metrics.PSNR(f, g)
		if err != nil {
			t.Fatal(err)
		}
		// SZ's effective error is below the bound (escape path, prediction
		// hits), so measured PSNR is at or above target; allow a few dB.
		if psnr < target-1 || psnr > target+12 {
			t.Errorf("target %v dB: measured %.1f dB", target, psnr)
		}
	}
}
