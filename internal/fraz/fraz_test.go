package fraz

import (
	"math"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/sz"
)

// analytic compressor with ratio = 50·eb^0.4 for fast, exact search tests.
type analytic struct{ runs int }

func (a *analytic) Name() string { return "analytic" }
func (a *analytic) Axis() compress.Axis {
	return compress.Axis{Kind: compress.AbsErrorBound, Min: 1e-9, Max: 10}
}
func (a *analytic) Compress(f *grid.Field, knob float64) ([]byte, error) {
	a.runs++
	ratio := 50 * math.Pow(knob, 0.4)
	n := int(float64(f.Bytes()) / ratio)
	if n < 1 {
		n = 1
	}
	return make([]byte, n), nil
}
func (a *analytic) Decompress([]byte) (*grid.Field, error) { return nil, nil }

func testField() *grid.Field {
	f := grid.MustNew("t", 24, 24)
	for y := 0; y < 24; y++ {
		for x := 0; x < 24; x++ {
			f.Set(float32(math.Sin(float64(x+y)/5)), y, x)
		}
	}
	return f
}

func TestSearchConvergesOnAnalyticLaw(t *testing.T) {
	c := &analytic{}
	f := testField()
	for _, tcr := range []float64{5, 15, 30} {
		res, err := Search(c, f, tcr, 15)
		if err != nil {
			t.Fatalf("tcr=%v: %v", tcr, err)
		}
		relErr := math.Abs(res.AchievedRatio-tcr) / tcr
		if relErr > 0.05 {
			t.Errorf("tcr=%v: achieved %v (err %.1f%%)", tcr, res.AchievedRatio, relErr*100)
		}
	}
}

func TestMoreIterationsImproveAccuracy(t *testing.T) {
	f := testField()
	errAt := func(iters int) float64 {
		c := &analytic{}
		var total float64
		// Both counts run under the same 1% early stop, so the iteration
		// count is the only difference.
		for _, tcr := range []float64{4, 9, 17, 26, 33} {
			res, err := Search(c, f, tcr, iters)
			if err != nil {
				t.Fatal(err)
			}
			total += math.Abs(res.AchievedRatio-tcr) / tcr
		}
		return total / 5
	}
	e2, e15 := errAt(2), errAt(15)
	if e15 >= e2 {
		t.Errorf("15 iterations (%.4f) not better than 2 (%.4f)", e15, e2)
	}
}

func TestRunCountBounded(t *testing.T) {
	c := &analytic{}
	f := testField()
	// The range tops out near ratio 38, so no probe comes within tolerance
	// of 100 and the search never stops early.
	res, err := Search(c, f, 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompressorRuns != bins*6 {
		t.Errorf("runs = %d, want %d", res.CompressorRuns, bins*6)
	}
	if res.SearchTime <= 0 {
		t.Error("search time not measured")
	}
}

func TestEarlyStopSavesRuns(t *testing.T) {
	c := &analytic{}
	f := testField()
	res, err := Search(c, f, 12, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompressorRuns >= bins*15 {
		t.Errorf("early stop did not trigger: %d runs", res.CompressorRuns)
	}
}

func TestInvalidTarget(t *testing.T) {
	c := &analytic{}
	f := testField()
	for _, tcr := range []float64{0, -3, math.Inf(1), math.NaN()} {
		if _, err := Search(c, f, tcr, 6); err == nil {
			t.Errorf("target %v accepted", tcr)
		}
	}
}

func TestSearchOnRealSZ(t *testing.T) {
	// End-to-end with the real SZ codec on a smooth field.
	f := grid.MustNew("s", 24, 24, 24)
	for z := 0; z < 24; z++ {
		for y := 0; y < 24; y++ {
			for x := 0; x < 24; x++ {
				f.Set(float32(math.Sin(float64(z+y)/8)*math.Cos(float64(x)/8)), z, y, x)
			}
		}
	}
	res, err := Search(sz.New(), f, 15, 15)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(res.AchievedRatio-15) / 15
	if relErr > 0.5 {
		t.Errorf("SZ search achieved %v for target 15 (err %.0f%%)", res.AchievedRatio, relErr*100)
	}
	if res.CompressorRuns < 3 {
		t.Errorf("suspiciously few compressor runs: %d", res.CompressorRuns)
	}
}

func TestPrecisionAxisSearch(t *testing.T) {
	// A compressor whose knob is a precision (lower precision → higher
	// ratio), like FPZIP.
	c := &precisionCompressor{}
	f := testField()
	res, err := Search(c, f, 4, 15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AchievedRatio-4)/4 > 0.3 {
		t.Errorf("achieved %v for target 4", res.AchievedRatio)
	}
}

type precisionCompressor struct{}

func (p *precisionCompressor) Name() string { return "prec" }
func (p *precisionCompressor) Axis() compress.Axis {
	return compress.Axis{Kind: compress.Precision, Min: 2, Max: 32}
}
func (p *precisionCompressor) Compress(f *grid.Field, knob float64) ([]byte, error) {
	ratio := 32 / knob // precision p stores p of 32 bits
	n := int(float64(f.Bytes()) / ratio)
	if n < 1 {
		n = 1
	}
	return make([]byte, n), nil
}
func (p *precisionCompressor) Decompress([]byte) (*grid.Field, error) { return nil, nil }
