package core

import (
	"math"
	"sync"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/sz"
	"github.com/fxrz-go/fxrz/internal/zfp"
)

func rampField(name string, n int) *grid.Field {
	f := grid.MustNew(name, n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			f.Set(float32(2*y+3*x), y, x)
		}
	}
	return f
}

func waveField(name string, n int, freq float64) *grid.Field {
	f := grid.MustNew(name, n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				f.Set(float32(math.Sin(freq*float64(z+2*y+3*x)/float64(n))), z, y, x)
			}
		}
	}
	return f
}

func TestFeaturesOnKnownFields(t *testing.T) {
	// Constant field: everything zero except the mean.
	c := grid.MustNew("const", 8, 8)
	c.Fill(5)
	ft := ExtractFeatures(c, 1)
	if ft.ValueRange != 0 || ft.MND != 0 || ft.MLD != 0 || ft.MSD != 0 {
		t.Errorf("constant field features not zero: %+v", ft)
	}
	if ft.MeanValue != 5 {
		t.Errorf("mean = %v", ft.MeanValue)
	}

	// Bilinear ramp: Lorenzo is exact (MLD ~ 0 up to float32 rounding), but
	// the gradient is not zero.
	r := rampField("ramp", 12)
	fr := ExtractFeatures(r, 1)
	if fr.MLD > 1e-4 {
		t.Errorf("ramp MLD = %v, want ~0 (Lorenzo exact on bilinear data)", fr.MLD)
	}
	if fr.MeanGradient == 0 {
		t.Error("ramp MeanGradient should be positive")
	}
	if fr.ValueRange != float64(2*11+3*11) {
		t.Errorf("ramp ValueRange = %v", fr.ValueRange)
	}
}

func TestFeaturesOrderSmoothVsRough(t *testing.T) {
	smoothF := waveField("smooth", 16, 2)
	roughF := waveField("rough", 16, 40)
	fs := ExtractFeatures(smoothF, 1)
	fr := ExtractFeatures(roughF, 1)
	if fs.MND >= fr.MND {
		t.Errorf("MND: smooth %v should be < rough %v", fs.MND, fr.MND)
	}
	if fs.MLD >= fr.MLD {
		t.Errorf("MLD: smooth %v should be < rough %v", fs.MLD, fr.MLD)
	}
	if fs.MSD >= fr.MSD {
		t.Errorf("MSD: smooth %v should be < rough %v", fs.MSD, fr.MSD)
	}
}

func TestStrideSamplingApproximatesFullFeatures(t *testing.T) {
	f := waveField("w", 32, 3)
	full := ExtractFeatures(f, 1)
	sampled := ExtractFeatures(f, 4)
	// Range and mean must be close; smoothness features shift with the
	// coarser grid but must stay the same order of magnitude.
	if math.Abs(full.MeanValue-sampled.MeanValue) > 0.1*math.Max(1, math.Abs(full.MeanValue)) {
		t.Errorf("mean: full %v vs sampled %v", full.MeanValue, sampled.MeanValue)
	}
	if sampled.ValueRange < 0.8*full.ValueRange || sampled.ValueRange > full.ValueRange*1.001 {
		t.Errorf("range: full %v vs sampled %v", full.ValueRange, sampled.ValueRange)
	}
	if sampled.MND == 0 || sampled.MND > 100*full.MND {
		t.Errorf("MND order: full %v vs sampled %v", full.MND, sampled.MND)
	}
}

func TestFeatureVectorShapes(t *testing.T) {
	ft := ExtractFeatures(rampField("r", 8), 1)
	if len(ft.Vector()) != 5 {
		t.Errorf("Vector len %d", len(ft.Vector()))
	}
	if len(ft.FullVector()) != 8 {
		t.Errorf("FullVector len %d", len(ft.FullVector()))
	}
	if len(FeatureNames) != 8 {
		t.Errorf("FeatureNames len %d", len(FeatureNames))
	}
}

// fakeCompressor has an analytic knob→ratio law for fast curve tests:
// ratio = scale * eb^0.5.
type fakeCompressor struct{ scale float64 }

func (f *fakeCompressor) Name() string { return "fake" }
func (f *fakeCompressor) Axis() compress.Axis {
	return compress.Axis{Kind: compress.AbsErrorBound, Min: 1e-9, Max: 10}
}
func (f *fakeCompressor) Compress(fl *grid.Field, knob float64) ([]byte, error) {
	ratio := f.scale * math.Sqrt(knob)
	n := int(float64(fl.Bytes()) / ratio)
	if n < 1 {
		n = 1
	}
	return make([]byte, n), nil
}
func (f *fakeCompressor) Decompress([]byte) (*grid.Field, error) {
	return nil, nil
}

func TestCurveInvertsAnalyticLaw(t *testing.T) {
	fc := &fakeCompressor{scale: 100}
	// A value range of 4 sweeps knobs 4e-6 … 1, ratios 0.2 … 100.
	f := grid.MustNew("t", 32, 32)
	f.Data[0] = 4
	curves, err := Sweep(fc, []*grid.Field{f}, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	curve := curves[0]
	// ratio(eb) = 100·√eb, so eb(ratio) = (ratio/100)².
	for _, ratio := range []float64{1, 5, 20, 50, 90} {
		knob, ok := curve.KnobForRatio(ratio)
		if !ok {
			t.Fatalf("ratio %v outside curve range", ratio)
		}
		want := math.Pow(ratio/100, 2)
		if math.Abs(knob-want)/want > 0.25 {
			t.Errorf("KnobForRatio(%v) = %v, want ~%v", ratio, knob, want)
		}
	}
}

func TestCurveMonotoneAfterCleanup(t *testing.T) {
	axis := compress.Axis{Kind: compress.AbsErrorBound, Min: 1e-9, Max: 10}
	pts := []Stationary{
		{Knob: 1e-4, Ratio: 5},
		{Knob: 1e-3, Ratio: 9},
		{Knob: 1e-2, Ratio: 8.5}, // dip that must be cleaned
		{Knob: 1e-1, Ratio: 20},
	}
	c, err := NewCurve(axis, pts)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for _, p := range c.Points() {
		if p.Ratio <= prev {
			t.Fatalf("points not strictly increasing: %v", c.Points())
		}
		prev = p.Ratio
	}
}

func TestCurveClampsOutOfRange(t *testing.T) {
	axis := compress.Axis{Kind: compress.AbsErrorBound, Min: 1e-9, Max: 10}
	c, err := NewCurve(axis, []Stationary{{1e-3, 10}, {1e-1, 100}})
	if err != nil {
		t.Fatal(err)
	}
	if k, ok := c.KnobForRatio(1000); ok || k != 1e-1 {
		t.Errorf("above range: (%v, %v)", k, ok)
	}
	if k, ok := c.KnobForRatio(1); ok || k != 1e-3 {
		t.Errorf("below range: (%v, %v)", k, ok)
	}
}

func TestCurveErrors(t *testing.T) {
	axis := compress.Axis{Kind: compress.AbsErrorBound, Min: 1e-9, Max: 10}
	if _, err := NewCurve(axis, []Stationary{{1e-3, 10}}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := NewCurve(axis, []Stationary{{1e-3, 10}, {1e-2, 10}}); err == nil {
		t.Error("flat curve accepted (collapses to one point)")
	}
}

func TestNonConstantRatio(t *testing.T) {
	// Left half constant 10, right half noisy around 10.
	f := grid.MustNew("half", 16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			v := float32(10)
			if x >= 8 {
				v += float32(3 * math.Sin(float64(y*16+x)))
			}
			f.Set(v, y, x)
		}
	}
	r := NonConstantRatioParallel(f, 4, 0.15, 1)
	if r < 0.4 || r > 0.6 {
		t.Errorf("R = %v, want ~0.5 (half the blocks constant)", r)
	}

	con := grid.MustNew("const", 16, 16)
	con.Fill(3)
	rc := NonConstantRatioParallel(con, 4, 0.15, 1)
	if rc > 0.1 {
		t.Errorf("constant field R = %v, want near 0", rc)
	}
	if rc <= 0 {
		t.Errorf("R must stay positive, got %v", rc)
	}

	noisy := grid.MustNew("noise", 16, 16)
	for i := range noisy.Data {
		noisy.Data[i] = float32(math.Sin(float64(i) * 13))
	}
	if rn := NonConstantRatioParallel(noisy, 4, 0.15, 1); rn != 1 {
		t.Errorf("fully noisy field R = %v, want 1", rn)
	}
}

func TestLambdaMonotone(t *testing.T) {
	// Larger λ ⇒ higher threshold ⇒ more blocks classified constant ⇒ lower R.
	f := grid.MustNew("g", 16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			f.Set(float32(10+0.5*math.Sin(float64(x)/2)+0.2*float64(y%3)), y, x)
		}
	}
	r05 := NonConstantRatioParallel(f, 4, 0.05, 1)
	r15 := NonConstantRatioParallel(f, 4, 0.15, 1)
	if r15 > r05 {
		t.Errorf("R(λ=0.15)=%v > R(λ=0.05)=%v", r15, r05)
	}
}

func TestSweepKnobsShapes(t *testing.T) {
	f := rampField("r", 8)
	ebAxis := compress.Axis{Kind: compress.AbsErrorBound, Min: 1e-12, Max: 1e6}
	knobs := sweepKnobs(ebAxis, f, 25)
	if len(knobs) != 25 {
		t.Fatalf("%d knobs", len(knobs))
	}
	vr := f.ValueRange()
	if knobs[0] < 0.9e-6*vr || knobs[len(knobs)-1] > 0.26*vr {
		t.Errorf("knob range [%v, %v] not relative to value range %v", knobs[0], knobs[len(knobs)-1], vr)
	}
	pAxis := compress.Axis{Kind: compress.Precision, Min: 2, Max: 32}
	pknobs := sweepKnobs(pAxis, f, 25)
	for _, k := range pknobs {
		if k != math.Round(k) || k < 2 || k > 32 {
			t.Errorf("precision knob %v invalid", k)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	fc := &fakeCompressor{scale: 100}
	if _, err := Train(fc, nil, Config{}); err == nil {
		t.Error("no fields accepted")
	}
	fw, err := Train(fc, []*grid.Field{rampField("a", 16)}, Config{Trees: 10, StationaryPoints: 8, AugmentPerField: 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.EstimateConfig(rampField("b", 16), -1); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := fw.EstimateConfig(rampField("b", 16), math.Inf(1)); err == nil {
		t.Error("infinite target accepted")
	}
	if fw.Stats().Samples == 0 || fw.Stats().FieldsTrained != 1 {
		t.Errorf("stats = %+v", fw.Stats())
	}
}

func TestFrameworkRecoversAnalyticLaw(t *testing.T) {
	// With the analytic fake compressor, a trained framework must invert
	// ratio = 100·√eb up to model error on a field family with matching
	// features.
	fc := &fakeCompressor{scale: 100}
	var fields []*grid.Field
	for i := 0; i < 3; i++ {
		fields = append(fields, waveField("train", 12, float64(2+i)))
	}
	fw, err := Train(fc, fields, Config{Trees: 50, StationaryPoints: 15, AugmentPerField: 80, UseCA: false, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	test := waveField("test", 12, 2.5)
	for _, tcr := range []float64{10, 30, 60} {
		est, err := fw.EstimateConfig(test, tcr)
		if err != nil {
			t.Fatal(err)
		}
		achieved := 100 * math.Sqrt(est.Knob)
		relErr := math.Abs(achieved-tcr) / tcr
		if relErr > 0.30 {
			t.Errorf("TCR %v: knob %v achieves %v (err %.0f%%)", tcr, est.Knob, achieved, relErr*100)
		}
	}
}

func TestEstimateBreakdownPopulated(t *testing.T) {
	fc := &fakeCompressor{scale: 100}
	fw, err := Train(fc, []*grid.Field{waveField("a", 12, 3)}, Config{Trees: 10, StationaryPoints: 8, AugmentPerField: 20, UseCA: true})
	if err != nil {
		t.Fatal(err)
	}
	est, err := fw.EstimateConfig(waveField("b", 12, 3), 20)
	if err != nil {
		t.Fatal(err)
	}
	if est.NonConstantR <= 0 || est.NonConstantR > 1 {
		t.Errorf("R = %v", est.NonConstantR)
	}
	if est.AdjustedRatio != 20*est.NonConstantR {
		t.Errorf("ACR = %v, want %v", est.AdjustedRatio, 20*est.NonConstantR)
	}
	if est.AnalysisTime() <= 0 {
		t.Error("analysis time not measured")
	}
}

// The range an estimate carries is ValidRatioRange of the field it analysed,
// bit for bit, on real codecs with CA on and off: both go through
// validRangeAt, the estimate with the R it already measured.
func TestEstimateValidRange(t *testing.T) {
	probe := waveField("probe", 12, 6)
	for i := range probe.Data[:len(probe.Data)/3] {
		probe.Data[i] = 1 // constant blocks, so R < 1 and the hull really moves
	}
	for _, c := range []compress.Compressor{sz.New(), zfp.New()} {
		for _, useCA := range []bool{true, false} {
			fw, err := Train(c, []*grid.Field{waveField("a", 12, 3), waveField("b", 12, 9)},
				Config{Trees: 10, StationaryPoints: 8, AugmentPerField: 20, UseCA: useCA, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := fw.ValidRatioRange(probe)
			est, err := fw.EstimateConfig(probe, (lo+hi)/2)
			if err != nil {
				t.Fatal(err)
			}
			if useCA == (est.NonConstantR == 1) {
				t.Errorf("%s CA=%v: R = %v", c.Name(), useCA, est.NonConstantR)
			}
			if est.ValidRange != [2]float64{lo, hi} {
				t.Errorf("%s CA=%v: Estimate.ValidRange = %v, ValidRatioRange = [%v %v]", c.Name(), useCA, est.ValidRange, lo, hi)
			}
		}
	}
}

func TestFeatures4D(t *testing.T) {
	f := grid.MustNew("orb", 3, 8, 8, 8)
	for i := range f.Data {
		f.Data[i] = float32(math.Sin(float64(i) / 50))
	}
	ft := ExtractFeatures(f, 1)
	if ft.ValueRange <= 0 || ft.MND <= 0 || ft.MLD <= 0 {
		t.Errorf("4D features degenerate: %+v", ft)
	}
	// Stride sampling on 4D must not panic and must stay finite.
	fs := ExtractFeatures(f, 2)
	for _, v := range fs.FullVector() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("non-finite 4D sampled feature: %+v", fs)
		}
	}
}

func TestNonConstantRatio4D(t *testing.T) {
	// Orbitals 0–3 oscillate, orbitals 4–7 are zero; 4⁴ blocks align with
	// the orbital boundary, so half the blocks are constant.
	f := grid.MustNew("orb", 8, 8, 8, 8)
	half := f.Size() / 2
	for i := 0; i < half; i++ {
		f.Data[i] = float32(math.Sin(float64(i)))
	}
	r := NonConstantRatioParallel(f, 4, 0.15, 1)
	if r < 0.3 || r > 0.7 {
		t.Errorf("4D R = %v, want roughly half", r)
	}
}

func TestCurvePrecisionAxis(t *testing.T) {
	axis := compress.Axis{Kind: compress.Precision, Min: 2, Max: 32}
	pts := []Stationary{
		{Knob: 32, Ratio: 1.5},
		{Knob: 24, Ratio: 2.5},
		{Knob: 16, Ratio: 6},
		{Knob: 8, Ratio: 30},
	}
	c, err := NewCurve(axis, pts)
	if err != nil {
		t.Fatal(err)
	}
	knob, ok := c.KnobForRatio(4)
	if !ok {
		t.Fatal("ratio 4 should be in range")
	}
	if knob < 16 || knob > 24 || knob != math.Round(knob) {
		t.Errorf("precision for ratio 4 = %v, want integer in [16, 24]", knob)
	}
	// Looser ratios must give lower precisions.
	k30, _ := c.KnobForRatio(29)
	k2, _ := c.KnobForRatio(2)
	if k30 >= k2 {
		t.Errorf("precision ordering wrong: ratio 29 → %v, ratio 2 → %v", k30, k2)
	}
}

func TestEstimateConfigConcurrentUse(t *testing.T) {
	// A trained framework is read-only at inference; concurrent
	// EstimateConfig calls from many goroutines must be safe (run with
	// -race to enforce).
	fc := &fakeCompressor{scale: 100}
	fw, err := Train(fc, []*grid.Field{waveField("a", 12, 3), waveField("b", 12, 4)},
		Config{Trees: 20, StationaryPoints: 8, AugmentPerField: 30})
	if err != nil {
		t.Fatal(err)
	}
	test := waveField("t", 12, 3.5)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := fw.EstimateConfig(test, float64(5+i%40)); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
