package core

import (
	"fmt"
	"math"
	"time"

	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// Estimate is the inference engine's output: the recommended knob plus the
// analysis breakdown the performance evaluation (Table VIII) reports.
type Estimate struct {
	// Knob is the error bound (or precision) predicted to reach the target.
	Knob float64
	// AdjustedRatio is the ACR actually fed to the model (== TCR when CA is
	// disabled).
	AdjustedRatio float64
	// NonConstantR is the CA block ratio R of the analysed field.
	NonConstantR float64
	// Extrapolating is set when the adjusted target falls outside the ratio
	// hull seen in training; the prediction is clamped-quality only.
	Extrapolating bool
	// ValidRange is the [lo, hi] target-ratio interval the framework serves
	// for the analysed field without extrapolating — ValidRatioRange of that
	// field, derived from the NonConstantR this estimate already measured so
	// callers that want both need not scan the field twice. It is zero on an
	// estimate made from features alone, which never saw a field.
	ValidRange [2]float64
	// FeatureTime, CATime and PredictTime decompose the analysis cost.
	FeatureTime time.Duration
	CATime      time.Duration
	PredictTime time.Duration
}

// AnalysisTime is the total inference cost (the paper's "analysis time").
func (e Estimate) AnalysisTime() time.Duration {
	return e.FeatureTime + e.CATime + e.PredictTime
}

// ValidRatioRange reports the target-ratio interval the framework can serve
// for the given field without extrapolating: the training ratio hull mapped
// back through the field's Compressibility Adjustment factor. It mirrors the
// paper's per-dataset "valid range of compression ratios" (Fig 11).
func (fw *Framework) ValidRatioRange(f *grid.Field) (lo, hi float64) {
	r := 1.0
	if fw.cfg.UseCA {
		r = NonConstantRatioParallel(f, fw.cfg.BlockSide, fw.cfg.Lambda, pool.Workers(fw.cfg.Parallelism))
	}
	return fw.validRangeAt(r)
}

// validRangeAt maps the training ratio hull back through a CA factor r.
func (fw *Framework) validRangeAt(r float64) (lo, hi float64) {
	lo, hi = fw.ratioLo/r, fw.ratioHi/r
	// A hull loaded from an older model file (or hand-built for tests) may be
	// inverted; callers expect lo <= hi regardless.
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// EstimateConfig runs FXRZ inference: extract features from a stride sample
// of the field, apply the Compressibility Adjustment to the target ratio,
// and query the model for the knob. No compressor is executed.
func (fw *Framework) EstimateConfig(f *grid.Field, targetRatio float64) (Estimate, error) {
	if fw.model == nil {
		return Estimate{}, fmt.Errorf("core: framework not trained")
	}
	if !(targetRatio > 0) || math.IsInf(targetRatio, 0) {
		return Estimate{}, fmt.Errorf("core: target ratio must be a positive finite number, got %v", targetRatio)
	}
	defer obs.Span("infer/estimate")()
	var est Estimate
	workers := pool.Workers(fw.cfg.Parallelism)

	t0 := time.Now()
	feats := ExtractFeaturesParallel(f, fw.cfg.Stride, workers).Vector()
	est.FeatureTime = time.Since(t0)

	est.NonConstantR = 1
	if fw.cfg.UseCA {
		t1 := time.Now()
		est.NonConstantR = NonConstantRatioParallel(f, fw.cfg.BlockSide, fw.cfg.Lambda, workers)
		est.CATime = time.Since(t1)
	}
	est.ValidRange[0], est.ValidRange[1] = fw.validRangeAt(est.NonConstantR)
	est.AdjustedRatio = AdjustRatio(targetRatio, est.NonConstantR)
	if est.AdjustedRatio < fw.ratioLo || est.AdjustedRatio > fw.ratioHi {
		est.Extrapolating = true
	}

	t2 := time.Now()
	x := append(append([]float64(nil), feats...), est.AdjustedRatio)
	est.Knob = fw.axis.FromModel(fw.model.Predict(x))
	est.PredictTime = time.Since(t2)
	return est, nil
}

// EstimateFromFeatures runs inference from pre-extracted features alone — no
// field access at all, only a model query. This is the serving fast path: a
// client that already knows its data features (or caches them per variable)
// gets a knob back for the cost of one forest walk. Without the field the
// Compressibility Adjustment block scan cannot run, so the caller supplies
// the CA block ratio R explicitly; passing r <= 0 (or 1) skips adjustment,
// exactly as a CA-disabled framework would behave.
func (fw *Framework) EstimateFromFeatures(ft Features, targetRatio, r float64) (Estimate, error) {
	if fw.model == nil {
		return Estimate{}, fmt.Errorf("core: framework not trained")
	}
	if !(targetRatio > 0) || math.IsInf(targetRatio, 0) {
		return Estimate{}, fmt.Errorf("core: target ratio must be a positive finite number, got %v", targetRatio)
	}
	if !(r > 0) {
		r = 1
	}
	defer obs.Span("infer/estimate_features")()
	var est Estimate
	est.NonConstantR = r
	est.AdjustedRatio = AdjustRatio(targetRatio, r)
	if est.AdjustedRatio < fw.ratioLo || est.AdjustedRatio > fw.ratioHi {
		est.Extrapolating = true
	}
	t0 := time.Now()
	x := append(ft.Vector(), est.AdjustedRatio)
	est.Knob = fw.axis.FromModel(fw.model.Predict(x))
	est.PredictTime = time.Since(t0)
	return est, nil
}
