// Package fraz implements the FRaZ baseline (Underwood et al., IPDPS 2020),
// the only prior generic fixed-ratio lossy compression framework. FRaZ
// searches for the error-bound setting that reaches a target compression
// ratio by *actually running the compressor* at each probed setting — a
// trial-and-error loop whose cost is one full compression per iteration.
// That cost (10–100× the compression time) is exactly what FXRZ eliminates,
// and what every FXRZ-vs-FRaZ comparison in the evaluation measures.
//
// Faithfully to the paper's configuration (§V-A4): the global knob range —
// FXRZ's training sweep range, core.RelKnobMin to core.RelKnobMax of the
// field's value range — is divided into bins (k=3) sub-ranges, each searched
// with a bounded iterative bisection of at most maxIters iterations (6 or 15
// in the evaluation, FRaZ-6 and FRaZ-15) that stops early within tolerance
// (1%) of the target, and the best setting found across bins is returned.
package fraz

import (
	"fmt"
	"math"
	"time"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/core"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// The paper's FRaZ setup: the knob range splits into bins sub-ranges, and a
// bin stops early once |ratio - target|/target is within tolerance.
const (
	bins      = 3
	tolerance = 0.01
)

// Result reports the outcome of one FRaZ search.
type Result struct {
	// Knob is the best setting found.
	Knob float64
	// AchievedRatio is the measured ratio at Knob.
	AchievedRatio float64
	// CompressorRuns counts how many full compressions the search spent —
	// the cost metric of Table VIII.
	CompressorRuns int
	// SearchTime is the wall-clock analysis time.
	SearchTime time.Duration
}

// Search runs FRaZ for one field and target ratio, bisecting each bin at most
// maxIters times (6 when maxIters <= 0).
func Search(c compress.Compressor, f *grid.Field, targetRatio float64, maxIters int) (Result, error) {
	if !(targetRatio > 0) || math.IsInf(targetRatio, 0) {
		return Result{}, fmt.Errorf("fraz: target ratio must be a positive finite number, got %v", targetRatio)
	}
	if maxIters <= 0 {
		maxIters = 6
	}
	axis := c.Axis()
	lo, hi := searchRange(axis, f)

	start := time.Now()
	res := Result{}
	best := math.Inf(1)
	eval := func(knob float64) (float64, error) {
		knob = axis.Clamp(knob)
		r, err := compress.CompressRatio(c, f, knob)
		if err != nil {
			return 0, err
		}
		res.CompressorRuns++
		if d := math.Abs(r - targetRatio); d < best {
			best = d
			res.Knob = knob
			res.AchievedRatio = r
		}
		return r, nil
	}

	// Divide the raw knob range into bins and bisect each. Faithful to the
	// original FRaZ, the search operates on the *untransformed* error bound:
	// a linear bracket over a domain spanning several orders of magnitude
	// needs many iterations to localise small bounds, which is exactly why
	// the paper's FRaZ-6 is inaccurate and FRaZ-15 is merely acceptable.
	for b := 0; b < bins; b++ {
		bl := lo + (hi-lo)*float64(b)/float64(bins)
		bh := lo + (hi-lo)*float64(b+1)/float64(bins)
		for it := 0; it < maxIters; it++ {
			mid := (bl + bh) / 2
			r, err := eval(mid)
			if err != nil {
				return res, fmt.Errorf("fraz: evaluating knob: %w", err)
			}
			if math.Abs(r-targetRatio)/targetRatio <= tolerance {
				res.SearchTime = time.Since(start)
				return res, nil
			}
			looser := r < targetRatio
			if axis.Kind == compress.Precision {
				// For precision knobs smaller settings are looser.
				looser = !looser
			}
			if looser {
				bl = mid
			} else {
				bh = mid
			}
		}
	}
	res.SearchTime = time.Since(start)
	if res.CompressorRuns == 0 {
		return res, fmt.Errorf("fraz: search made no progress")
	}
	return res, nil
}

// searchRange computes the global knob range, relative to the data for
// error-bound axes and the native domain for precision axes.
func searchRange(axis compress.Axis, f *grid.Field) (lo, hi float64) {
	if axis.Kind == compress.Precision {
		return axis.Min, axis.Max
	}
	vr := f.ValueRange()
	if vr <= 0 {
		vr = 1
	}
	return axis.Clamp(core.RelKnobMin * vr), axis.Clamp(core.RelKnobMax * vr)
}
