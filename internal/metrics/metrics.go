// Package metrics provides the data-quality and accuracy statistics the
// evaluation reports: PSNR and error norms for distortion analysis (Fig 10),
// histograms and standard deviation for dataset-variability analysis
// (Figs 8–9), and the estimation-error formula (Formula 5) every accuracy
// table is built from.
package metrics

import (
	"fmt"
	"math"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// EstimationError implements Formula (5): |TCR - MCR| / TCR.
func EstimationError(tcr, mcr float64) float64 {
	if tcr == 0 {
		return math.Inf(1)
	}
	return math.Abs(tcr-mcr) / tcr
}

// MSE returns the mean squared error between two equally-shaped fields.
func MSE(a, b *grid.Field) (float64, error) {
	if a.Size() != b.Size() {
		return 0, fmt.Errorf("metrics: size mismatch %d vs %d", a.Size(), b.Size())
	}
	var s float64
	for i := range a.Data {
		d := float64(a.Data[i]) - float64(b.Data[i])
		s += d * d
	}
	return s / float64(a.Size()), nil
}

// PSNR returns the peak signal-to-noise ratio in dB, with the peak taken as
// the original field's value range (the convention in the lossy-compression
// community). Identical fields give +Inf.
func PSNR(orig, rec *grid.Field) (float64, error) {
	mse, err := MSE(orig, rec)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	vr := orig.ValueRange()
	if vr == 0 {
		return 0, fmt.Errorf("metrics: constant field has no PSNR")
	}
	return 20*math.Log10(vr) - 10*math.Log10(mse), nil
}

// StdDev returns the population standard deviation of the field's values,
// the statistic Fig 9 uses to demonstrate train/test variability.
func StdDev(f *grid.Field) float64 {
	n := len(f.Data)
	if n == 0 {
		return 0
	}
	mean := f.Mean()
	var s float64
	for _, v := range f.Data {
		d := float64(v) - mean
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}

// HistogramDistance returns the L1 distance between the normalised
// histograms of two fields over a shared range — a scalar summary of "how
// different are these distributions" for the Fig 8 experiment. 0 means
// identical, 2 means disjoint.
func HistogramDistance(a, b *grid.Field, bins int) (float64, error) {
	if bins <= 0 {
		return 0, fmt.Errorf("metrics: bins must be positive, got %d", bins)
	}
	amn, amx := a.Range()
	bmn, bmx := b.Range()
	mn, mx := math.Min(amn, bmn), math.Max(amx, bmx)
	if mx == mn {
		return 0, nil
	}
	width := (mx - mn) / float64(bins)
	count := func(f *grid.Field) []float64 {
		h := make([]float64, bins)
		for _, v := range f.Data {
			k := int((float64(v) - mn) / width)
			if k >= bins {
				k = bins - 1
			}
			if k < 0 {
				k = 0
			}
			h[k]++
		}
		for i := range h {
			h[i] /= float64(f.Size())
		}
		return h
	}
	ha, hb := count(a), count(b)
	var d float64
	for i := range ha {
		d += math.Abs(ha[i] - hb[i])
	}
	return d, nil
}

// StructureDisplacement measures how far local maxima ("halos" in the Nyx
// analysis of Fig 10) move between an original and a reconstructed field: it
// returns the fraction of the top-k blocks (by block maximum) whose argmax
// position changed. It is the stand-in for the paper's halo-mislocation
// percentages (0.46% / 10.81% / 79.17% at eb 0.001 / 0.05 / 0.45).
func StructureDisplacement(orig, rec *grid.Field, blockSide int) (float64, error) {
	if orig.Size() != rec.Size() {
		return 0, fmt.Errorf("metrics: size mismatch")
	}
	if blockSide <= 0 {
		return 0, fmt.Errorf("metrics: block side must be positive")
	}
	type argmax struct {
		idx int
		val float32
	}
	locate := func(f *grid.Field) []argmax {
		var out []argmax
		grid.VisitBlocks(f, blockSide, func(b grid.Block, vals []float32) {
			best := 0
			for i, v := range vals {
				if v > vals[best] {
					best = i
				}
			}
			out = append(out, argmax{idx: best, val: vals[best]})
		})
		return out
	}
	lo, lr := locate(orig), locate(rec)
	moved, total := 0, 0
	for i := range lo {
		if lo[i].val == 0 {
			continue // empty region, not a structure
		}
		total++
		if lo[i].idx != lr[i].idx {
			moved++
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(moved) / float64(total), nil
}
