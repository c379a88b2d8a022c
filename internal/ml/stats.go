// Package ml is a small, deterministic, stdlib-only machine-learning
// substrate providing the three regressors the paper compares for FXRZ
// (random forest, AdaBoost.R2, ε-SVR), CART regression trees, and the
// correlation statistics used for feature selection (Table II).
package ml

import (
	"errors"
	"math"
)

// ErrNoData reports an empty or inconsistent training set.
var ErrNoData = errors.New("ml: empty or inconsistent training data")

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Pearson returns the Pearson product-moment correlation coefficient between
// xs and ys, the statistic Table II uses to rank features. It returns 0 when
// either series is constant or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// validate checks a design matrix / target pair.
func validate(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return ErrNoData
	}
	d := len(X[0])
	if d == 0 {
		return ErrNoData
	}
	for _, row := range X {
		if len(row) != d {
			return ErrNoData
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return errors.New("ml: non-finite feature value")
			}
		}
	}
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("ml: non-finite target value")
		}
	}
	return nil
}

// WeightedMedian returns the value whose cumulative weight reaches half of
// the total, over (values, weights) pairs; AdaBoost.R2 combines its learners
// with it. Ties broken toward the lower value.
func WeightedMedian(values, weights []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by value: learner counts are small.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && values[idx[j]] < values[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	var cum float64
	for _, i := range idx {
		cum += weights[i]
		if cum >= total/2 {
			return values[i]
		}
	}
	return values[idx[len(idx)-1]]
}
