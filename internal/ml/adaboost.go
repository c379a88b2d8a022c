package ml

import (
	"math"
	"math/rand"
)

// AdaBoostConfig controls the AdaBoost.R2 regressor (Drucker, 1997), the
// meta-estimator the paper evaluates against the random forest in Table III,
// with its linear loss |ŷ−y|/max|ŷ−y| per sample.
type AdaBoostConfig struct {
	// Estimators is the maximum number of boosting rounds (default 50).
	Estimators int
	// MaxDepth limits each weak regression tree (default 3).
	MaxDepth int
	// Seed makes weighted resampling deterministic.
	Seed int64
}

// AdaBoost is an AdaBoost.R2 ensemble of shallow CART trees combined by
// weighted median.
type AdaBoost struct {
	cfg    AdaBoostConfig
	trees  []*Tree
	logBet []float64 // ln(1/β_t) per kept round
}

// NewAdaBoost returns an untrained AdaBoost.R2 regressor.
func NewAdaBoost(cfg AdaBoostConfig) *AdaBoost {
	if cfg.Estimators <= 0 {
		cfg.Estimators = 50
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 3
	}
	return &AdaBoost{cfg: cfg}
}

// Fit implements Regressor with the AdaBoost.R2 algorithm: each round fits a
// weak tree on a weight-proportional resample, computes the normalised loss
// l_i of every sample, stops if the weighted average loss exceeds 0.5, and
// otherwise reweights samples by β^(1-l_i) with β = L̄/(1-L̄).
func (a *AdaBoost) Fit(X [][]float64, y []float64) error {
	if err := validate(X, y); err != nil {
		return err
	}
	n := len(X)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	rng := rand.New(rand.NewSource(a.cfg.Seed))
	a.trees = a.trees[:0]
	a.logBet = a.logBet[:0]

	cdf := make([]float64, n)
	bx := make([][]float64, n)
	by := make([]float64, n)
	preds := make([]float64, n)
	losses := make([]float64, n)

	for round := 0; round < a.cfg.Estimators; round++ {
		// Weighted bootstrap resample via inverse-CDF sampling.
		var cum float64
		for i, wi := range w {
			cum += wi
			cdf[i] = cum
		}
		for i := 0; i < n; i++ {
			r := rng.Float64() * cum
			j := searchCDF(cdf, r)
			bx[i] = X[j]
			by[i] = y[j]
		}
		tree := NewTree(TreeConfig{MaxDepth: a.cfg.MaxDepth, Seed: a.cfg.Seed + int64(round)})
		if err := tree.Fit(bx, by); err != nil {
			return err
		}
		// Normalised per-sample loss on the full training set.
		var maxErr float64
		for i := range X {
			preds[i] = tree.Predict(X[i])
			e := math.Abs(preds[i] - y[i])
			if e > maxErr {
				maxErr = e
			}
		}
		if maxErr == 0 {
			// Perfect learner: keep it with a large weight and stop.
			a.trees = append(a.trees, tree)
			a.logBet = append(a.logBet, math.Log(1e9))
			break
		}
		var avgLoss float64
		for i := range X {
			losses[i] = math.Abs(preds[i]-y[i]) / maxErr
			avgLoss += w[i] * losses[i]
		}
		var wsum float64
		for _, wi := range w {
			wsum += wi
		}
		avgLoss /= wsum
		if avgLoss >= 0.5 {
			if len(a.trees) == 0 {
				// Keep one learner so the model is usable at all.
				a.trees = append(a.trees, tree)
				a.logBet = append(a.logBet, 1e-3)
			}
			break
		}
		beta := avgLoss / (1 - avgLoss)
		a.trees = append(a.trees, tree)
		a.logBet = append(a.logBet, math.Log(1/beta))
		for i := range w {
			w[i] *= math.Pow(beta, 1-losses[i])
		}
	}
	if len(a.trees) == 0 {
		return ErrNoData
	}
	return nil
}

// Predict implements Regressor: the weighted median of the rounds'
// predictions, with weights ln(1/β_t).
func (a *AdaBoost) Predict(x []float64) float64 {
	if len(a.trees) == 0 {
		return 0
	}
	vals := make([]float64, len(a.trees))
	for i, t := range a.trees {
		vals[i] = t.Predict(x)
	}
	return WeightedMedian(vals, a.logBet)
}

// searchCDF returns the first index whose cumulative value is >= r.
func searchCDF(cdf []float64, r float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
