package ml

import (
	"math/rand"
	"runtime"

	"github.com/fxrz-go/fxrz/internal/pool"
)

// ForestConfig controls the random forest regressor the paper adopts for
// FXRZ (Table III shows it beating AdaBoost and SVR on this problem).
type ForestConfig struct {
	// Trees is the ensemble size (default 100). Each tree grows to
	// unlimited depth with leaves of one sample and max(1, d/3) candidate
	// features per split, the regression defaults.
	Trees int
	// Seed makes training deterministic.
	Seed int64
}

// Forest is a bootstrap-aggregated ensemble of CART trees.
type Forest struct {
	cfg   ForestConfig
	trees []*Tree
}

// NewForest returns an untrained random forest.
func NewForest(cfg ForestConfig) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	return &Forest{cfg: cfg}
}

// Fit implements Regressor: each tree is grown on a bootstrap resample with
// per-split feature subsampling. Trees are trained in parallel; the
// bootstrap draws come from per-tree seeded generators, so results are
// deterministic regardless of parallelism.
func (f *Forest) Fit(X [][]float64, y []float64) error {
	if err := validate(X, y); err != nil {
		return err
	}
	maxFeat := max(1, len(X[0])/3)
	f.trees = make([]*Tree, f.cfg.Trees)
	return pool.RunErr(runtime.GOMAXPROCS(0), f.cfg.Trees, func(t int) error {
		rng := rand.New(rand.NewSource(f.cfg.Seed + int64(t)*7919))
		n := len(X)
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = X[j]
			by[i] = y[j]
		}
		tree := NewTree(TreeConfig{
			MaxFeatures: maxFeat,
			Seed:        f.cfg.Seed + int64(t)*104729,
		})
		f.trees[t] = tree
		return tree.Fit(bx, by)
	})
}

// Predict implements Regressor: the mean of the trees' predictions.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}
