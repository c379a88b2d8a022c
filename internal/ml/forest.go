package ml

import (
	"math/rand"
	"runtime"

	"github.com/fxrz-go/fxrz/internal/pool"
)

// ForestConfig controls the random forest regressor the paper adopts for
// FXRZ (Table III shows it beating AdaBoost and SVR on this problem).
type ForestConfig struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// MaxDepth limits each tree (0 = unlimited).
	MaxDepth int
	// MinLeaf is the per-tree minimum leaf size (default 1).
	MinLeaf int
	// MaxFeatures per split; 0 selects max(1, d/3), the regression default.
	MaxFeatures int
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
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
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
	d := len(X[0])
	maxFeat := f.cfg.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = d / 3
		if maxFeat < 1 {
			maxFeat = 1
		}
	}
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
			MaxDepth:    f.cfg.MaxDepth,
			MinLeaf:     f.cfg.MinLeaf,
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
