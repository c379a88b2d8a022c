package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// synth builds a noisy nonlinear regression problem y = f(x) + noise.
func synth(n, d int, seed int64, noise float64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Float64()*4 - 2
		}
		y[i] = math.Sin(X[i][0]*2) + 0.5*X[i][1%d]*X[i][1%d] + noise*rng.NormFloat64()
	}
	return X, y
}

func mae(m Regressor, X [][]float64, y []float64) float64 {
	var s float64
	for i := range X {
		s += math.Abs(m.Predict(X[i]) - y[i])
	}
	return s / float64(len(X))
}

func TestStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 2 {
		t.Errorf("Variance = %v", Variance(xs))
	}
	if math.Abs(StdDev(xs)-math.Sqrt2) > 1e-12 {
		t.Errorf("StdDev = %v", StdDev(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect positive correlation: got %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect negative correlation: got %v", r)
	}
	if r := Pearson(xs, []float64{3, 3, 3, 3, 3}); r != 0 {
		t.Errorf("constant series: got %v", r)
	}
	if r := Pearson(xs, ys[:3]); r != 0 {
		t.Errorf("length mismatch: got %v", r)
	}
}

func TestPearsonBoundedQuick(t *testing.T) {
	check := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		for _, v := range append(xs[:n:n], ys[:n]...) {
			// Skip values whose squares overflow float64; Pearson makes no
			// promises under intermediate overflow.
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		r := Pearson(xs[:n], ys[:n])
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWeightedMedian(t *testing.T) {
	if v := WeightedMedian([]float64{1, 2, 100}, []float64{1, 1, 1}); v != 2 {
		t.Errorf("unweighted median = %v", v)
	}
	if v := WeightedMedian([]float64{1, 2, 100}, []float64{0.1, 0.1, 10}); v != 100 {
		t.Errorf("weighted median = %v", v)
	}
	if v := WeightedMedian(nil, nil); v != 0 {
		t.Errorf("empty median = %v", v)
	}
}

func TestTreeFitsExactlySeparableData(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{10, 10, 20, 20}
	tree := NewTree(TreeConfig{})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if got := tree.Predict(X[i]); got != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", X[i], got, y[i])
		}
	}
}

func TestTreeDepthLimit(t *testing.T) {
	X, y := synth(200, 3, 1, 0)
	deep := NewTree(TreeConfig{})
	if err := deep.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	shallow := NewTree(TreeConfig{MaxDepth: 2})
	if err := shallow.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if shallow.Depth() > 2 {
		t.Errorf("depth %d exceeds limit 2", shallow.Depth())
	}
	if deep.Depth() <= shallow.Depth() {
		t.Errorf("unlimited tree (%d) not deeper than limited (%d)", deep.Depth(), shallow.Depth())
	}
	if mae(deep, X, y) > mae(shallow, X, y) {
		t.Error("deeper tree should fit training data at least as well")
	}
}

func TestTreeValidation(t *testing.T) {
	tree := NewTree(TreeConfig{})
	if err := tree.Fit(nil, nil); err == nil {
		t.Error("empty data accepted")
	}
	if err := tree.Fit([][]float64{{1}, {2}}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := tree.Fit([][]float64{{1}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if err := tree.Fit([][]float64{{math.NaN()}}, []float64{1}); err == nil {
		t.Error("NaN feature accepted")
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	X, y := synth(400, 4, 2, 0.3)
	testX, testY := synth(200, 4, 99, 0.3)

	tree := NewTree(TreeConfig{})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	forest := NewForest(ForestConfig{Trees: 60, Seed: 7})
	if err := forest.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	mt, mf := mae(tree, testX, testY), mae(forest, testX, testY)
	if mf >= mt {
		t.Errorf("forest MAE %.4f not better than single tree %.4f on held-out data", mf, mt)
	}
}

func TestForestDeterministicAcrossRuns(t *testing.T) {
	X, y := synth(150, 3, 3, 0.1)
	a := NewForest(ForestConfig{Trees: 20, Seed: 42})
	b := NewForest(ForestConfig{Trees: 20, Seed: 42})
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.5, -1, 1.5}
	if a.Predict(probe) != b.Predict(probe) {
		t.Error("same seed produced different forests")
	}
	c := NewForest(ForestConfig{Trees: 20, Seed: 43})
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if a.Predict(probe) == c.Predict(probe) {
		t.Error("different seeds produced identical forests (suspicious)")
	}
}

func TestForestPredictionWithinTargetHull(t *testing.T) {
	X, y := synth(300, 3, 4, 0.2)
	forest := NewForest(ForestConfig{Trees: 30, Seed: 1})
	if err := forest.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range y {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	check := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) || math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) {
			return true
		}
		p := forest.Predict([]float64{a, b, c})
		return p >= lo && p <= hi
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("tree-ensemble prediction escaped the training target hull:", err)
	}
}

func TestAdaBoostLearns(t *testing.T) {
	X, y := synth(300, 3, 5, 0.1)
	ab := NewAdaBoost(AdaBoostConfig{Estimators: 40, MaxDepth: 4, Seed: 3})
	if err := ab.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if m := mae(ab, X, y); m > 0.5 {
		t.Errorf("AdaBoost training MAE %.3f too high", m)
	}
}

func TestAdaBoostLossVariants(t *testing.T) {
	X, y := synth(200, 2, 6, 0.1)
	ab := NewAdaBoost(AdaBoostConfig{Estimators: 20, Seed: 4})
	if err := ab.Fit(X, y); err != nil {
		t.Fatalf("linear loss: %v", err)
	}
	if m := mae(ab, X, y); m > 1 {
		t.Errorf("linear loss: MAE %.3f", m)
	}
}

func TestAdaBoostPerfectLearnerShortCircuit(t *testing.T) {
	// Exactly learnable data: boosting should stop early with one perfect tree.
	X := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}}
	y := []float64{1, 1, 1, 5, 5, 5}
	ab := NewAdaBoost(AdaBoostConfig{Estimators: 50, MaxDepth: 3, Seed: 5})
	if err := ab.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if len(ab.trees) > 5 {
		t.Errorf("expected early stop, got %d rounds", len(ab.trees))
	}
	for i := range X {
		if got := ab.Predict(X[i]); got != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", X[i], got, y[i])
		}
	}
}

func TestSVRFitsLinearTube(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 150
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := rng.Float64()*10 - 5
		X[i] = []float64{x}
		y[i] = 3*x + 1
	}
	svr := NewSVR(SVRConfig{C: 10, Epsilon: 0.05, Epochs: 300, Seed: 9})
	if err := svr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if m := mae(svr, X, y); m > 1.5 {
		t.Errorf("SVR MAE on linear data %.3f too high", m)
	}
	if !slices.ContainsFunc(svr.beta, func(b float64) bool { return b != 0 }) {
		t.Error("no support vectors after training")
	}
}

func TestSVRHandlesConstantFeatures(t *testing.T) {
	X := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []float64{1, 2, 3, 4}
	svr := NewSVR(SVRConfig{})
	if err := svr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p := svr.Predict([]float64{2.5, 5})
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Errorf("prediction not finite: %v", p)
	}
}

func TestRFRBeatsAdaBoostAndSVROnStepLikeTargets(t *testing.T) {
	// A miniature of the paper's Table III setting: targets are log error
	// bounds with near-plateau structure; RFR should win.
	rng := rand.New(rand.NewSource(20))
	n := 250
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		f1 := rng.Float64()
		f2 := rng.Float64()
		tcr := rng.Float64() * 100
		X[i] = []float64{f1, f2, tcr}
		y[i] = math.Log10(1e-4+1e-2*tcr*f1) + 0.05*rng.NormFloat64()
	}
	test := func(m Regressor) float64 {
		if err := m.Fit(X[:200], y[:200]); err != nil {
			t.Fatal(err)
		}
		var s float64
		for i := 200; i < n; i++ {
			s += math.Abs(m.Predict(X[i]) - y[i])
		}
		return s / 50
	}
	rfr := test(NewForest(ForestConfig{Trees: 60, Seed: 1}))
	ada := test(NewAdaBoost(AdaBoostConfig{Estimators: 30, Seed: 1}))
	svr := test(NewSVR(SVRConfig{Epochs: 150, Seed: 1}))
	if rfr >= ada && rfr >= svr {
		t.Errorf("RFR (%.4f) did not beat AdaBoost (%.4f) or SVR (%.4f)", rfr, ada, svr)
	}
}

func TestPermutationImportanceRanksSignalOverNoise(t *testing.T) {
	// y depends on feature 0 strongly, feature 1 weakly, feature 2 not at all.
	rng := rand.New(rand.NewSource(31))
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		y[i] = 5*X[i][0] + 0.5*X[i][1]
	}
	f := NewForest(ForestConfig{Trees: 40, Seed: 2})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp, err := PermutationImportance(f, X, y, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !(imp[0] > imp[1] && imp[1] > imp[2]) {
		t.Errorf("importances not ordered: %v", imp)
	}
	if imp[0] < 1 {
		t.Errorf("dominant feature importance %v too small", imp[0])
	}
	// In-sample noise splits give the useless feature a small but non-zero
	// score; it must stay well below the dominant feature's.
	if math.Abs(imp[2]) > 0.1*imp[0] {
		t.Errorf("noise feature importance %v too large vs dominant %v", imp[2], imp[0])
	}
}

func TestPermutationImportanceValidation(t *testing.T) {
	f := NewForest(ForestConfig{Trees: 5, Seed: 1})
	if _, err := PermutationImportance(f, nil, nil, 3, 1); err == nil {
		t.Error("empty data accepted")
	}
}
