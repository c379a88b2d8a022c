package ml

import (
	"math"
	"math/rand"
)

// SVRConfig controls the ε-insensitive support vector regressor with an RBF
// kernel exp(-γ‖x-z‖²), γ = 1/d over the standardised features. Training
// uses the kernelised stochastic subgradient method (NORMA,
// Kivinen–Smola–Williamson 2004), which optimises the same regularised
// ε-insensitive objective as classic SMO-trained SVR.
type SVRConfig struct {
	// C is the regularisation trade-off (default 1).
	C float64
	// Epsilon is the insensitive-tube half width (default 0.1).
	Epsilon float64
	// Epochs over the training set (default 200).
	Epochs int
	// Seed makes the stochastic updates deterministic.
	Seed int64
}

// SVR is an RBF-kernel ε-support-vector regressor.
type SVR struct {
	cfg   SVRConfig
	x     [][]float64
	beta  []float64
	bias  float64
	mean  []float64
	scale []float64
	yMean float64
	yStd  float64
	gamma float64
}

// NewSVR returns an untrained SVR.
func NewSVR(cfg SVRConfig) *SVR {
	if cfg.C <= 0 {
		cfg.C = 1
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.1
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 200
	}
	return &SVR{cfg: cfg}
}

// Fit implements Regressor. Features and targets are standardised
// internally; ε applies in standardised target units, matching common SVR
// practice.
func (s *SVR) Fit(X [][]float64, y []float64) error {
	if err := validate(X, y); err != nil {
		return err
	}
	n, d := len(X), len(X[0])
	s.mean = make([]float64, d)
	s.scale = make([]float64, d)
	for j := 0; j < d; j++ {
		col := make([]float64, n)
		for i := range X {
			col[i] = X[i][j]
		}
		s.mean[j] = Mean(col)
		s.scale[j] = StdDev(col)
		if s.scale[j] == 0 {
			s.scale[j] = 1
		}
	}
	s.x = make([][]float64, n)
	for i := range X {
		s.x[i] = s.standardize(X[i])
	}
	s.yMean = Mean(y)
	s.yStd = StdDev(y)
	if s.yStd == 0 {
		s.yStd = 1
	}
	ys := make([]float64, n)
	for i := range y {
		ys[i] = (y[i] - s.yMean) / s.yStd
	}
	s.gamma = 1 / float64(d)

	s.beta = make([]float64, n)
	s.bias = 0
	lambda := 1 / s.cfg.C
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	step := 0
	for epoch := 0; epoch < s.cfg.Epochs; epoch++ {
		perm := rng.Perm(n)
		for _, i := range perm {
			step++
			eta := 1 / (lambda * float64(step+10))
			f := s.rawPredict(s.x[i])
			r := f - ys[i]
			// L2 shrinkage of the kernel expansion.
			decay := 1 - eta*lambda
			if decay < 0 {
				decay = 0
			}
			for k := range s.beta {
				s.beta[k] *= decay
			}
			// ε-insensitive subgradient.
			if r > s.cfg.Epsilon {
				s.beta[i] -= eta
				s.bias -= eta * 0.1
			} else if r < -s.cfg.Epsilon {
				s.beta[i] += eta
				s.bias += eta * 0.1
			}
		}
	}
	return nil
}

func (s *SVR) standardize(x []float64) []float64 {
	z := make([]float64, len(s.mean))
	for j := range z {
		v := 0.0
		if j < len(x) {
			v = x[j]
		}
		z[j] = (v - s.mean[j]) / s.scale[j]
	}
	return z
}

func (s *SVR) kernel(a, b []float64) float64 {
	var d2 float64
	for j := range a {
		d := a[j] - b[j]
		d2 += d * d
	}
	return math.Exp(-s.gamma * d2)
}

func (s *SVR) rawPredict(z []float64) float64 {
	f := s.bias
	for i, b := range s.beta {
		if b != 0 {
			f += b * s.kernel(s.x[i], z)
		}
	}
	return f
}

// Predict implements Regressor.
func (s *SVR) Predict(x []float64) float64 {
	if len(s.beta) == 0 {
		return 0
	}
	return s.rawPredict(s.standardize(x))*s.yStd + s.yMean
}
