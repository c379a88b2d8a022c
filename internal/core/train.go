package core

import (
	"fmt"
	"time"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/ml"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// ModelKind selects the regressor family (§IV-D compares all three; the
// paper adopts the random forest).
type ModelKind string

// The three model families of Table III.
const (
	ModelRFR      ModelKind = "rfr"
	ModelAdaBoost ModelKind = "adaboost"
	ModelSVR      ModelKind = "svr"
)

// Config controls FXRZ training and inference.
type Config struct {
	// Stride is the uniform sampling stride for feature extraction
	// (§IV-E1); the paper's default 4 keeps ~1.5% of a 3D field. Values
	// <= 1 disable sampling.
	Stride int
	// UseCA toggles the Compressibility Adjustment (§IV-E2, default on via
	// DefaultConfig).
	UseCA bool
	// Lambda is the CA threshold coefficient (default 0.15, Table IV).
	Lambda float64
	// BlockSide is the CA block edge (default 4).
	BlockSide int
	// StationaryPoints is the number of compressor runs per training field
	// (the paper averages 25).
	StationaryPoints int
	// AugmentPerField is the number of interpolated samples drawn per
	// training field's curve.
	AugmentPerField int
	// Model picks the regressor family (default RFR).
	Model ModelKind
	// Trees is the forest size for ModelRFR (default 100).
	Trees int
	// Seed drives all stochastic components.
	Seed int64
	// Parallelism bounds the worker pool used for stationary sweeps, feature
	// extraction and the CA block scan. 0 (the zero value) means all cores
	// (runtime.GOMAXPROCS(0)); 1 runs those stages serially on the calling
	// goroutine. The forest fit does not take it: ml.Forest.Fit grows its
	// trees over runtime.GOMAXPROCS(0) workers at every setting. Training
	// results are bit-identical at every setting: work is partitioned into
	// fixed, worker-count-independent units and assembled in index order.
	Parallelism int
}

// DefaultConfig returns the paper's configuration: stride-4 sampling, CA on
// with λ=0.15 and 4³ blocks, 25 stationary points, RFR with 100 trees.
func DefaultConfig() Config {
	return Config{
		Stride:           4,
		UseCA:            true,
		Lambda:           DefaultLambda,
		BlockSide:        DefaultBlockSide,
		StationaryPoints: 25,
		AugmentPerField:  150,
		Model:            ModelRFR,
		Trees:            100,
		Seed:             1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Stride == 0 {
		c.Stride = d.Stride
	}
	if c.Lambda == 0 {
		c.Lambda = d.Lambda
	}
	if c.BlockSide == 0 {
		c.BlockSide = d.BlockSide
	}
	if c.StationaryPoints == 0 {
		c.StationaryPoints = d.StationaryPoints
	}
	if c.AugmentPerField == 0 {
		c.AugmentPerField = d.AugmentPerField
	}
	if c.Model == "" {
		c.Model = d.Model
	}
	if c.Trees == 0 {
		c.Trees = d.Trees
	}
	return c
}

// TrainStats is the Table VI breakdown of where training time goes.
type TrainStats struct {
	// StationarySweep is the time spent running the compressor to collect
	// stationary points — the dominant cost; zero after TrainWithCurves,
	// which runs none.
	StationarySweep time.Duration
	// Augmentation is the (tiny) interpolation time.
	Augmentation time.Duration
	// ModelFit is the regressor training time.
	ModelFit time.Duration
	// Samples is the final training-set size.
	Samples int
	// FieldsTrained is the number of training fields.
	FieldsTrained int
}

// Total returns the end-to-end training time.
func (s TrainStats) Total() time.Duration {
	return s.StationarySweep + s.Augmentation + s.ModelFit
}

// Framework is a trained FXRZ instance for one compressor.
type Framework struct {
	cfg        Config
	axis       compress.Axis
	compressor string
	model      ml.Regressor
	stats      TrainStats
	// ratioLo/ratioHi record the adjusted-ratio hull seen in training, used
	// to flag extrapolating requests.
	ratioLo, ratioHi float64
	// trainX/trainY retain the augmented training set for post-hoc analysis
	// (feature importance); they are not persisted by Save.
	trainX [][]float64
	trainY []float64
}

// WithParallelism returns a copy of the framework whose analysis passes
// (feature extraction, CA scan) run with the given worker budget
// (pool.Workers semantics). The model, hull and stats are shared; estimates
// are bit-identical at every setting.
func (fw *Framework) WithParallelism(workers int) *Framework {
	cp := *fw
	cp.cfg.Parallelism = workers
	return &cp
}

// RelKnobMin and RelKnobMax bound the error-bound sweep relative to each
// field's value range; precision axes sweep their native integer domain.
// FRaZ searches the same range, as the paper does for a fair comparison.
const (
	RelKnobMin = 1e-6
	RelKnobMax = 0.25
)

// sweepKnobs returns the stationary-point knob settings for a field: for
// error-bound axes, n log-uniform bounds between RelKnobMin·range and
// RelKnobMax·range; for precision axes, n integer precisions spanning the
// axis domain.
func sweepKnobs(axis compress.Axis, f *grid.Field, n int) []float64 {
	if axis.Kind == compress.Precision {
		return axis.Span(n)
	}
	vr := f.ValueRange()
	if vr <= 0 {
		vr = 1
	}
	sub := compress.Axis{Kind: compress.AbsErrorBound, Min: RelKnobMin * vr, Max: RelKnobMax * vr}
	return sub.Span(n)
}

// Train builds an FXRZ framework for the compressor from the training
// fields: Sweep measures each field's stationary points (the only compressor
// runs in the whole pipeline), and TrainWithCurves learns from them.
func Train(c compress.Compressor, fields []*grid.Field, cfg Config) (*Framework, error) {
	defer obs.Span("train/total")()
	cfg = cfg.withDefaults()
	t0 := time.Now()
	curves, err := Sweep(c, fields, cfg.StationaryPoints, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	sweep := time.Since(t0)
	fw, err := TrainWithCurves(c, fields, cfg, curves)
	if err != nil {
		return nil, err
	}
	fw.stats.StationarySweep = sweep
	return fw, nil
}

// TrainWithCurves is Train on curves already measured by Sweep, curves[i]
// belonging to fields[i]; it runs no compressor. It lets experiment harnesses
// amortise sweeps across configurations that do not change the sweep itself
// (model family, λ, stride).
//
// Per field it augments the stationary points through the interpolation
// curve and assembles (features, ACR) → model-space-knob samples for the
// regressor. Feature extraction and CA scanning fan out across fields at
// cfg.Parallelism; the training set is then assembled serially in field
// order. Same seed + same fields therefore yield bit-identical models at
// every worker count.
func TrainWithCurves(c compress.Compressor, fields []*grid.Field, cfg Config, curves []*Curve) (*Framework, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("core: no training fields")
	}
	if len(curves) != len(fields) {
		return nil, fmt.Errorf("core: %d curves for %d training fields", len(curves), len(fields))
	}
	cfg = cfg.withDefaults()
	fw := &Framework{cfg: cfg, axis: c.Axis(), compressor: c.Name()}
	workers := pool.Workers(cfg.Parallelism)
	n := len(fields)
	obs.Add("train/fields", int64(n))

	// Per-field analysis. With a single field the pool parallelises
	// inside the reductions instead of across fields.
	type analysis struct {
		feats []float64
		r     float64
	}
	inner := 1
	if n == 1 {
		inner = workers
	}
	stopAnalysis := obs.Span("train/analysis")
	analyses := make([]analysis, n)
	pool.Run(workers, n, func(i int) {
		a := analysis{feats: ExtractFeaturesParallel(fields[i], cfg.Stride, inner).Vector(), r: 1}
		if cfg.UseCA {
			a.r = NonConstantRatioParallel(fields[i], cfg.BlockSide, cfg.Lambda, inner)
		}
		analyses[i] = a
	})
	stopAnalysis()

	// Serial assembly in field order — sample order, and with it the
	// seeded model fit, is independent of the worker count.
	var X [][]float64
	var y []float64
	fw.ratioLo, fw.ratioHi = 0, 0

	stopAssembly := obs.Span("train/assembly")
	t1 := time.Now()
	for i := range fields {
		feats := analyses[i].feats
		r := analyses[i].r
		samples := curves[i].Augment(cfg.AugmentPerField)

		for _, s := range samples {
			acr := s.Ratio
			if cfg.UseCA {
				acr = AdjustRatio(s.Ratio, r)
			}
			X = append(X, append(append([]float64(nil), feats...), acr))
			y = append(y, fw.axis.ToModel(s.Knob))
			if fw.ratioHi == 0 || acr > fw.ratioHi {
				fw.ratioHi = acr
			}
			if fw.ratioLo == 0 || acr < fw.ratioLo {
				fw.ratioLo = acr
			}
		}
		fw.stats.FieldsTrained++
	}
	stopAssembly()
	fw.stats.Augmentation = time.Since(t1)
	fw.stats.Samples = len(X)

	var model ml.Regressor
	switch cfg.Model {
	case ModelRFR:
		model = ml.NewForest(ml.ForestConfig{Trees: cfg.Trees, Seed: cfg.Seed})
	case ModelAdaBoost:
		model = ml.NewAdaBoost(ml.AdaBoostConfig{Estimators: 60, MaxDepth: 6, Seed: cfg.Seed})
	case ModelSVR:
		model = ml.NewSVR(ml.SVRConfig{C: 10, Epsilon: 0.05, Epochs: 120, Seed: cfg.Seed})
	default:
		return nil, fmt.Errorf("core: unknown model kind %q", cfg.Model)
	}
	t2 := time.Now()
	stopFit := obs.Span("train/fit")
	if err := model.Fit(X, y); err != nil {
		stopFit()
		return nil, fmt.Errorf("core: model fit: %w", err)
	}
	stopFit()
	fw.stats.ModelFit = time.Since(t2)
	fw.model = model
	fw.trainX, fw.trainY = X, y
	return fw, nil
}

// InputNames lists the model inputs in training order: the five adopted
// features followed by the (adjusted) target ratio.
var InputNames = []string{"ValueRange", "MeanValue", "MND", "MLD", "MSD", "ACR"}

// FeatureImportance returns the permutation importance of each model input
// over the retained training set (ΔMAE in model space when the input is
// shuffled). It quantifies which features the trained model actually leans
// on — the model-side complement of the paper's Table II correlations.
func (fw *Framework) FeatureImportance(repeats int, seed int64) ([]float64, error) {
	if fw.model == nil || len(fw.trainX) == 0 {
		return nil, fmt.Errorf("core: framework has no retained training data (loaded from disk?)")
	}
	return ml.PermutationImportance(fw.model, fw.trainX, fw.trainY, repeats, seed)
}

// Stats returns the training-time breakdown.
func (fw *Framework) Stats() TrainStats { return fw.stats }

// CompressorName reports which codec the framework was trained for.
func (fw *Framework) CompressorName() string { return fw.compressor }

// TrainedRatioRange reports the adjusted-ratio hull covered by training.
func (fw *Framework) TrainedRatioRange() (lo, hi float64) { return fw.ratioLo, fw.ratioHi }
