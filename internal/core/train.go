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
	// (runtime.GOMAXPROCS(0)); 1 runs everything serially on the calling
	// goroutine. Training results are bit-identical at every setting: work is
	// partitioned into fixed, worker-count-independent units and assembled in
	// index order.
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
	// stationary points — the dominant cost.
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

// SweepKnobs returns the stationary-point knob settings for a field: for
// error-bound axes, n log-uniform bounds between RelKnobMin·range and
// RelKnobMax·range; for precision axes, n integer precisions spanning the
// axis domain.
func SweepKnobs(axis compress.Axis, f *grid.Field, n int) []float64 {
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
// fields. Per field it measures stationary points (the only compressor runs
// in the whole pipeline), augments them through the interpolation curve, and
// assembles (features, ACR) → model-space-knob samples for the regressor.
func Train(c compress.Compressor, fields []*grid.Field, cfg Config) (*Framework, error) {
	return TrainWithCurves(c, fields, cfg, nil)
}

// TrainWithCurves is Train with an optional cache of pre-measured stationary
// curves keyed by field name. Fields missing from the cache are swept with
// the compressor as usual; cached fields cost no compressor runs. The cache
// lets experiment harnesses amortise sweeps across configurations that do
// not change the sweep itself (model family, λ, stride).
//
// Cache ownership contract: the curves map is read only on the calling
// goroutine, before any worker starts — a snapshot of the relevant entries is
// taken up front, so worker goroutines never touch the map. The caller must
// not mutate the map (or the cached curves) for the duration of the call;
// after TrainWithCurves returns, the map is the caller's again.
//
// The pipeline runs in three stages, each deterministic at any
// cfg.Parallelism: per-field feature extraction and CA scanning fan out
// across fields; the stationary sweeps for all uncached fields are flattened
// into one (field, knob) task list through a single bounded pool, with each
// measurement landing in its own indexed slot; the training set is then
// assembled serially in field order. Same seed + same fields therefore yield
// bit-identical models at every worker count.
func TrainWithCurves(c compress.Compressor, fields []*grid.Field, cfg Config, curves map[string]*Curve) (*Framework, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("core: no training fields")
	}
	defer obs.Span("train/total")()
	cfg = cfg.withDefaults()
	fw := &Framework{cfg: cfg, axis: c.Axis(), compressor: c.Name()}
	workers := pool.Workers(cfg.Parallelism)
	n := len(fields)
	obs.Add("train/fields", int64(n))

	// Snapshot the cache serially (see the ownership contract above).
	stopSnapshot := obs.Span("train/snapshot")
	fieldCurves := make([]*Curve, n)
	for i, f := range fields {
		fieldCurves[i] = curves[f.Name]
	}
	stopSnapshot()

	// Stage A: per-field analysis. With a single field the pool parallelises
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

	// Stage B: one flat (field, knob) task list for every uncached field.
	// RunErr reports the lowest-indexed failure, which is the same error the
	// serial field-by-field, knob-by-knob loop would have surfaced.
	type sweepTask struct {
		field int
		knob  float64
	}
	knobCount := make([]int, n)
	var tasks []sweepTask
	for i, f := range fields {
		if fieldCurves[i] != nil {
			continue
		}
		knobs := SweepKnobs(fw.axis, f, cfg.StationaryPoints)
		if len(knobs) < 2 {
			return nil, fmt.Errorf("core: training on %s: core: need at least 2 stationary knobs, got %d", f.Name, len(knobs))
		}
		knobCount[i] = len(knobs)
		for _, k := range knobs {
			tasks = append(tasks, sweepTask{field: i, knob: k})
		}
	}
	pts := make([]Stationary, len(tasks))
	t0 := time.Now()
	stopSweep := obs.Span("train/sweep")
	obs.Add("train/sweep_tasks", int64(len(tasks)))
	// Budget rule for nested pools: outer×inner ≈ workers, and the codec is
	// explicitly pinned to the inner width so a parallel-capable compressor's
	// zero-value default (all cores) cannot oversubscribe inside each task.
	sweepOuter, sweepInner := pool.Split(workers, len(tasks))
	cc := compress.WithWorkers(c, sweepInner)
	err := pool.RunErr(sweepOuter, len(tasks), func(ti int) error {
		t := tasks[ti]
		f := fields[t.field]
		r, err := compress.CompressRatio(cc, f, t.knob)
		if err != nil {
			return fmt.Errorf("core: training on %s: core: stationary point knob=%g on %s: %w", f.Name, t.knob, f.Name, err)
		}
		pts[ti] = Stationary{Knob: t.knob, Ratio: r}
		return nil
	})
	stopSweep()
	if err != nil {
		return nil, err
	}
	fw.stats.StationarySweep = time.Since(t0)

	ti := 0
	for i, f := range fields {
		if fieldCurves[i] != nil {
			continue
		}
		curve, err := NewCurve(fw.axis, pts[ti:ti+knobCount[i]])
		if err != nil {
			return nil, fmt.Errorf("core: training on %s: %w", f.Name, err)
		}
		fieldCurves[i] = curve
		ti += knobCount[i]
	}

	// Stage C: serial assembly in field order — sample order, and with it the
	// seeded model fit, is independent of the worker count.
	var X [][]float64
	var y []float64
	fw.ratioLo, fw.ratioHi = 0, 0

	stopAssembly := obs.Span("train/assembly")
	t1 := time.Now()
	for i := range fields {
		feats := analyses[i].feats
		r := analyses[i].r
		samples := fieldCurves[i].Augment(cfg.AugmentPerField)

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
