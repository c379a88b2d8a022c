// Package exp reproduces every table and figure of the paper's evaluation
// (§V). Each experiment is a function returning a structured, renderable
// result and one row of the Experiments table, which cmd/expbench ranges
// over. A Session caches generated datasets, trained frameworks and the
// FXRZ-vs-FRaZ grid so experiments sharing inputs do not repeat work.
package exp

import (
	"fmt"
	"sync"

	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/core"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// Apps lists the four applications of Table V, in table order.
var Apps = []string{"nyx", "qmcpack", "rtm", "hurricane"}

// CompressorNames lists the four codecs in the order the paper's tables use.
var CompressorNames = []string{"sz", "zfp", "mgard", "fpzip"}

// Scale sizes the experiment suite. The paper runs 512³ fields on a
// supercomputer; these presets keep the same structure at laptop scale.
type Scale struct {
	Name string
	// Base edge sizes per application (see datagen for the resulting dims).
	NyxSize, HurricaneSize, QMCSize, RTMSize int
	// Time-step splits (capability level 1 for Hurricane, §V-A2).
	NyxTrainSteps       []int
	NyxTestStep         int
	HurricaneTrainSteps []int
	HurricaneTestStep   int
	RTMTrainSteps       []int
	RTMTestSteps        []int
	// Framework knobs.
	Stationary      int
	AugmentPerField int
	Trees           int
	// TCRs is the number of target ratios evaluated per test field (the
	// paper uses ~25).
	TCRs int
	// FRaZIters are the baseline iteration caps (paper: 6 and 15).
	FRaZIters []int
	// Parallelism bounds the worker pool for sweeps and analysis (0 = all
	// cores, 1 = serial; see core.Config.Parallelism).
	Parallelism int
}

// Tiny is the bench/test preset: small enough for CI, large enough that
// every mechanism (CA, sampling, augmentation, search) is exercised.
var Tiny = Scale{
	Name:    "tiny",
	NyxSize: 20, HurricaneSize: 8, QMCSize: 12, RTMSize: 6,
	NyxTrainSteps:       []int{1, 3, 5},
	NyxTestStep:         2,
	HurricaneTrainSteps: []int{5, 10, 15, 20, 25, 30},
	HurricaneTestStep:   48,
	RTMTrainSteps:       []int{100, 130, 160, 190, 220, 250, 280},
	RTMTestSteps:        []int{170, 260},
	Stationary:          12,
	AugmentPerField:     80,
	Trees:               50,
	TCRs:                8,
	FRaZIters:           []int{6, 15},
}

// Small is the expbench default: close to the paper's methodology (25
// stationary points, 25 targets) on fields of a few hundred thousand cells.
var Small = Scale{
	Name:    "small",
	NyxSize: 48, HurricaneSize: 16, QMCSize: 20, RTMSize: 12,
	NyxTrainSteps:       []int{1, 2, 3, 4, 5, 6},
	NyxTestStep:         3,
	HurricaneTrainSteps: []int{5, 10, 15, 20, 25, 30},
	HurricaneTestStep:   48,
	RTMTrainSteps:       []int{100, 150, 200, 300, 400, 450, 500},
	RTMTestSteps:        []int{300, 500},
	Stationary:          25,
	AugmentPerField:     150,
	Trees:               100,
	TCRs:                25,
	FRaZIters:           []int{6, 15},
}

// Session caches datasets, stationary curves and trained frameworks for one
// scale.
type Session struct {
	S Scale

	mu     sync.Mutex
	train  map[string][]*grid.Field
	test   map[string][]*grid.Field
	frames map[frameKey]*core.Framework
	// curves holds stationary-point curves per app/codec in TrainFields
	// order, and per test/codec/field for TestCurve.
	curves map[string][]*core.Curve
	// compares holds the FXRZ-vs-FRaZ grid per Options, shared by every
	// experiment that renders a view of it.
	compares map[string]*CompareResult
}

// NewSession returns an empty cache for the scale.
func NewSession(s Scale) *Session {
	return &Session{
		S:      s,
		train:  map[string][]*grid.Field{},
		test:   map[string][]*grid.Field{},
		frames: map[frameKey]*core.Framework{},
		curves: map[string][]*core.Curve{},

		compares: map[string]*CompareResult{},
	}
}

// compare returns (and caches) the Compare grid over every application for
// the given options.
func (s *Session) compare(o Options) (*CompareResult, error) {
	return cached(s, s.compares, fmt.Sprint(o), func() (*CompareResult, error) {
		comps := o.Comps
		if len(comps) == 0 {
			comps = CompressorNames
		}
		return Compare(s, Apps, comps, o.MaxTestFields)
	})
}

// cached returns m[key], building and storing it on a miss. The session's
// lock is not held while building, so a build may use the other caches.
func cached[K comparable, V any](s *Session, m map[K]V, key K, build func() (V, error)) (V, error) {
	s.mu.Lock()
	v, ok := m[key]
	s.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	s.mu.Lock()
	m[key] = v
	s.mu.Unlock()
	return v, nil
}

// Curves returns (and caches) the stationary-point curves of an
// application's training fields under one compressor, in TrainFields order —
// the expensive sweep every training-based experiment shares.
func (s *Session) Curves(app, comp string) ([]*core.Curve, error) {
	return cached(s, s.curves, app+"/"+comp, func() ([]*core.Curve, error) {
		fields, err := s.TrainFields(app)
		if err != nil {
			return nil, err
		}
		c, err := codecs.ByName(comp)
		if err != nil {
			return nil, err
		}
		cfg := s.Config()
		cs, err := core.Sweep(c, fields, cfg.StationaryPoints, cfg.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("exp: sweeping %s for %s: %w", app, comp, err)
		}
		return cs, nil
	})
}

// Config returns the default framework configuration at this scale.
func (s *Session) Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.StationaryPoints = s.S.Stationary
	cfg.AugmentPerField = s.S.AugmentPerField
	cfg.Trees = s.S.Trees
	cfg.Parallelism = s.S.Parallelism
	return cfg
}

// TrainFields returns (and caches) the training split of an application,
// mirroring §V-A2: Nyx config 1 across time steps, QMCPack configs 1–2, RTM
// small-scale snapshots, Hurricane early time steps.
func (s *Session) TrainFields(app string) ([]*grid.Field, error) {
	fs, err := cached(s, s.train, app, func() ([]*grid.Field, error) { return s.buildFields(app, true) })
	// Return a copy: callers appending to the result must not be able to
	// alias the cache's backing array.
	return append([]*grid.Field(nil), fs...), err
}

// TestFields returns (and caches) the test split: Nyx config 2, QMCPack
// config 3, RTM big-scale, Hurricane time step 48.
func (s *Session) TestFields(app string) ([]*grid.Field, error) {
	fs, err := cached(s, s.test, app, func() ([]*grid.Field, error) { return s.buildFields(app, false) })
	return append([]*grid.Field(nil), fs...), err
}

func (s *Session) buildFields(app string, train bool) ([]*grid.Field, error) {
	var out []*grid.Field
	switch app {
	case "nyx":
		if train {
			for _, field := range datagen.NyxFields {
				for _, ts := range s.S.NyxTrainSteps {
					f, err := datagen.NyxField(field, 1, ts, s.S.NyxSize)
					if err != nil {
						return nil, err
					}
					out = append(out, f)
				}
			}
		} else {
			for _, field := range datagen.NyxFields {
				f, err := datagen.NyxField(field, 2, s.S.NyxTestStep, s.S.NyxSize)
				if err != nil {
					return nil, err
				}
				out = append(out, f)
			}
		}
	case "qmcpack":
		if train {
			for _, cfg := range []int{1, 2} {
				for _, spin := range []int{0, 1} {
					f, err := datagen.QMCPackField(cfg, spin, s.S.QMCSize)
					if err != nil {
						return nil, err
					}
					out = append(out, f)
				}
			}
		} else {
			for _, spin := range []int{0, 1} {
				f, err := datagen.QMCPackField(3, spin, s.S.QMCSize)
				if err != nil {
					return nil, err
				}
				out = append(out, f)
			}
		}
	case "rtm":
		if train {
			return datagen.RTMSnapshots("small", s.S.RTMTrainSteps, s.S.RTMSize)
		}
		return datagen.RTMSnapshots("big", s.S.RTMTestSteps, s.S.RTMSize)
	case "hurricane":
		steps := s.S.HurricaneTrainSteps
		if !train {
			steps = []int{s.S.HurricaneTestStep}
		}
		for _, field := range datagen.HurricaneFields {
			for _, ts := range steps {
				f, err := datagen.HurricaneField(field, ts, s.S.HurricaneSize)
				if err != nil {
					return nil, err
				}
				out = append(out, f)
			}
		}
	default:
		return nil, fmt.Errorf("exp: unknown app %q", app)
	}
	return out, nil
}

// frameKey names one cached framework: an application's training fields
// under one compressor, trained with one configuration.
type frameKey struct {
	app, comp string
	cfg       core.Config
}

// Framework returns (and caches) the framework an (application, compressor)
// pair trains to under cfg, on the cached stationary curves. The default
// s.Config() and every ablation variant share this one cache, so a variant
// equal to the default trains once.
func (s *Session) Framework(app, comp string, cfg core.Config) (*core.Framework, error) {
	return cached(s, s.frames, frameKey{app, comp, cfg}, func() (*core.Framework, error) {
		fields, err := s.TrainFields(app)
		if err != nil {
			return nil, err
		}
		c, err := codecs.ByName(comp)
		if err != nil {
			return nil, err
		}
		curves, err := s.Curves(app, comp)
		if err != nil {
			return nil, err
		}
		fw, err := core.TrainWithCurves(c, fields, cfg, curves)
		if err != nil {
			return nil, fmt.Errorf("exp: training %s/%s: %w", app, comp, err)
		}
		return fw, nil
	})
}

// TestCurve returns (and caches) the ground-truth knob↔ratio curve of one
// *test* field — experiment setup only, used to pick valid target ranges the
// way the paper does per dataset (§V-C, Fig 11). FXRZ itself never sees it.
func (s *Session) TestCurve(comp string, f *grid.Field) (*core.Curve, error) {
	cs, err := cached(s, s.curves, "test/"+comp+"/"+f.Name, func() ([]*core.Curve, error) {
		c, err := codecs.ByName(comp)
		if err != nil {
			return nil, err
		}
		cfg := s.Config()
		cs, err := core.Sweep(c, []*grid.Field{f}, cfg.StationaryPoints, cfg.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("exp: ground-truth sweep for %s: %w", comp, err)
		}
		return cs, nil
	})
	if err != nil {
		return nil, err
	}
	return cs[0], nil
}

// Targets returns n target ratios for a test field, uniformly covering the
// intersection of the framework's valid range with the field's ground-truth
// achievable range, trimmed 10% at each end — the paper's "25 different
// values uniformly ... all reasonable/applicable" (§V-F1), where
// reasonableness is likewise established per dataset by the experimenters.
func (s *Session) Targets(fw *core.Framework, comp string, f *grid.Field, n int) ([]float64, error) {
	lo, hi := fw.ValidRatioRange(f)
	gt, err := s.TestCurve(comp, f)
	if err != nil {
		return nil, err
	}
	c, err := codecs.ByName(comp)
	if err != nil {
		return nil, err
	}
	if c.Axis().Kind == compress.Precision {
		// Integer-precision codecs (FPZIP) have stairwise ratio curves:
		// ratios between two consecutive precisions are unrealisable by any
		// method (the paper makes the same point for ZFP's stairs, §V-F1,
		// and tunes "reasonable settings ... across compressors"). Targets
		// are therefore drawn from the achievable stationary ratios.
		var achievable []float64
		for _, p := range gt.Points() {
			if p.Ratio >= lo && p.Ratio <= hi {
				achievable = append(achievable, p.Ratio)
			}
		}
		if len(achievable) == 0 {
			mid := (lo + hi) / 2
			return []float64{mid}, nil
		}
		if len(achievable) <= n {
			return achievable, nil
		}
		if n < 2 {
			return []float64{achievable[len(achievable)/2]}, nil
		}
		out := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, achievable[i*(len(achievable)-1)/(n-1)])
		}
		return out, nil
	}
	glo, ghi := gt.RatioRange()
	if glo > lo {
		lo = glo
	}
	if ghi < hi {
		hi = ghi
	}
	span := hi - lo
	lo, hi = lo+0.10*span, hi-0.10*span
	if n < 2 || !(hi > lo) {
		return []float64{(lo + hi) / 2}, nil
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, lo+(hi-lo)*float64(i)/float64(n-1))
	}
	return out, nil
}
