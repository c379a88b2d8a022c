package exp

import (
	"fmt"
	"math"
	"strings"

	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/core"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/ml"
)

// Fig2Result reproduces Fig 2: stationary (error bound, ratio) points with
// interpolated curves for SZ and ZFP on Nyx baryon density, plus the §IV-B
// leave-one-out interpolation error for all four compressors (paper: 3.04%,
// 3.96%, 5.48%, 4.34% for SZ, ZFP, FPZIP, MGARD+).
type Fig2Result struct {
	Curves       map[string][]core.Stationary
	InterpErrors map[string]float64
}

// Fig2 runs the experiment.
func Fig2(s *Session) (*Fig2Result, error) {
	f, err := datagen.NyxField("baryon_density", 1, 1, s.S.NyxSize)
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{Curves: map[string][]core.Stationary{}, InterpErrors: map[string]float64{}}
	cfg := s.Config()
	for _, name := range CompressorNames {
		c, err := codecs.ByName(name)
		if err != nil {
			return nil, err
		}
		knobs := core.SweepKnobs(c.Axis(), f, cfg.StationaryPoints)
		curve, err := core.BuildCurve(c, f, knobs)
		if err != nil {
			return nil, err
		}
		res.Curves[name] = curve.Points()
		ie, err := core.InterpolationError(c, f, knobs)
		if err != nil {
			return nil, err
		}
		res.InterpErrors[name] = ie
	}
	return res, nil
}

// String renders the figure as tables.
func (r *Fig2Result) String() string {
	out := ""
	for _, name := range CompressorNames {
		t := &Table{Title: fmt.Sprintf("Fig 2 — stationary points and interpolated curve (%s, Nyx baryon density)", name),
			Header: []string{"knob", "ratio"}}
		for _, p := range r.Curves[name] {
			t.AddRow(f4(p.Knob), f2(p.Ratio))
		}
		t.AddNote("leave-one-out interpolation error: %s (paper reports 3–5.5%% per compressor)", pct(r.InterpErrors[name]))
		out += t.String() + "\n"
	}
	return out
}

// fig3Dataset names the five datasets Fig 3 / Table I use.
type fig3Dataset struct {
	label string
	field *grid.Field
}

func fig3Datasets(s *Session) ([]fig3Dataset, error) {
	nyx, err := datagen.NyxField("baryon_density", 1, 1, s.S.NyxSize)
	if err != nil {
		return nil, err
	}
	qmc, err := datagen.QMCPackField(3, 0, s.S.QMCSize)
	if err != nil {
		return nil, err
	}
	rtmBig, err := datagen.RTMSnapshots("big", []int{s.S.RTMTestSteps[len(s.S.RTMTestSteps)-1]}, s.S.RTMSize)
	if err != nil {
		return nil, err
	}
	rtmSmall, err := datagen.RTMSnapshots("small", []int{s.S.RTMTrainSteps[len(s.S.RTMTrainSteps)-1]}, s.S.RTMSize)
	if err != nil {
		return nil, err
	}
	hur, err := datagen.HurricaneField("TC", 10, s.S.HurricaneSize)
	if err != nil {
		return nil, err
	}
	return []fig3Dataset{
		{"Nyx Baryon Density", nyx},
		{"QMCPack BigScale", qmc},
		{"RTM BigScale", rtmBig[0]},
		{"RTM SmallScale", rtmSmall[0]},
		{"Hurricane TC", hur},
	}, nil
}

// Fig3Table1Result reproduces Fig 3 (ratios across datasets and compressors
// at one bound) and Table I (feature values across the same datasets).
type Fig3Table1Result struct {
	Labels   []string
	Ratios   map[string][]float64 // compressor → per-dataset ratio
	Features []core.Features
}

// Fig3Table1 runs both: the bound is 1e-3 of each dataset's value range for
// the error-bound codecs (the paper's single absolute bound spans datasets
// with 5-orders-of-magnitude ranges only because its datasets are
// pre-normalised; the relative bound preserves the comparison) and precision
// 16 for FPZIP.
func Fig3Table1(s *Session) (*Fig3Table1Result, error) {
	ds, err := fig3Datasets(s)
	if err != nil {
		return nil, err
	}
	res := &Fig3Table1Result{Ratios: map[string][]float64{}}
	for _, d := range ds {
		res.Labels = append(res.Labels, d.label)
		res.Features = append(res.Features, core.ExtractFeatures(d.field, 1))
	}
	for _, name := range CompressorNames {
		c, err := codecs.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			knob := 16.0
			if c.Axis().Kind == compress.AbsErrorBound {
				knob = 1e-3 * d.field.ValueRange()
				if knob <= 0 {
					knob = 1e-6
				}
			}
			r, err := compress.CompressRatio(c, d.field, knob)
			if err != nil {
				return nil, fmt.Errorf("exp: fig3 %s on %s: %w", name, d.label, err)
			}
			res.Ratios[name] = append(res.Ratios[name], r)
		}
	}
	return res, nil
}

// String renders Fig 3 and Table I.
func (r *Fig3Table1Result) String() string {
	t := &Table{Title: "Fig 3 — compression ratios across datasets and compressors (bound = 1e-3·range; fpzip precision 16)",
		Header: append([]string{"dataset"}, CompressorNames...)}
	for i, lbl := range r.Labels {
		row := []string{lbl}
		for _, c := range CompressorNames {
			row = append(row, f2(r.Ratios[c][i]))
		}
		t.AddRow(row...)
	}
	t2 := &Table{Title: "Table I — feature values across datasets",
		Header: []string{"feature"},
	}
	t2.Header = append(t2.Header, r.Labels...)
	for fi, fname := range core.FeatureNames[:5] {
		row := []string{fname}
		for _, ft := range r.Features {
			row = append(row, f4(ft.FullVector()[fi]))
		}
		t2.AddRow(row...)
	}
	t2.AddNote("paper's signature: RTM has the smallest range/MND/MLD/MSD and the highest ratios")
	return t.String() + "\n" + t2.String()
}

// Table2Result reproduces Table II: per-compressor average |Pearson|
// correlation between each of the 8 features and the compression ratio,
// across applications and error bounds. The gradient features must come out
// weakest (the paper's reason to exclude them).
type Table2Result struct {
	// Corr[compressor][featureIndex] is the average |r|.
	Corr map[string][]float64
}

// Table2 computes the correlations: for each (application, bound), the
// correlation across the app's snapshots between feature value and measured
// ratio, averaged over apps and bounds.
func Table2(s *Session) (*Table2Result, error) {
	res := &Table2Result{Corr: map[string][]float64{}}
	relBounds := []float64{1e-4, 1e-3, 1e-2, 1e-1}
	precisions := []float64{12, 16, 20, 24}

	for _, cname := range CompressorNames {
		c, err := codecs.ByName(cname)
		if err != nil {
			return nil, err
		}
		sums := make([]float64, 8)
		n := 0
		for _, app := range Apps {
			fields, err := s.TrainFields(app)
			if err != nil {
				return nil, err
			}
			if len(fields) < 3 {
				continue
			}
			// Feature matrix across the app's snapshots.
			feats := make([][]float64, len(fields))
			for i, f := range fields {
				feats[i] = core.ExtractFeatures(f, s.Config().Stride).FullVector()
			}
			knobsFor := func(f *grid.Field, rel float64) float64 {
				vr := f.ValueRange()
				if vr <= 0 {
					vr = 1
				}
				return rel * vr
			}
			settings := relBounds
			if c.Axis().Kind == compress.Precision {
				settings = precisions
			}
			for _, setting := range settings {
				ratios := make([]float64, len(fields))
				for i, f := range fields {
					knob := setting
					if c.Axis().Kind == compress.AbsErrorBound {
						knob = knobsFor(f, setting)
					}
					r, err := compress.CompressRatio(c, f, knob)
					if err != nil {
						return nil, err
					}
					ratios[i] = r
				}
				for fi := 0; fi < 8; fi++ {
					col := make([]float64, len(fields))
					for i := range fields {
						col[i] = feats[i][fi]
					}
					sums[fi] += math.Abs(ml.Pearson(col, ratios))
				}
				n++
			}
		}
		corr := make([]float64, 8)
		for i := range corr {
			if n > 0 {
				corr[i] = sums[i] / float64(n)
			}
		}
		res.Corr[cname] = corr
	}
	return res, nil
}

// AdoptedBeatGradients reports whether the paper's feature selection
// conclusion holds: the mean correlation of the five adopted features
// exceeds that of the three gradient features for the compressor.
func (r *Table2Result) AdoptedBeatGradients(compressor string) bool {
	c := r.Corr[compressor]
	if len(c) != 8 {
		return false
	}
	adopted := (c[0] + c[1] + c[2] + c[3] + c[4]) / 5
	grads := (c[5] + c[6] + c[7]) / 3
	return adopted > grads
}

// String renders Table II.
func (r *Table2Result) String() string {
	t := &Table{Title: "Table II — average |Pearson| correlation between features and compression ratio",
		Header: append([]string{"compressor"}, core.FeatureNames...)}
	var wins []string
	for _, c := range CompressorNames {
		row := []string{c}
		for _, v := range r.Corr[c] {
			row = append(row, f2(v))
		}
		t.AddRow(row...)
		if r.AdoptedBeatGradients(c) {
			wins = append(wins, c)
		}
	}
	t.AddNote("paper: adopted features (first five) correlate ~0.6–0.8; gradient features weakest")
	t.AddNote("verdict: adopted features out-correlate the gradient features for %d/%d compressors (%s)",
		len(wins), len(CompressorNames), strings.Join(wins, ", "))
	return t.String()
}
