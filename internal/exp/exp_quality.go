package exp

import (
	"fmt"
	"time"

	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/core"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/metrics"
)

// Fig89Result reproduces Figs 8–9: training and test data must genuinely
// differ, shown by distribution distance and standard deviations.
type Fig89Result struct {
	// Rows: app label, train σ, test σ, histogram L1 distance.
	Rows [][4]string
	// Distances keyed by app for programmatic checks.
	Distances map[string]float64
}

// Fig89 compares a representative train/test pair per capability level:
// Hurricane QCLOUD ts5 vs ts48 (level 1) and Nyx baryon config 1 vs 2
// (level 2).
func Fig89(s *Session) (*Fig89Result, error) {
	res := &Fig89Result{Distances: map[string]float64{}}

	hTrain, err := datagen.HurricaneField("QCLOUD", s.S.HurricaneTrainSteps[0], s.S.HurricaneSize)
	if err != nil {
		return nil, err
	}
	hTest, err := datagen.HurricaneField("QCLOUD", s.S.HurricaneTestStep, s.S.HurricaneSize)
	if err != nil {
		return nil, err
	}
	nTrain, err := datagen.NyxField("baryon_density", 1, s.S.NyxTrainSteps[0], s.S.NyxSize)
	if err != nil {
		return nil, err
	}
	nTest, err := datagen.NyxField("baryon_density", 2, s.S.NyxTestStep, s.S.NyxSize)
	if err != nil {
		return nil, err
	}
	type pair struct {
		label       string
		train, test *grid.Field
	}
	for _, p := range []pair{
		{"Hurricane QCLOUD (level 1: ts)", hTrain, hTest},
		{"Nyx Baryon Density (level 2: config)", nTrain, nTest},
	} {
		d, err := metrics.HistogramDistance(p.train, p.test, 64)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, [4]string{
			p.label,
			f4(metrics.StdDev(p.train)),
			f4(metrics.StdDev(p.test)),
			f4(d),
		})
		res.Distances[p.label] = d
	}
	return res, nil
}

// String renders Figs 8–9.
func (r *Fig89Result) String() string {
	t := &Table{Title: "Figs 8–9 — train/test variability",
		Header: []string{"dataset pair", "train stddev", "test stddev", "hist L1 distance"}}
	for _, row := range r.Rows {
		t.AddRow(row[0], row[1], row[2], row[3])
	}
	t.AddNote("non-zero distances confirm test data differs from training data")
	return t.String()
}

// Fig10Result reproduces Fig 10's distortion analysis: PSNR and structure
// (halo) displacement at the paper's three SZ error bounds on Nyx baryon
// density. The paper reports 0.46%/10.81%/79.17% halos mislocated at bounds
// 0.001/0.05/0.45 (relative to a range of ~4.9).
type Fig10Result struct {
	// Rows of (bound, ratio, PSNR, displaced fraction).
	Rows [][4]float64
}

// Fig10 runs SZ at three relative bounds spanning mild to severe distortion.
func Fig10(s *Session) (*Fig10Result, error) {
	f, err := datagen.NyxField("baryon_density", 1, 1, s.S.NyxSize)
	if err != nil {
		return nil, err
	}
	c, err := codecs.ByName("sz")
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	vr := f.ValueRange()
	for _, rel := range []float64{0.0002, 0.01, 0.09} { // ≈ paper's 0.001/0.05/0.45 on range ~4.9
		eb := rel * vr
		blob, err := c.Compress(f, eb)
		if err != nil {
			return nil, err
		}
		g, err := c.Decompress(blob)
		if err != nil {
			return nil, err
		}
		psnr, err := metrics.PSNR(f, g)
		if err != nil {
			return nil, err
		}
		disp, err := metrics.StructureDisplacement(f, g, 8)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, [4]float64{eb, compress.Ratio(f, blob), psnr, disp})
	}
	return res, nil
}

// String renders Fig 10.
func (r *Fig10Result) String() string {
	t := &Table{Title: "Fig 10 — distortion vs error bound (SZ, Nyx baryon density)",
		Header: []string{"error bound", "ratio", "PSNR (dB)", "structures displaced"}}
	for _, row := range r.Rows {
		t.AddRow(f4(row[0]), f2(row[1]), f2(row[2]), pct(row[3]))
	}
	t.AddNote("paper: halo mislocation grows 0.46%% → 10.81%% → 79.17%% across its three bounds")
	return t.String()
}

// Fig11Result reproduces Fig 11: the valid compression-ratio range per
// dataset (here: the trained framework's ratio hull, which the experiments
// draw targets from).
type Fig11Result struct {
	// Rows: dataset, compressor, lo, hi.
	Rows [][4]string
}

// Fig11 reports ranges for the paper's two example datasets with SZ.
func Fig11(s *Session) (*Fig11Result, error) {
	res := &Fig11Result{}
	for _, app := range []string{"nyx", "qmcpack"} {
		fw, err := s.Framework(app, "sz", s.Config())
		if err != nil {
			return nil, err
		}
		tests, err := s.TestFields(app)
		if err != nil {
			return nil, err
		}
		for _, f := range tests[:1] {
			lo, hi := fw.ValidRatioRange(f)
			res.Rows = append(res.Rows, [4]string{f.Name, "sz", f2(lo), f2(hi)})
		}
	}
	return res, nil
}

// String renders Fig 11.
func (r *Fig11Result) String() string {
	t := &Table{Title: "Fig 11 — valid compression-ratio range (SZ)",
		Header: []string{"dataset", "compressor", "ratio lo", "ratio hi"}}
	for _, row := range r.Rows {
		t.AddRow(row[0], row[1], row[2], row[3])
	}
	t.AddNote("targets outside the range would need distortion beyond the dataset's acceptable band")
	return t.String()
}

// Table6Result reproduces Table VI: the FXRZ training-time breakdown per
// (application, compressor).
type Table6Result struct {
	// Stats[app][compressor].
	Stats map[string]map[string]core.TrainStats
}

// Table6 trains fresh frameworks (no sweep cache) so the timing is honest.
func Table6(s *Session) (*Table6Result, error) {
	res := &Table6Result{Stats: map[string]map[string]core.TrainStats{}}
	for _, app := range Apps {
		res.Stats[app] = map[string]core.TrainStats{}
		fields, err := s.TrainFields(app)
		if err != nil {
			return nil, err
		}
		for _, cname := range CompressorNames {
			c, err := codecs.ByName(cname)
			if err != nil {
				return nil, err
			}
			fw, err := core.Train(c, fields, s.Config())
			if err != nil {
				return nil, err
			}
			res.Stats[app][cname] = fw.Stats()
		}
	}
	return res, nil
}

// String renders Table VI.
func (r *Table6Result) String() string {
	t := &Table{Title: "Table VI — FXRZ training time breakdown",
		Header: []string{"app", "compressor", "stationary sweep", "augmentation", "model fit", "total", "samples"}}
	var grand time.Duration
	cells := 0
	for _, app := range Apps {
		for _, c := range CompressorNames {
			st := r.Stats[app][c]
			t.AddRow(app, c, st.StationarySweep.Round(time.Millisecond).String(),
				st.Augmentation.Round(time.Microsecond).String(),
				st.ModelFit.Round(time.Millisecond).String(),
				st.Total().Round(time.Millisecond).String(),
				fmt.Sprintf("%d", st.Samples))
			grand += st.Total()
			cells++
		}
	}
	if cells > 0 {
		t.AddNote("mean training time %v (paper: 13.59 min on 512³ supercomputer datasets; the sweep dominates in both)", (grand / time.Duration(cells)).Round(time.Millisecond))
	}
	return t.String()
}
