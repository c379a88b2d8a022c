// Benchmarks regenerating every table and figure of the paper's evaluation
// at Tiny scale (run `cmd/expbench -scale small` for the paper-methodology
// runs; EXPERIMENTS.md records both). Custom metrics carry the quantities
// the paper reports: estimation errors as `err%`, speedups as `x`.
package fxrz_test

import (
	"sync"
	"testing"

	"github.com/fxrz-go/fxrz/internal/exp"
)

var (
	benchSession     *exp.Session
	benchSessionOnce sync.Once

	benchCompare     *exp.CompareResult
	benchCompareErr  error
	benchCompareOnce sync.Once
)

func session() *exp.Session {
	benchSessionOnce.Do(func() { benchSession = exp.NewSession(exp.Tiny) })
	return benchSession
}

// compare runs the expensive FXRZ-vs-FRaZ grid once and is shared by the
// Fig 12, Fig 13 and Table VIII benchmarks.
func compare(b *testing.B) *exp.CompareResult {
	benchCompareOnce.Do(func() {
		benchCompare, benchCompareErr = exp.Compare(session(), exp.Apps, exp.CompressorNames, 1)
	})
	if benchCompareErr != nil {
		b.Fatal(benchCompareErr)
	}
	return benchCompare
}

func BenchmarkFig2AugmentationCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig2(session())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.InterpErrors["sz"], "sz-interp-err%")
		b.ReportMetric(100*r.InterpErrors["zfp"], "zfp-interp-err%")
	}
}

func BenchmarkFig3CrossDatasetRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig3Table1(session())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratios["sz"][0], "sz-nyx-ratio")
	}
}

func BenchmarkTable1FeatureValues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig3Table1(session())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Features[0].ValueRange, "nyx-range")
	}
}

func BenchmarkTable2FeatureCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Table2(session())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Corr["sz"][0], "sz-valuerange-corr")
		wins := 0.0
		for _, c := range exp.CompressorNames {
			if r.AdoptedBeatGradients(c) {
				wins++
			}
		}
		b.ReportMetric(wins, "adopted-beat-gradients/4")
	}
}

func BenchmarkTable3ModelSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Table3(session())
		if err != nil {
			b.Fatal(err)
		}
		if !r.RFRBest() {
			b.Log("warning: RFR not best in this run")
		}
	}
}

func BenchmarkSamplingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Sampling(session())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.ErrSampled, "sampled-err%")
		b.ReportMetric(100*r.ErrFull, "full-err%")
		if r.FeatTimeSampled > 0 {
			b.ReportMetric(float64(r.FeatTimeFull)/float64(r.FeatTimeSampled), "feat-speedup-x")
		}
	}
}

func BenchmarkTable4LambdaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Table4(session())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Err["nyx"]["sz"][0.15], "nyx-sz-λ0.15-err%")
	}
}

func BenchmarkFig7CompressibilityAdjustment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig7(session())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.AvgErrWith["sz"], "with-CA-err%")
		b.ReportMetric(100*r.AvgErrWithout["sz"], "without-CA-err%")
	}
}

func BenchmarkTable7CAValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Table7(session())
		if err != nil {
			b.Fatal(err)
		}
		p := r.Err["nyx"]["sz"]
		b.ReportMetric(100*p[0], "with-CA-err%")
		b.ReportMetric(100*p[1], "without-CA-err%")
	}
}

func BenchmarkFig89DatasetVariability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig89(session())
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range r.Distances {
			b.ReportMetric(d, "hist-distance")
			break
		}
	}
}

func BenchmarkFig10Distortion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig10(session())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0][2], "tight-psnr-dB")
		b.ReportMetric(100*r.Rows[2][3], "loose-displaced%")
	}
}

func BenchmarkFig11ValidRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11(session()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6TrainingTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Table6(session())
		if err != nil {
			b.Fatal(err)
		}
		st := r.Stats["nyx"]["sz"]
		b.ReportMetric(st.Total().Seconds(), "nyx-sz-train-s")
	}
}

func BenchmarkFig12AccuracyCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := compare(b)
		if r.Fig12String() == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig13EstimationError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := compare(b)
		fx, fr := r.Averages()
		b.ReportMetric(100*fx, "fxrz-err%")
		b.ReportMetric(100*fr[6], "fraz6-err%")
		b.ReportMetric(100*fr[15], "fraz15-err%")
	}
}

func BenchmarkTable8AnalysisCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := compare(b)
		b.ReportMetric(r.SpeedupOverFRaZ(15), "speedup-x")
	}
}

func BenchmarkFig14CrossScope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig14(session())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Err["sz"][0], "fxrz-sz-err%")
		b.ReportMetric(100*r.Err["sz"][1], "fraz-sz-err%")
	}
}

func BenchmarkZFPRateAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.ZFPRate(session())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanInflation(), "rate-err-inflation-x")
	}
}

func BenchmarkParallelDumping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Dump(session())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0][2], "gain-512ranks-x")
		b.ReportMetric(r.Rows[len(r.Rows)-1][2], "gain-4096ranks-x")
	}
}
