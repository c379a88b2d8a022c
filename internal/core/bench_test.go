package core

import (
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress/compresstest"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/sz"
)

func BenchmarkExtractFeaturesStride4(b *testing.B) {
	f := compresstest.BenchField()
	b.SetBytes(int64(f.Bytes()))
	for i := 0; i < b.N; i++ {
		ExtractFeatures(f, 4)
	}
}

func BenchmarkExtractFeaturesFull(b *testing.B) {
	f := compresstest.BenchField()
	b.SetBytes(int64(f.Bytes()))
	for i := 0; i < b.N; i++ {
		ExtractFeatures(f, 1)
	}
}

func BenchmarkNonConstantRatio(b *testing.B) {
	f := compresstest.BenchField()
	b.SetBytes(int64(f.Bytes()))
	for i := 0; i < b.N; i++ {
		NonConstantRatioParallel(f, 4, 0.15, 1)
	}
}

// BenchmarkKernelCAScan times the whole Compressibility Adjustment — mean
// and block scan — the old way (nonConstantRatioOracle: a Mean pass, then a
// per-block odometer walk) against NonConstantRatioParallel's one streaming
// pass at width 1. Each iteration scans the block-aligned standard bench
// field and a crop of it that is ragged in every dimension. cmd/benchguard's
// ca_scan row reads the odometer and fast legs.
func BenchmarkKernelCAScan(b *testing.B) {
	aligned := compresstest.BenchField()
	ragged, err := grid.SliceRegion(aligned, []int{0, 0, 0}, []int{61, 63, 62})
	if err != nil {
		b.Fatal(err)
	}
	fields := []*grid.Field{aligned, ragged}
	for _, v := range []struct {
		name string
		scan func(*grid.Field, int, float64) float64
	}{{"odometer", nonConstantRatioOracle}, {"fast", func(f *grid.Field, side int, lambda float64) float64 {
		return NonConstantRatioParallel(f, side, lambda, 1)
	}}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(aligned.Bytes() + ragged.Bytes()))
			for i := 0; i < b.N; i++ {
				for _, f := range fields {
					benchSink = v.scan(f, DefaultBlockSide, DefaultLambda)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(aligned.Size()+ragged.Size()), "ns/elem")
		})
	}
}

// BenchmarkKernelFeatures3D times the estimate's feature pass at the
// default stride 4 the old way (ExtractFeatures: a grid.Subsample copy, then
// the generic pass over all eight features) against
// ExtractFeaturesParallel's in-place rank-3 kernel at width 1, on the
// standard bench field and a crop of it that is ragged in every dimension.
// cmd/benchguard's features_3d row reads the oracle and lattice legs.
func BenchmarkKernelFeatures3D(b *testing.B) {
	aligned := compresstest.BenchField()
	ragged, err := grid.SliceRegion(aligned, []int{0, 0, 0}, []int{61, 63, 62})
	if err != nil {
		b.Fatal(err)
	}
	fields := []*grid.Field{aligned, ragged}
	for _, v := range []struct {
		name    string
		extract func(*grid.Field, int) Features
	}{{"oracle", ExtractFeatures}, {"lattice", func(f *grid.Field, stride int) Features {
		return ExtractFeaturesParallel(f, stride, 1)
	}}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(aligned.Bytes() + ragged.Bytes()))
			for i := 0; i < b.N; i++ {
				for _, f := range fields {
					benchSink = v.extract(f, 4).MND
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(aligned.Size()+ragged.Size()), "ns/elem")
		})
	}
}

// BenchmarkTrainWithCurves times training on measured curves (feature and
// CA analysis, sample assembly and the 100-tree forest fit) on
// smallMixTrainSet under DefaultConfig; the sweep runs once, untimed.
func BenchmarkTrainWithCurves(b *testing.B) {
	fields := smallMixTrainSet(b)
	cfg := DefaultConfig()
	curves, err := Sweep(sz.New(), fields, cfg.StationaryPoints, cfg.Parallelism)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainWithCurves(sz.New(), fields, cfg, curves); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink float64
