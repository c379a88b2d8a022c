// Package core implements FXRZ, the paper's contribution: a feature-driven,
// compressor-agnostic, fixed-ratio lossy compression framework. Given a
// dataset and a target compression ratio, FXRZ estimates the error-bound (or
// precision) setting that reaches the target without ever running the
// compressor at inference time.
//
// The pieces map to the paper's Fig 1 architecture:
//
//	features.go — §IV-C feature extraction (with §IV-E1 stride sampling)
//	curve.go    — §IV-B stationary points + interpolation-based augmentation
//	ca.go       — §IV-E2 Compressibility Adjustment (constant-block ratio;
//	              one streaming read of the field, mean included)
//	train.go    — the training engine (ML model over augmented samples)
//	infer.go    — the inference engine (features + ACR → error configuration;
//	              an Estimate carries the field's valid ratio range too, so
//	              one analysis answers both questions)
package core

import (
	"math"

	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// Features holds the eight candidate data features of §IV-C. The five the
// paper adopts (Table II) come first; the three gradient features are kept
// for the feature-correlation experiment but excluded from the model input.
type Features struct {
	ValueRange   float64 // max - min
	MeanValue    float64 // arithmetic mean
	MND          float64 // mean |v - mean(neighbors)|
	MLD          float64 // mean |v - lorenzo(v)|
	MSD          float64 // mean |v - spline(v)| (equation 3 stencil)
	MeanGradient float64 // mean |v - previous v| along each dimension
	MinGradient  float64
	MaxGradient  float64
}

// Vector returns the five adopted features as the model input prefix, in a
// fixed order.
func (ft Features) Vector() []float64 {
	return []float64{ft.ValueRange, ft.MeanValue, ft.MND, ft.MLD, ft.MSD}
}

// FullVector returns all eight features (Table II order).
func (ft Features) FullVector() []float64 {
	return []float64{ft.ValueRange, ft.MeanValue, ft.MND, ft.MLD, ft.MSD,
		ft.MeanGradient, ft.MinGradient, ft.MaxGradient}
}

// FeatureNames lists the names in Vector()/FullVector() order.
var FeatureNames = []string{"ValueRange", "MeanValue", "MND", "MLD", "MSD",
	"MeanGradient", "MinGradient", "MaxGradient"}

// reductionChunk is the fixed number of samples per partial-reduction chunk
// of the parallel feature extraction. Chunk boundaries depend only on the
// field size — never on the worker count — and partial sums are combined in
// chunk-index order, so every feature is bit-identical at any Parallelism
// setting. A field that fits in one chunk reduces in exactly the original
// serial accumulation order.
const reductionChunk = 32 << 10

func reductionChunks(n int) int { return (n + reductionChunk - 1) / reductionChunk }

func chunkBounds(ci, n int) (lo, hi int) {
	lo = ci * reductionChunk
	hi = lo + reductionChunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ExtractFeatures computes the features on a uniform stride-K sample of the
// field (§IV-E1): the field is subsampled to a coarse grid (stride 4 keeps
// ~1.5% of a 3D field) and all neighborhood features are evaluated on that
// grid. stride <= 1 uses every point.
func ExtractFeatures(f *grid.Field, stride int) Features {
	return ExtractFeaturesParallel(f, stride, 1)
}

// ExtractFeaturesParallel is ExtractFeatures with the reduction fanned out
// over a bounded worker pool. workers <= 1 runs serially on the calling
// goroutine; the result is bit-identical at every worker count (the field is
// reduced in fixed-size chunks whose partials combine in chunk order).
func ExtractFeaturesParallel(f *grid.Field, stride, workers int) Features {
	defer obs.Span("features/extract")()
	// The stride is applied as-is even when it degenerates small grids: a
	// framework must extract features identically for every field it sees
	// (training and inference), and a per-field adaptive stride would make
	// smoothness features incomparable between a small training mesh and a
	// larger production mesh.
	s := f
	if stride > 1 {
		s = grid.Subsample(f, stride)
	}
	n := s.Size()
	var ft Features
	if n == 0 {
		return ft
	}
	nc := reductionChunks(n)
	parts := make([]featurePartial, nc)
	pool.Run(workers, nc, func(ci int) {
		lo, hi := chunkBounds(ci, n)
		parts[ci] = featureRange(s, lo, hi)
	})

	// Ordered combine: float sums in chunk-index order, min/max and counts
	// exactly.
	agg := parts[0]
	for _, p := range parts[1:] {
		agg.sum += p.sum
		if p.mn < agg.mn {
			agg.mn = p.mn
		}
		if p.mx > agg.mx {
			agg.mx = p.mx
		}
		agg.mnd += p.mnd
		agg.mld += p.mld
		agg.mldCount += p.mldCount
		agg.msd += p.msd
		agg.msdCount += p.msdCount
		agg.grad += p.grad
		agg.gradCount += p.gradCount
		if p.gmin < agg.gmin {
			agg.gmin = p.gmin
		}
		if p.gmax > agg.gmax {
			agg.gmax = p.gmax
		}
	}

	ft.ValueRange = float64(agg.mx) - float64(agg.mn)
	ft.MeanValue = agg.sum / float64(n)
	ft.MND = agg.mnd / float64(n)
	if agg.mldCount > 0 {
		ft.MLD = agg.mld / float64(agg.mldCount)
	}
	if agg.msdCount > 0 {
		ft.MSD = agg.msd / float64(agg.msdCount)
	}
	if agg.gradCount > 0 {
		ft.MeanGradient = agg.grad / float64(agg.gradCount)
		ft.MinGradient = agg.gmin
		ft.MaxGradient = agg.gmax
	}
	return ft
}

// featurePartial accumulates one chunk's contribution to every feature.
type featurePartial struct {
	sum        float64 // Σ v                 → MeanValue
	mn, mx     float32 // min/max             → ValueRange
	mnd        float64 // Σ |v - mean(nbrs)|  → MND (divided by field size)
	mld        float64 // Σ |v - lorenzo|     → MLD over interior points
	mldCount   int
	msd        float64 // Σ |v - spline|      → MSD over stencil-fitting points
	msdCount   int
	grad       float64 // Σ |v - prev v|      → gradient features
	gradCount  int
	gmin, gmax float64
}

// featureRange reduces samples [lo, hi) of f in a single fused pass. Each
// accumulator receives its terms in ascending-index order, exactly as the
// per-feature serial loops did, so one-chunk fields reproduce the historic
// serial values bit for bit.
func featureRange(f *grid.Field, lo, hi int) featurePartial {
	dims := f.Dims
	strides := f.Strides()
	nd := len(dims)

	// Lorenzo stencil: offsets and inclusion–exclusion signs for each
	// non-empty dimension subset (equations (1)–(2)).
	nmask := 1 << nd
	offs := make([]int, nmask)
	signs := make([]float64, nmask)
	for m := 1; m < nmask; m++ {
		bitcnt := 0
		for d := 0; d < nd; d++ {
			if m&(1<<d) != 0 {
				offs[m] += strides[d]
				bitcnt++
			}
		}
		if bitcnt%2 == 1 {
			signs[m] = 1
		} else {
			signs[m] = -1
		}
	}

	p := featurePartial{mn: f.Data[lo], mx: f.Data[lo], gmin: math.Inf(1), gmax: math.Inf(-1)}
	coord := f.Coord(lo)
	for idx := lo; idx < hi; idx++ {
		fv := f.Data[idx]
		v := float64(fv)
		p.sum += v
		if fv < p.mn {
			p.mn = fv
		}
		if fv > p.mx {
			p.mx = fv
		}

		// MND: mean absolute difference to the ±1 axis neighbors that exist.
		var nsum float64
		var ncnt int
		interior := true
		for d := 0; d < nd; d++ {
			if coord[d] > 0 {
				nsum += float64(f.Data[idx-strides[d]])
				ncnt++
			} else {
				interior = false
			}
			if coord[d]+1 < dims[d] {
				nsum += float64(f.Data[idx+strides[d]])
				ncnt++
			}
		}
		if ncnt > 0 {
			p.mnd += math.Abs(v - nsum/float64(ncnt))
		}

		// MLD: inclusion–exclusion Lorenzo prediction over interior points.
		if interior {
			var pred float64
			for m := 1; m < nmask; m++ {
				pred += signs[m] * float64(f.Data[idx-offs[m]])
			}
			p.mld += math.Abs(v - pred)
			p.mldCount++
		}

		// MSD: cubic spline-interpolation stencil of equation (3),
		// spline_i = -1/16·d[i-3] + 9/16·d[i-1] + 9/16·d[i+1] - 1/16·d[i+3],
		// averaged over the dimensions whose stencil fits.
		var ssum float64
		var fit int
		for d := 0; d < nd; d++ {
			if coord[d] >= 3 && coord[d]+3 < dims[d] {
				st := strides[d]
				sp := -1.0/16*float64(f.Data[idx-3*st]) + 9.0/16*float64(f.Data[idx-st]) +
					9.0/16*float64(f.Data[idx+st]) - 1.0/16*float64(f.Data[idx+3*st])
				ssum += sp
				fit++
			}
		}
		if fit > 0 {
			p.msd += math.Abs(v - ssum/float64(fit))
			p.msdCount++
		}

		// Gradients: |v - previous v| along every dimension.
		for d := 0; d < nd; d++ {
			if coord[d] > 0 {
				g := math.Abs(v - float64(f.Data[idx-strides[d]]))
				p.grad += g
				p.gradCount++
				if g < p.gmin {
					p.gmin = g
				}
				if g > p.gmax {
					p.gmax = g
				}
			}
		}

		advance(coord, dims)
	}
	return p
}

// advance steps a row-major coordinate odometer.
func advance(coord, dims []int) {
	for d := len(dims) - 1; d >= 0; d-- {
		coord[d]++
		if coord[d] < dims[d] {
			return
		}
		coord[d] = 0
	}
}
