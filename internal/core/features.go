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
//
// ExtractFeaturesParallel, which every estimate and every training field goes
// through, fills the five adopted features and leaves the gradients zero;
// ExtractFeatures fills all eight.
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

// ExtractFeatures computes all eight features on a uniform stride-K sample
// of the field (§IV-E1): the field is subsampled to a coarse grid (stride 4
// keeps ~1.5% of a 3D field) and all neighborhood features are evaluated on
// that grid. stride <= 1 uses every point. It is the reference pass, the one
// `fxrz features` and the Table II correlation experiment read the gradients
// from: it copies the sample out with grid.Subsample and reduces the copy
// with the generic featureRange, as every feature was computed before the
// hot path read the lattice in place. Its five adopted features are
// ExtractFeaturesParallel's, bit for bit.
func ExtractFeatures(f *grid.Field, stride int) Features {
	defer obs.Span("features/extract")()
	if stride > 1 {
		f = grid.Subsample(f, stride)
	}
	return latticeOf(f, 1).extract(1, true)
}

// ExtractFeaturesParallel computes the five adopted features the model reads
// (Vector) on the same stride-K sample, with the reduction fanned out over a
// bounded worker pool; the gradient fields stay zero. workers <= 1 runs
// serially on the calling goroutine; the result is bit-identical at every
// worker count (the sample is reduced in fixed-size chunks whose partials
// combine in chunk order).
func ExtractFeaturesParallel(f *grid.Field, stride, workers int) Features {
	defer obs.Span("features/extract")()
	return latticeOf(f, stride).extract(workers, false)
}

// lattice is the stride-K sample of a field, read where it lies: sample c
// of the lattice is data[Σ c[d]·strides[d]], so neighbouring samples are
// K field steps apart. It sees exactly what grid.Subsample would copy out.
//
// The stride is applied as-is even when it degenerates small grids: a
// framework must extract features identically for every field it sees
// (training and inference), and a per-field adaptive stride would make
// smoothness features incomparable between a small training mesh and a
// larger production mesh.
type lattice struct {
	data    []float32
	nd      int
	dims    [grid.MaxDims]int // samples per dimension
	strides [grid.MaxDims]int // data steps between neighbouring samples
	// Lorenzo stencil: data offsets and inclusion–exclusion signs for each
	// non-empty dimension subset (equations (1)–(2)).
	lorenzoOff  [1 << grid.MaxDims]int
	lorenzoSign [1 << grid.MaxDims]float64
}

func latticeOf(f *grid.Field, stride int) *lattice {
	k := max(stride, 1)
	l := &lattice{data: f.Data, nd: len(f.Dims)}
	for d, st := range f.Strides() {
		l.dims[d] = (f.Dims[d] + k - 1) / k
		l.strides[d] = k * st
	}
	for m := 1; m < 1<<l.nd; m++ {
		bitcnt := 0
		for d := 0; d < l.nd; d++ {
			if m&(1<<d) != 0 {
				l.lorenzoOff[m] += l.strides[d]
				bitcnt++
			}
		}
		l.lorenzoSign[m] = -1
		if bitcnt%2 == 1 {
			l.lorenzoSign[m] = 1
		}
	}
	return l
}

func (l *lattice) size() int {
	n := 1
	for _, d := range l.dims[:l.nd] {
		n *= d
	}
	return n
}

// extract reduces the lattice chunk by chunk and combines the partials.
// Rank-3 lattices go through featureRange3 unless the gradients are wanted;
// every other case, and the gradients, go through the generic featureRange.
func (l *lattice) extract(workers int, grads bool) Features {
	n := l.size()
	var ft Features
	if n == 0 {
		return ft
	}
	nc := reductionChunks(n)
	parts := make([]featurePartial, nc)
	pool.Run(workers, nc, func(ci int) {
		lo, hi := chunkBounds(ci, n)
		if l.nd == 3 && !grads {
			parts[ci] = featureRange3(l, lo, hi)
		} else {
			parts[ci] = featureRange(l, lo, hi, grads)
		}
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

// featureRange reduces lattice samples [lo, hi) in a single fused pass, with
// a coordinate odometer and per-sample stencil checks in every dimension.
// Each accumulator receives its terms in ascending-index order, exactly as
// the per-feature serial loops did, so one-chunk fields reproduce the
// historic serial values bit for bit. It serves ranks 1, 2 and 4, the
// gradients, and the tests as the oracle featureRange3 is held to.
func featureRange(l *lattice, lo, hi int, grads bool) featurePartial {
	var coord [grid.MaxDims]int
	pos := 0
	for d, rem := l.nd-1, lo; d >= 0; d-- {
		coord[d] = rem % l.dims[d]
		rem /= l.dims[d]
		pos += coord[d] * l.strides[d]
	}
	p := featurePartial{mn: l.data[pos], mx: l.data[pos], gmin: math.Inf(1), gmax: math.Inf(-1)}
	for idx := lo; idx < hi; idx++ {
		p.add(l, coord[:l.nd], pos, grads)
		// Step the row-major odometer and the data position with it.
		for d := l.nd - 1; d >= 0; d-- {
			coord[d]++
			pos += l.strides[d]
			if coord[d] < l.dims[d] {
				break
			}
			pos -= coord[d] * l.strides[d]
			coord[d] = 0
		}
	}
	return p
}

// add folds the sample at lattice coordinate coord, data position pos, into
// every accumulator, checking in each dimension which stencil terms exist.
func (p *featurePartial) add(l *lattice, coord []int, pos int, grads bool) {
	data, dims, strides := l.data, l.dims[:len(coord)], l.strides[:len(coord)]
	fv := data[pos]
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
	for d, c := range coord {
		if c > 0 {
			nsum += float64(data[pos-strides[d]])
			ncnt++
		} else {
			interior = false
		}
		if c+1 < dims[d] {
			nsum += float64(data[pos+strides[d]])
			ncnt++
		}
	}
	if ncnt > 0 {
		p.mnd += math.Abs(v - nsum/float64(ncnt))
	}

	// MLD: inclusion–exclusion Lorenzo prediction over interior points.
	if interior {
		var pred float64
		for m := 1; m < 1<<len(coord); m++ {
			pred += l.lorenzoSign[m] * float64(data[pos-l.lorenzoOff[m]])
		}
		p.mld += math.Abs(v - pred)
		p.mldCount++
	}

	// MSD: cubic spline-interpolation stencil of equation (3),
	// spline_i = -1/16·d[i-3] + 9/16·d[i-1] + 9/16·d[i+1] - 1/16·d[i+3],
	// averaged over the dimensions whose stencil fits.
	var ssum float64
	var fit int
	for d, c := range coord {
		if c >= 3 && c+3 < dims[d] {
			ssum += spline(data, pos, strides[d])
			fit++
		}
	}
	if fit > 0 {
		p.msd += math.Abs(v - ssum/float64(fit))
		p.msdCount++
	}

	if !grads {
		return
	}
	// Gradients: |v - previous v| along every dimension.
	for d, c := range coord {
		if c > 0 {
			g := math.Abs(v - float64(data[pos-strides[d]]))
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
}

// spline is equation (3)'s interpolation of data[pos] from its neighbours
// 1 and 3 steps of st away on either side.
func spline(data []float32, pos, st int) float64 {
	return -1.0/16*float64(data[pos-3*st]) + 9.0/16*float64(data[pos-st]) +
		9.0/16*float64(data[pos+st]) - 1.0/16*float64(data[pos+3*st])
}

// featureRange3 is featureRange for a rank-3 lattice without the gradients.
// Samples at least one step inside the lattice in every dimension take the
// MND and MLD stencils at fixed offsets, and test only whether each MSD
// stencil fits; every other sample goes through add's per-sample checks.
// Samples are visited in ascending lattice order, a chunk that starts or
// ends mid-row included, and each term enters its accumulator in the order
// add uses, so the result is featureRange's bit for bit.
func featureRange3(l *lattice, lo, hi int) featurePartial {
	data := l.data
	n0, n1, n2 := l.dims[0], l.dims[1], l.dims[2]
	s0, s1, s2 := l.strides[0], l.strides[1], l.strides[2]
	i, j, k := lo/(n1*n2), lo/n2%n1, lo%n2
	first := i*s0 + j*s1 + k*s2
	p := featurePartial{mn: data[first], mx: data[first]}
	for idx := lo; idx < hi; i, j, k = i+(j+1)/n1, (j+1)%n1, 0 {
		end := min(n2, k+hi-idx)
		idx += end - k
		row := i*s0 + j*s1
		// [a, b) is the part of this row segment that is inner in all three
		// dimensions; an edge row has none.
		a, b := end, end
		if 0 < i && i+1 < n0 && 0 < j && j+1 < n1 {
			a = min(max(k, 1), end)
			b = max(a, min(end, n2-1))
		}
		coord := [3]int{i, j, k}
		for ; k < a; k++ {
			coord[2] = k
			p.add(l, coord[:], row+k*s2, false)
		}
		fit0 := 3 <= i && i+3 < n0
		fit1 := 3 <= j && j+3 < n1
		for ; k < b; k++ {
			pos := row + k*s2
			fv := data[pos]
			v := float64(fv)
			p.sum += v
			if fv < p.mn {
				p.mn = fv
			}
			if fv > p.mx {
				p.mx = fv
			}
			// add's sums start from a zero, which can flip only the sign of
			// a zero total; every such total meets an absolute value.
			nsum := float64(data[pos-s0]) + float64(data[pos+s0]) +
				float64(data[pos-s1]) + float64(data[pos+s1]) +
				float64(data[pos-s2]) + float64(data[pos+s2])
			p.mnd += math.Abs(v - nsum/6)
			// Lorenzo terms in add's subset order: {0}, {1}, {0,1}, {2},
			// {0,2}, {1,2}, {0,1,2}.
			pred := float64(data[pos-s0]) + float64(data[pos-s1]) -
				float64(data[pos-s0-s1]) + float64(data[pos-s2]) -
				float64(data[pos-s0-s2]) - float64(data[pos-s1-s2]) +
				float64(data[pos-s0-s1-s2])
			p.mld += math.Abs(v - pred)
			p.mldCount++
			var ssum float64
			var fit int
			if fit0 {
				ssum = spline(data, pos, s0)
				fit++
			}
			if fit1 {
				ssum += spline(data, pos, s1)
				fit++
			}
			if 3 <= k && k+3 < n2 {
				ssum += spline(data, pos, s2)
				fit++
			}
			if fit > 0 {
				p.msd += math.Abs(v - ssum/float64(fit))
				p.msdCount++
			}
		}
		for ; k < end; k++ {
			coord[2] = k
			p.add(l, coord[:], row+k*s2, false)
		}
	}
	return p
}
