package core

import (
	"math"

	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// DefaultLambda is the constant-block threshold coefficient the paper's
// Table IV identifies as optimal (λ = 0.15 of the mean value).
const DefaultLambda = 0.15

// DefaultBlockSide matches the paper's 4×4×4 CA blocks.
const DefaultBlockSide = 4

// caSlabsPerWorker is how many row slabs a parallel scan cuts per worker.
// Slabs cost the same, so one per worker would do on an idle box; workers
// claim them in turn, so with four per worker a worker that is slowed or
// descheduled leaves the others at most a quarter of its share to wait on.
const caSlabsPerWorker = 4

// NonConstantRatioParallel implements the Compressibility Adjustment scan
// (§IV-E2) over a bounded worker pool: the field is split into blockSide^d
// blocks; a block whose value range is below λ·|mean value of the dataset| is
// "constant" (its compressed size is taken as ~0); R is the fraction of
// non-constant blocks. The adjusted compression ratio fed to the model is
// ACR = TCR · R (Formula 4).
//
// The field is read once, in memory order: every row of the last dimension
// is folded, one blockSide-long run at a time, into the running (min, max)
// of the block the run belongs to, and the samples are added up as they go.
// Once the sum is known, one loop over the block ranges counts those that
// meet the threshold. R is the serial value at every worker count.
//
// workers <= 1 does all of it in one call on the calling goroutine, adding
// in the ascending index order grid.Field.Mean uses, so the threshold has
// Mean's exact bits. With more, block-aligned slabs of rows are folded
// concurrently and their partial sums added: a different rounding of the
// same sum, within a proven distance of Mean's (DESIGN.md, "Analysis at
// width n"). That brackets the threshold, and every block whose range lies
// outside the bracket gets the serial verdict. Only when a range falls
// inside it (a zero mean, a range on the threshold) does a Mean pass fix
// the threshold's exact bits, counted under ca/exact_mean_fallback.
func NonConstantRatioParallel(f *grid.Field, blockSide int, lambda float64, workers int) float64 {
	defer obs.Span("ca/scan")()
	if blockSide <= 0 {
		blockSide = DefaultBlockSide
	}
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	s, total := newCAScan(f, blockSide)
	if total == 0 {
		return 1
	}

	s.ranges = caRanges.Get(total)
	defer caRanges.Put(s.ranges)

	n := float64(len(f.Data))
	d0 := s.lead[0]
	nb0 := (d0 + blockSide - 1) / blockSide
	slabs := min(nb0, caSlabsPerWorker*workers)
	var mean float64
	if workers <= 1 || slabs == 1 {
		mean = s.scan(0, d0) / n
	} else {
		parts := make([]caSlab, slabs)
		pool.Run(workers, slabs, func(i int) {
			z0, z1 := i*nb0/slabs*blockSide, min((i+1)*nb0/slabs*blockSide, d0)
			parts[i] = s.slab(z0, z1)
		})
		var sum float64
		lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
		for _, p := range parts {
			sum += p.sum
			lo, hi = min(lo, p.lo), max(hi, p.hi)
		}
		if math.IsNaN(sum) || math.IsInf(sum, 0) {
			// float32 samples cannot overflow a float64 sum, so it is NaN or
			// ±Inf exactly when the serial one is: its threshold is Mean's.
			mean = sum / n
		} else {
			maxAbs := max(math.Abs(float64(keyValue(lo))), math.Abs(float64(keyValue(hi))))
			above, between := s.count(thresholdBand(sum, n, maxAbs, lambda))
			if between == 0 {
				return s.ratio(above)
			}
			obs.Inc("ca/exact_mean_fallback")
			mean = f.Mean()
		}
	}

	// A NaN sample makes the sum — and so the threshold — NaN, which loses
	// every comparison below whatever the ranges hold, exactly as it lost
	// them against float ranges. A comparable threshold therefore proves the
	// field holds no NaN, and the integer keys order everything else.
	t := lambda * math.Abs(mean)
	above, _ := s.count(t, t)
	return s.ratio(above)
}

// ratio is R for nonConst non-constant blocks.
func (s *caScan) ratio(nonConst int) float64 {
	r := float64(nonConst) / float64(len(s.ranges))
	if r == 0 {
		// A fully constant dataset still compresses to *something*; keep the
		// adjustment away from zero so ACR stays meaningful.
		r = 1 / float64(len(s.ranges))
	}
	return r
}

// thresholdBand brackets the threshold λ·|s/n| the serial sum s would give,
// knowing only sum, the same n samples added in another order, and maxAbs,
// their largest magnitude. Both sums are recursive sums of the same terms, so
// each lies within γ(n−1)·Σ|x| of the exact sum (Higham, Accuracy and
// Stability of Numerical Algorithms, §4.2), γ(k) = ku/(1−ku), and
// |s − sum| ≤ e = 2γ(n−1)·n·maxAbs. e is taken generously and the band's
// ends are rounded outward, so s lies in it; division by n and multiplication
// by λ > 0 are monotone in every rounding, so the thresholds of its ends
// bracket the serial one. sum must be finite.
func thresholdBand(sum, n, maxAbs, lambda float64) (tlo, thi float64) {
	const u = 0x1p-53
	g := (n - 1) * u / (1 - (n-1)*u)
	// The 2^-20 margin covers the roundings of computing e itself.
	e := 2 * g * n * maxAbs * (1 + 0x1p-20)
	lo := math.Nextafter(sum-e, math.Inf(-1))
	hi := math.Nextafter(sum+e, math.Inf(1))
	// The band of |s|.
	switch {
	case lo >= 0:
	case hi <= 0:
		lo, hi = -hi, -lo
	default:
		lo, hi = 0, max(-lo, hi)
	}
	return lambda * (lo / n), lambda * (hi / n)
}

// count returns how many blocks have a range at or above thi, and how many
// have one that is neither that nor below tlo: a block whose verdict the
// band [tlo, thi] leaves open, NaN bounds included. Called with tlo == thi,
// above is the count against that one threshold.
func (s *caScan) count(tlo, thi float64) (above, between int) {
	for _, k := range s.ranges {
		r := float64(keyValue(k.hi) - keyValue(k.lo))
		if r >= thi {
			above++
		} else if !(r < tlo) {
			between++
		}
	}
	return above, between
}

// caSlab is what one slab of a parallel scan reports: the sum of its samples
// and the least and greatest order key among them.
type caSlab struct {
	sum    float64
	lo, hi int32
}

// slab folds the rows in [z0, z1) and reports their sum and key extremes.
func (s *caScan) slab(z0, z1 int) caSlab {
	p := caSlab{sum: s.scan(z0, z1), lo: math.MaxInt32, hi: math.MinInt32}
	for _, k := range s.ranges[z0/s.side*s.bstride[0] : (z1+s.side-1)/s.side*s.bstride[0]] {
		p.lo, p.hi = min(p.lo, k.lo), max(p.hi, k.hi)
	}
	return p
}

// keyRange is one block's running value range, held as order keys.
type keyRange struct{ lo, hi int32 }

// caRanges recycles the per-block range array (8 bytes per block) between
// scans, like internal/entropy's scratch: an estimate-heavy daemon would
// otherwise allocate field/32 bytes of garbage per request. Every scan
// initialises the ranges it folds into, so recycled contents never show.
var caRanges = pool.NewSlices[keyRange]("core/scratch_hit", "core/scratch_miss")

// orderKey maps a float32 to an int32 that sorts the same way: the bit
// pattern, with the 31 magnitude bits flipped when the sign is set. Integer
// min/max on keys compile to conditional moves, where float compares are
// branches that mispredict on every new block extreme. Every non-NaN value is
// ordered correctly; −0 sorts under +0, which no range can tell (x − ±0 = x,
// and ±0 − ±0 compares like 0 against a threshold that is never negative).
func orderKey(v float32) int32 {
	u := math.Float32bits(v)
	return int32(u ^ (uint32(int32(u)>>31) >> 1))
}

// keyValue inverts orderKey.
func keyValue(k int32) float32 {
	return math.Float32frombits(uint32(k) ^ (uint32(k>>31) >> 1))
}

// caScan is one streaming pass: the field seen as rows of its last
// dimension, and the block ranges the rows fold into. The block grid is
// row-major like the field, so the blocks a row touches are consecutive.
type caScan struct {
	data    []float32
	side    int
	nl      int               // leading dimensions: every one but the last
	lead    [grid.MaxDims]int // their extents
	bstride [grid.MaxDims]int // and their strides in the block grid
	nx, nbx int               // samples and blocks per row
	ranges  []keyRange
}

// newCAScan lays f out for a scan with blocks of the given side and returns
// the scan, its ranges not yet attached, and the number of blocks.
func newCAScan(f *grid.Field, side int) (s caScan, total int) {
	// Rows are runs of the last dimension; a 1-d field is a single row.
	nl := len(f.Dims) - 1
	s = caScan{data: f.Data, side: side, nl: max(nl, 1), nx: f.Dims[nl]}
	s.lead[0] = 1
	copy(s.lead[:], f.Dims[:nl])
	s.nbx = (s.nx + side - 1) / side
	total = s.nbx
	for d := s.nl - 1; d >= 0; d-- {
		s.bstride[d] = total
		total *= (s.lead[d] + side - 1) / side
	}
	return s, total
}

// scan folds the rows whose leading coordinate lies in [z0, z1) into their
// blocks and returns the sum of their samples, added in index order. z0 must
// be block-aligned, so concurrent scans of disjoint slabs share no block. A
// coordinate odometer over the leading dimensions, stepped once per row,
// tracks the first block of the row; a block's samples arrive in the order
// a per-block walk would visit them (last dimension fastest).
func (s *caScan) scan(z0, z1 int) float64 {
	var coord, within [grid.MaxDims]int // position in the field / in the block
	coord[0] = z0
	rows := z1 - z0
	for _, d := range s.lead[1:s.nl] {
		rows *= d
	}
	base := z0 / s.side * s.bstride[0]
	slab := s.ranges[base : (z1+s.side-1)/s.side*s.bstride[0]]
	for i := range slab {
		slab[i] = keyRange{math.MaxInt32, math.MinInt32}
	}
	var sum float64
	off := z0 * (len(s.data) / s.lead[0])
	for ; rows > 0; rows-- {
		sum = foldRow(s.data[off:off+s.nx], s.ranges[base:base+s.nbx], s.side, sum)
		off += s.nx
		for d := s.nl - 1; d >= 0; d-- {
			coord[d]++
			within[d]++
			if coord[d] < s.lead[d] {
				if within[d] == s.side {
					within[d] = 0
					base += s.bstride[d]
				}
				break
			}
			base -= (coord[d] - 1) / s.side * s.bstride[d]
			coord[d], within[d] = 0, 0
		}
	}
	return sum
}

// foldRow folds one row, a side-long run per block (the last may be shorter),
// into the blocks' ranges and adds its samples to sum in index order. It is
// its own function so that the hot loop gets registers to itself. At the
// default side of 4 each full run is folded in straight-line code; integer
// min and max give the same extremes in any order.
func foldRow(row []float32, blocks []keyRange, side int, sum float64) float64 {
	i, j := 0, 0
	if side == 4 {
		for ; i+4 <= len(row); i, j = i+4, j+1 {
			r := row[i : i+4 : i+4]
			sum = sum + float64(r[0]) + float64(r[1]) + float64(r[2]) + float64(r[3])
			k0, k1, k2, k3 := orderKey(r[0]), orderKey(r[1]), orderKey(r[2]), orderKey(r[3])
			b := &blocks[j]
			b.lo = min(b.lo, min(k0, k1), min(k2, k3))
			b.hi = max(b.hi, max(k0, k1), max(k2, k3))
		}
	}
	for ; j < len(blocks); j++ {
		end := min(i+side, len(row))
		lo, hi := blocks[j].lo, blocks[j].hi
		for ; i < end; i++ {
			v := row[i]
			sum += float64(v)
			k := orderKey(v)
			lo, hi = min(lo, k), max(hi, k)
		}
		blocks[j] = keyRange{lo, hi}
	}
	return sum
}

// AdjustRatio applies Formula (4): ACR = TCR · R.
func AdjustRatio(tcr, r float64) float64 { return tcr * r }
