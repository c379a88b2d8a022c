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

// caSlabsPerWorker is how many row slabs a parallel scan cuts per worker:
// the serial-sum task is the longest one, so the slabs must be small enough
// for the other workers to share what it leaves over.
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
// of the block the run belongs to, and the float64 sum is accumulated in the
// same ascending index order grid.Field.Mean uses, so the threshold has
// Mean's exact bits. Once the sum is known, one loop over the block ranges
// counts those that meet the threshold.
//
// workers <= 1 does all of it in one call on the calling goroutine. With
// more, one task computes the serial sum while block-aligned slabs of rows
// are folded concurrently; the result is the serial value at every worker
// count, because the sum stays one serial chain and each block's verdict
// depends on that block alone.
func NonConstantRatioParallel(f *grid.Field, blockSide int, lambda float64, workers int) float64 {
	defer obs.Span("ca/scan")()
	if blockSide <= 0 {
		blockSide = DefaultBlockSide
	}
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	// Rows are runs of the last dimension; a 1-d field is a single row.
	nl := len(f.Dims) - 1
	s := caScan{data: f.Data, side: blockSide, nl: max(nl, 1), nx: f.Dims[nl]}
	s.lead[0] = 1
	copy(s.lead[:], f.Dims[:nl])
	s.nbx = (s.nx + blockSide - 1) / blockSide
	total := s.nbx
	for d := s.nl - 1; d >= 0; d-- {
		s.bstride[d] = total
		total *= (s.lead[d] + blockSide - 1) / blockSide
	}
	if total == 0 {
		return 1
	}

	s.ranges = caRanges.Get(total)
	defer caRanges.Put(s.ranges)

	d0 := s.lead[0]
	var mean float64
	if workers <= 1 {
		mean = s.scan(0, d0) / float64(len(f.Data))
	} else {
		nb0 := (d0 + blockSide - 1) / blockSide
		slabs := min(nb0, caSlabsPerWorker*workers)
		pool.Run(workers, 1+slabs, func(i int) {
			if i == 0 {
				mean = f.Mean()
				return
			}
			// A slab's own sum is dropped: partial sums cannot be combined
			// into Mean's bits, and one kernel is worth the idle adds.
			s.scan((i-1)*nb0/slabs*blockSide, min(i*nb0/slabs*blockSide, d0))
		})
	}

	// A NaN sample makes the sum — and so the threshold — NaN, which loses
	// every comparison below whatever the ranges hold, exactly as it lost
	// them against float ranges. A comparable threshold therefore proves the
	// field holds no NaN, and the integer keys order everything else.
	threshold := lambda * math.Abs(mean)
	nonConst := 0
	for _, k := range s.ranges {
		if float64(keyValue(k.hi)-keyValue(k.lo)) >= threshold {
			nonConst++
		}
	}
	r := float64(nonConst) / float64(total)
	if r == 0 {
		// A fully constant dataset still compresses to *something*; keep the
		// adjustment away from zero so ACR stays meaningful.
		r = 1 / float64(total)
	}
	return r
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
// its own function so that the hot loop gets registers to itself.
func foldRow(row []float32, blocks []keyRange, side int, sum float64) float64 {
	i := 0
	for j := range blocks {
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
