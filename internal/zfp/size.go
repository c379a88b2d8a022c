package zfp

import (
	"fmt"
	"math/bits"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// Stream sizes without streams (compress.Sizer).
//
// In fixed-accuracy mode a block codes its header and then its bit planes
// from the top down to precision(emax, minexp, d); the coding is embedded, so
// the first m planes cost the same bits whatever the tolerance, and one
// transform per block plus one count of its 32 planes gives the block's bits
// at every tolerance. The blob is the stream header, the mode byte and the
// block bits padded to a byte. In fixed-rate mode every block is exactly its
// budget, so the size is arithmetic.

// CompressedSizes implements compress.Sizer: one pass over the blocks prices
// every tolerance at once. The pass counts itself under zfp/size_tables, not
// as a compressor run.
func (c *Compressor) CompressedSizes(f *grid.Field, tols []float64) ([]int, error) {
	minexps := make([]int, len(tols))
	for j, tol := range tols {
		if err := checkTolerance(tol); err != nil {
			return nil, &compress.KnobError{Knob: tol, Err: err}
		}
		minexps[j] = minExp(tol)
	}
	defer obs.Span("size/zfp")()
	obs.Inc("zfp/size_tables")
	bodyBits, err := sizeBody(f, minexps, pool.Workers(c.Workers))
	if err != nil {
		return nil, &compress.KnobError{Knob: tols[0], Err: err}
	}
	hdr := streamHeaderLen(f)
	sizes := make([]int, len(tols))
	for j, b := range bodyBits {
		sizes[j] = hdr + (b+7)/8
	}
	return sizes, nil
}

// CompressedSizes implements compress.Sizer: every block is blockBits.
func (c *FixedRate) CompressedSizes(f *grid.Field, rates []float64) ([]int, error) {
	hdr := streamHeaderLen(f)
	blocks, nd := countBlocks(foldDims(f.Dims)), foldedNDims(f.Dims)
	sizes := make([]int, len(rates))
	for j, rate := range rates {
		if err := checkRate(rate); err != nil {
			return nil, &compress.KnobError{Knob: rate, Err: err}
		}
		sizes[j] = hdr + (blocks*blockBits(rate, nd)+7)/8
	}
	return sizes, nil
}

// streamHeaderLen is the length of what both modes write before the body:
// the common header (its knob is a fixed eight bytes) and the mode byte.
func streamHeaderLen(f *grid.Field) int {
	return len(compress.AppendHeader(nil, compress.Header{Magic: compress.MagicZFP, Name: f.Name, Dims: f.Dims})) + 1
}

// sizeBody returns, for each minexp, the bits encodeBody(f, minexp, 0, ·)
// writes. Each block runs the encoder's gather, exponent, quantize, transform
// and plane gather once; planeBits prices its planes, and each minexp adds
// the header and the planes its precision codes. Contiguous block chunks fan
// out over workers as in encodeBody, and integer sums make the result the
// same at every width.
func sizeBody(f *grid.Field, minexps []int, workers int) ([]int, error) {
	dims := foldDims(f.Dims)
	folded, err := grid.FromData(f.Name, f.Data, dims...)
	if err != nil {
		return nil, fmt.Errorf("zfp: fold: %w", err)
	}
	nd := len(dims)
	size := 1 << (2 * nd)
	perm := perms[nd-1]
	total := countBlocks(dims)
	nchunks, per := chunkCount(total, workers, "zfp/par_size_tables")
	sums := make([][]int, nchunks)
	pool.Run(workers, nchunks, func(ci int) {
		sum := make([]int, len(minexps))
		s := getBlockScratch(size)
		var cum [intPrec + 1]int
		wk := walkField(dims, ci*per)
		var o [3]int
		for n := min(per, total-ci*per); n > 0; n-- {
			emax, zero := gatherBlock(folded, wk.origin(o[:nd]), s)
			wk.next()
			if zero {
				for j := range sum {
					sum[j]++
				}
				continue
			}
			transformBlock(s, emax, nd)
			gatherPlanes(s.q, perm, &s.planes)
			planeBits(&s.planes, size, &cum)
			for j, me := range minexps {
				sum[j] += headerBits + cum[precision(emax, me, nd)]
			}
		}
		putBlockScratch(s)
		sums[ci] = sum
	})
	for _, sum := range sums[1:] {
		for j, b := range sum {
			sums[0][j] += b
		}
	}
	return sums[0], nil
}

// planeBits sets cum[m] to the bits encodeInts writes for the block whose
// planes p holds (gatherPlanes' layout) when it codes the top m planes with
// no budget. It is encodeInts' walk with the writes taken out: a plane costs
// one verbatim bit per coefficient already significant plus its group tests,
// and neither depends on how many planes follow.
func planeBits(p *[32]uint64, size int, cum *[intPrec + 1]int) {
	total, n := 0, 0
	for k := intPrec; k > 0; k-- {
		x := p[32-k] >> uint(n)
		total += n
		for n < size {
			if x == 0 {
				total++
				break
			}
			t := bits.TrailingZeros64(x)
			if n+t == size-1 {
				total += t + 1
			} else {
				total += t + 2
			}
			x >>= uint(t + 1)
			n += t + 1
		}
		cum[intPrec-k+1] = total
	}
}
