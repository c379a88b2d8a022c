package zfp

// Chunked intra-field parallelism for the block coder.
//
// ZFP blocks are coded independently — the bit writer is the only state that
// crosses a block boundary — so any partition of the block list into
// contiguous chunks, encoded into private buffers and concatenated in block
// order, reproduces the serial stream bit for bit. Decoding fans out the same
// way once each chunk's starting bit offset is known: a serial pass of the
// region seeker (blockSeeker) finds it — arithmetic in fixed-rate mode, a
// skim (skipBlock) that replays the decoder's bit consumption without doing
// any arithmetic in fixed-accuracy mode, which is exact because decodeInts'
// control flow depends only on the values of the bits it reads, never on
// accumulated coefficients. A serial walk is one chunk.
//
// Obs instrumentation: zfp/par_encodes, zfp/par_decodes, zfp/par_chunks and
// zfp/par_blocks count fan-outs, and the zfp/stitch and zfp/offset_scan spans
// time the serial portions; none of them fires for a one-chunk walk.

import (
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/obs"
)

const (
	// zfpParMinBlocks gates the fan-out: below this many blocks the chunk
	// setup costs more than the work it spreads. The gate depends only on the
	// field's shape — never on the worker count — so the serial/parallel
	// routing itself cannot depend on the budget (it wouldn't change the
	// output either way; it keeps the decision easy to reason about).
	zfpParMinBlocks = 16
	// zfpChunksPerWorker oversubscribes chunks so a slow chunk (e.g. dense
	// high-precision blocks) doesn't leave the other workers idle.
	zfpChunksPerWorker = 4
)

// countBlocks returns the total number of 4^d blocks covering dims.
func countBlocks(dims []int) int {
	total := 1
	for _, d := range dims {
		total *= (d + blockSide - 1) / blockSide
	}
	return total
}

// chunkCount splits a walk over total blocks into at most
// workers*zfpChunksPerWorker contiguous chunks and returns (number of chunks,
// blocks per chunk). A serial walk, or one under zfpParMinBlocks blocks, is
// one chunk; a fan-out counts itself under counter, zfp/par_chunks and
// zfp/par_blocks.
func chunkCount(total, workers int, counter string) (nchunks, per int) {
	if workers <= 1 || total < zfpParMinBlocks {
		return 1, total
	}
	nchunks = min(workers*zfpChunksPerWorker, total)
	per = (total + nchunks - 1) / nchunks
	nchunks = (total + per - 1) / per
	obs.Inc(counter)
	obs.Add("zfp/par_chunks", int64(nchunks))
	obs.Add("zfp/par_blocks", int64(total))
	return nchunks, per
}

// blockWalk steps through the inclusive box [bl, bh] of a folded field's
// block grid in row-major order (last dimension fastest), the order the
// stream holds blocks in. The whole field is the box [0, nb-1].
type blockWalk struct {
	nd             int
	nb, bl, bh, bc [3]int // blocks per dimension, the box, the current block
}

// walkBox returns a walk over the box [bl, bh] of the block grid of dims,
// positioned at the box's i-th block.
func walkBox(dims []int, bl, bh [3]int, i int) blockWalk {
	w := blockWalk{nd: len(dims), bl: bl, bh: bh}
	for d := w.nd - 1; d >= 0; d-- {
		w.nb[d] = (dims[d] + blockSide - 1) / blockSide
		n := bh[d] - bl[d] + 1
		w.bc[d] = bl[d] + i%n
		i /= n
	}
	return w
}

// walkField is walkBox over every block of dims.
func walkField(dims []int, i int) blockWalk {
	var bh [3]int
	for d := range dims {
		bh[d] = (dims[d]+blockSide-1)/blockSide - 1
	}
	return walkBox(dims, [3]int{}, bh, i)
}

// index is the current block's position in the stream's block order.
func (w *blockWalk) index() int {
	k := 0
	for d := 0; d < w.nd; d++ {
		k = k*w.nb[d] + w.bc[d]
	}
	return k
}

// origin writes the current block's first sample coordinates into o and
// returns it.
func (w *blockWalk) origin(o []int) []int {
	for d := range o {
		o[d] = w.bc[d] * blockSide
	}
	return o
}

// next steps to the following block of the box.
func (w *blockWalk) next() {
	for d := w.nd - 1; d >= 0; d-- {
		if w.bc[d] < w.bh[d] {
			w.bc[d]++
			return
		}
		w.bc[d] = w.bl[d]
	}
}

// skipBlock replays one block's bit consumption without reconstructing it,
// returning the number of bits the decoder would consume: decodeBlockVals'
// header read, coefficient walk and pad skip, minus the arithmetic. size is
// the number of coefficients per block.
func skipBlock(r *entropy.BitReader, minexp, maxbits, nd, size int) int {
	h := blockHeader(r, minexp, maxbits, nd)
	if !h.zero && h.maxprec > 0 {
		h.used += decodeInts(r, h.budget-h.used, h.maxprec, size, nil)
	}
	return skipPad(r, maxbits, h.used)
}
