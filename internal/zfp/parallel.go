package zfp

// Chunked intra-field parallelism for the block coder.
//
// ZFP blocks are coded independently — the bit writer is the only state that
// crosses a block boundary — so any partition of the block list into
// contiguous chunks, encoded into private buffers and concatenated in block
// order, reproduces the serial stream bit for bit. Decoding fans out the same
// way once each chunk's starting bit offset is known: in fixed-rate mode
// block k starts at exactly k*maxbits, and in fixed-accuracy mode a serial
// skim pass (skipBlock) replays the decoder's bit consumption without doing
// any arithmetic, which is exact because decodeInts' control flow depends
// only on the values of the bits it reads, never on accumulated coefficients.
//
// Obs instrumentation: zfp/par_chunks and zfp/par_blocks count fan-outs, and
// the zfp/stitch and zfp/offset_scan spans time the serial portions.

import (
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
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

// blockOriginAt writes the origin of block k into origin, matching the
// row-major (last dimension fastest) order of grid.VisitOrigins.
func blockOriginAt(dims []int, k int, origin []int) {
	for d := len(dims) - 1; d >= 0; d-- {
		nb := (dims[d] + blockSide - 1) / blockSide
		origin[d] = (k % nb) * blockSide
		k /= nb
	}
}

// chunkCount splits total blocks into at most workers*zfpChunksPerWorker
// contiguous chunks and returns (number of chunks, blocks per chunk).
func chunkCount(total, workers int) (nchunks, per int) {
	nchunks = workers * zfpChunksPerWorker
	if nchunks > total {
		nchunks = total
	}
	per = (total + nchunks - 1) / nchunks
	nchunks = (total + per - 1) / per
	return nchunks, per
}

// encodeBodyChunked is the parallel encode path: each chunk of blocks is
// encoded into its own pooled bit writer with its own scratch, then the
// chunk payloads are stitched in block order.
func encodeBodyChunked(folded *grid.Field, minexp, maxbits, workers int) ([]byte, error) {
	dims := folded.Dims
	nd := len(dims)
	bs := 1
	for i := 0; i < nd; i++ {
		bs *= blockSide
	}
	perm := perms[nd-1]
	total := countBlocks(dims)
	nchunks, per := chunkCount(total, workers)
	obs.Inc("zfp/par_encodes")
	obs.Add("zfp/par_chunks", int64(nchunks))
	obs.Add("zfp/par_blocks", int64(total))

	type chunkOut struct {
		payload []byte
		nbits   int
	}
	outs := make([]chunkOut, nchunks)
	pool.Run(workers, nchunks, func(ci int) {
		lo, hi := ci*per, (ci+1)*per
		if hi > total {
			hi = total
		}
		w := entropy.NewPooledBitWriter()
		s := getBlockScratch(bs)
		origin := make([]int, nd)
		for k := lo; k < hi; k++ {
			blockOriginAt(dims, k, origin)
			encodeBlock(w, folded, origin, s, minexp, maxbits, nd, perm)
		}
		putBlockScratch(s)
		// BitLen must be read before Bytes pads the final partial word.
		nbits := w.BitLen()
		outs[ci] = chunkOut{payload: w.Bytes(), nbits: nbits}
	})

	stop := obs.Span("zfp/stitch")
	w := entropy.NewPooledBitWriter()
	for _, o := range outs {
		w.AppendBits(o.payload, o.nbits)
		entropy.RecycleBuffer(o.payload)
	}
	stop()
	return w.Bytes(), nil
}

// decodeBodyChunked is the parallel decode path. Chunk starting offsets come
// from arithmetic in fixed-rate mode and from a serial skim in fixed-accuracy
// mode; blocks within a chunk then decode exactly as the serial walk would,
// and scatterClipped writes are disjoint across blocks, so no two workers
// touch the same output element.
func decodeBodyChunked(folded *grid.Field, payload []byte, minexp, maxbits, workers int) error {
	dims := folded.Dims
	nd := len(dims)
	bs := 1
	for i := 0; i < nd; i++ {
		bs *= blockSide
	}
	perm := perms[nd-1]
	total := countBlocks(dims)
	nchunks, per := chunkCount(total, workers)
	obs.Inc("zfp/par_decodes")
	obs.Add("zfp/par_chunks", int64(nchunks))
	obs.Add("zfp/par_blocks", int64(total))

	// starts[ci] is the bit offset of chunk ci's first block.
	starts := make([]int, nchunks)
	if maxbits > 0 {
		for ci := range starts {
			starts[ci] = ci * per * maxbits
		}
	} else {
		stop := obs.Span("zfp/offset_scan")
		// Only chunk starts are read, so the skim stops at the last one.
		r := entropy.NewBitReader(payload)
		bitPos := 0
		for k := 0; k < (nchunks-1)*per; k++ {
			bitPos += skipBlock(r, minexp, maxbits, nd, bs)
			if (k+1)%per == 0 {
				starts[(k+1)/per] = bitPos
			}
		}
		stop()
	}

	pool.Run(workers, nchunks, func(ci int) {
		lo, hi := ci*per, (ci+1)*per
		if hi > total {
			hi = total
		}
		r := entropy.NewBitReaderAt(payload, starts[ci])
		s := getBlockScratch(bs)
		origin := make([]int, nd)
		for k := lo; k < hi; k++ {
			blockOriginAt(dims, k, origin)
			decodeBlock(r, folded, origin, s, minexp, maxbits, nd, perm)
		}
		putBlockScratch(s)
	})
	return nil
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
