// Package zfp implements the ZFP transform-based lossy compressor
// (Lindstrom, 2014; version 0.5.x algorithm) for 1D–4D float32 fields, in
// both of the modes the paper discusses:
//
//   - fixed-accuracy (the default Compressor): the knob is an absolute error
//     tolerance; each 4^d block encodes only the bit planes that can affect
//     the result beyond the tolerance, which yields the characteristic
//     stairwise ratio-versus-bound curve (only the tolerance's exponent
//     matters).
//   - fixed-rate (FixedRate): the knob is a bit budget per value; every block
//     occupies exactly the same number of bits. This is the mode the related
//     work (FRaZ) criticises for its ~2× lower ratio at equal distortion.
//
// The pipeline per 4^d block: common-exponent alignment, 30-bit fixed-point
// conversion, separable lifted decorrelating transform, total-sequency
// coefficient ordering, negabinary mapping, and embedded group-tested
// bit-plane coding. 4D fields are folded to 3D (leading two dimensions
// merged) for partitioning, as zfp users conventionally do.
package zfp

import (
	"fmt"
	"math"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

const (
	emaxBias = 160
	emaxBits = 9
	// headerBits is the per-block header: 1 nonzero flag + biased exponent.
	headerBits = 1 + emaxBits
	// unbounded is the bit budget for fixed-accuracy mode.
	unbounded = 1 << 30
)

// Compressor is ZFP in fixed-accuracy mode. The zero value is ready to use.
type Compressor struct {
	// Workers bounds the intra-field fan-out (pool.Workers semantics: 0 uses
	// all cores, 1 forces a serial run). Output is byte-identical at every
	// setting — blocks are coded independently and stitched in block order.
	Workers int
}

// New returns a fixed-accuracy ZFP compressor.
func New() *Compressor { return &Compressor{} }

// Name implements compress.Compressor.
func (*Compressor) Name() string { return "zfp" }

// Axis implements compress.Compressor.
func (*Compressor) Axis() compress.Axis {
	return compress.Axis{Kind: compress.AbsErrorBound, Min: 1e-12, Max: 1e6}
}

// WithWorkers implements compress.ParallelCompressor.
func (c *Compressor) WithWorkers(n int) compress.Compressor { return &Compressor{Workers: n} }

// Compress implements compress.Compressor with an absolute error tolerance.
func (c *Compressor) Compress(f *grid.Field, tol float64) ([]byte, error) {
	if err := checkTolerance(tol); err != nil {
		return nil, err
	}
	defer obs.Span("compress/zfp")()
	obs.Inc("compressor_runs/zfp")
	out := compress.AppendHeader(nil, compress.Header{Magic: compress.MagicZFP, Name: f.Name, Dims: f.Dims, Knob: tol})
	out = append(out, 0) // mode byte: fixed accuracy
	payload, err := encodeBody(f, minExp(tol), 0, pool.Workers(c.Workers))
	if err != nil {
		return nil, err
	}
	out = append(out, payload...)
	entropy.RecycleBuffer(payload)
	return out, nil
}

// Decompress implements compress.Compressor: the whole-field case of the
// region decode.
func (c *Compressor) Decompress(blob []byte) (*grid.Field, error) {
	defer obs.Span("decompress/zfp")()
	return decode(blob, nil, nil, nil, pool.Workers(c.Workers))
}

// FixedRate is ZFP in fixed-rate mode: the knob is bits per value.
type FixedRate struct {
	// Workers bounds the intra-field fan-out; see Compressor.Workers.
	Workers int
}

// NewFixedRate returns a fixed-rate ZFP compressor.
func NewFixedRate() *FixedRate { return &FixedRate{} }

// Name implements compress.Compressor.
func (*FixedRate) Name() string { return "zfp-rate" }

// Axis implements compress.Compressor: the knob is a rate in bits/value, and
// smaller rates give larger ratios, so the model space is the negated rate.
func (*FixedRate) Axis() compress.Axis {
	return compress.Axis{Kind: compress.Precision, Min: 1, Max: 32}
}

// WithWorkers implements compress.ParallelCompressor.
func (c *FixedRate) WithWorkers(n int) compress.Compressor { return &FixedRate{Workers: n} }

// Compress encodes every block with exactly rate*4^d bits.
func (c *FixedRate) Compress(f *grid.Field, rate float64) ([]byte, error) {
	if err := checkRate(rate); err != nil {
		return nil, err
	}
	defer obs.Span("compress/zfp-rate")()
	obs.Inc("compressor_runs/zfp-rate")
	out := compress.AppendHeader(nil, compress.Header{Magic: compress.MagicZFP, Name: f.Name, Dims: f.Dims, Knob: rate})
	out = append(out, 1) // mode byte: fixed rate
	payload, err := encodeBody(f, 0, blockBits(rate, foldedNDims(f.Dims)), pool.Workers(c.Workers))
	if err != nil {
		return nil, err
	}
	out = append(out, payload...)
	entropy.RecycleBuffer(payload)
	return out, nil
}

// Decompress implements compress.Compressor.
func (c *FixedRate) Decompress(blob []byte) (*grid.Field, error) {
	return (&Compressor{Workers: c.Workers}).Decompress(blob)
}

// checkTolerance rejects a tolerance fixed-accuracy mode cannot honour.
func checkTolerance(tol float64) error {
	if !(tol > 0) || math.IsInf(tol, 0) {
		return fmt.Errorf("zfp: tolerance must be a positive finite number, got %v", tol)
	}
	return nil
}

// checkRate rejects a rate fixed-rate mode cannot honour.
func checkRate(rate float64) error {
	if !(rate > 0) || rate > 64 {
		return fmt.Errorf("zfp: rate must be in (0, 64], got %v", rate)
	}
	return nil
}

// minExp returns floor(log2(tol)), the weakest bit-plane exponent that can
// still matter under the tolerance.
func minExp(tol float64) int {
	_, e := math.Frexp(tol) // tol = m * 2^e, m in [0.5, 1)
	return e - 1
}

// blockBits converts a rate in bits/value to the per-block bit budget.
func blockBits(rate float64, nd int) int {
	n := 1
	for i := 0; i < nd; i++ {
		n *= blockSide
	}
	b := int(math.Round(rate * float64(n)))
	if b < headerBits {
		b = headerBits
	}
	return b
}

// foldDims merges leading dimensions so partitioning sees at most 3 dims.
func foldDims(dims []int) []int {
	if len(dims) <= 3 {
		return dims
	}
	folded := append([]int{dims[0] * dims[1]}, dims[2:]...)
	return folded
}

func foldedNDims(dims []int) int {
	if len(dims) > 3 {
		return 3
	}
	return len(dims)
}

// encodeBlock codes one 4^d block at origin into w: gather, common-exponent
// header, transform, and embedded bit-plane coding, padded to the budget in
// fixed-rate mode.
func encodeBlock(w *entropy.BitWriter, folded *grid.Field, origin []int, s *blockScratch, minexp, maxbits, nd int, perm []int) {
	used := 0
	emax, zero := gatherBlock(folded, origin, s)
	budget := unbounded
	if maxbits > 0 {
		budget = maxbits
	}
	if zero {
		w.WriteBit(0)
		used = 1
	} else {
		// The nonzero flag and the biased exponent, low bit first.
		w.WriteBits(1|uint64(emax+emaxBias)<<1, headerBits)
		used = headerBits
		maxprec := intPrec
		if maxbits == 0 {
			maxprec = precision(emax, minexp, nd)
		}
		if maxprec > 0 {
			transformBlock(s, emax, nd)
			used += encodeInts(w, budget-used, maxprec, s.q, perm, &s.planes)
		}
	}
	// Fixed-rate blocks are padded to exactly the budget.
	if maxbits > 0 {
		for pad := maxbits - used; pad > 0; pad -= 64 {
			w.WriteBits(0, uint(min(pad, 64)))
		}
	}
}

// gatherBlock copies the block at origin into s.vals and returns its common
// exponent and whether it is all zero: the front of the block pipeline the
// encoder and the size table share.
func gatherBlock(folded *grid.Field, origin []int, s *blockScratch) (emax int, zero bool) {
	gatherPadded(folded, origin, s.vals)
	return blockEmax(s.vals)
}

// transformBlock quantizes the gathered block at its common exponent and
// decorrelates it into s.q.
func transformBlock(s *blockScratch, emax, nd int) {
	quantize(s.vals, emax, s.q)
	fwdTransform(s.q, nd)
}

// encodeBody compresses the field body. maxbits == 0 selects fixed-accuracy
// mode with the given minexp; otherwise each block gets exactly maxbits bits.
// Contiguous chunks of blocks (chunkCount) are encoded into their own pooled
// bit writers with their own scratch and stitched in block order; a serial
// encode is one chunk, whose writer's bytes are the body. The blob is
// byte-identical at every width (see parallel.go).
func encodeBody(f *grid.Field, minexp, maxbits, workers int) ([]byte, error) {
	dims := foldDims(f.Dims)
	folded, err := grid.FromData(f.Name, f.Data, dims...)
	if err != nil {
		return nil, fmt.Errorf("zfp: fold: %w", err)
	}
	nd := len(dims)
	total := countBlocks(dims)
	nchunks, per := chunkCount(total, workers, "zfp/par_encodes")
	type chunkOut struct {
		payload []byte
		nbits   int
	}
	outs := make([]chunkOut, nchunks)
	pool.Run(workers, nchunks, func(ci int) {
		w := entropy.NewPooledBitWriter()
		s := getBlockScratch(1 << (2 * nd))
		wk := walkField(dims, ci*per)
		var o [3]int
		for n := min(per, total-ci*per); n > 0; n-- {
			encodeBlock(w, folded, wk.origin(o[:nd]), s, minexp, maxbits, nd, perms[nd-1])
			wk.next()
		}
		putBlockScratch(s)
		// BitLen must be read before Bytes pads the final partial word.
		nbits := w.BitLen()
		outs[ci] = chunkOut{payload: w.Bytes(), nbits: nbits}
	})
	if nchunks == 1 {
		return outs[0].payload, nil
	}

	stop := obs.Span("zfp/stitch")
	w := entropy.NewPooledBitWriter()
	for _, o := range outs {
		w.AppendBits(o.payload, o.nbits)
		entropy.RecycleBuffer(o.payload)
	}
	stop()
	return w.Bytes(), nil
}

// decodeBlockVals decodes one 4^d block from r into s.vals without scattering
// it anywhere, consuming exactly the bits the block occupies (including the
// fixed-rate pad), and returns that count. decodeBox scatters the values into
// whatever part of the output the block covers.
func decodeBlockVals(r *entropy.BitReader, s *blockScratch, minexp, maxbits, nd int, perm []int) int {
	vals, q, ub := s.vals, s.q, s.ub
	h := blockHeader(r, minexp, maxbits, nd)
	if h.zero {
		clear(vals)
	} else {
		if h.maxprec > 0 {
			h.used += decodeInts(r, h.budget-h.used, h.maxprec, len(ub), ub)
		} else {
			clear(ub)
		}
		for i, p := range perm {
			q[p] = negabinaryToInt32(ub[i])
		}
		invTransform(q, nd)
		dequantize(q, h.emax, vals)
	}
	return skipPad(r, maxbits, h.used)
}

// header is what a block's leading bits say: an all-zero block, or its
// common exponent and the plane count and bit budget of its coefficients.
// used counts the bits the block has consumed so far.
type header struct {
	zero                        bool
	emax, maxprec, budget, used int
}

// blockHeader reads a block's nonzero flag and exponent in one window.
func blockHeader(r *entropy.BitReader, minexp, maxbits, nd int) header {
	win := r.Peek()
	if win&1 == 0 {
		r.Consume(1)
		return header{zero: true, used: 1}
	}
	r.Consume(headerBits)
	h := header{emax: int(win>>1&(1<<emaxBits-1)) - emaxBias, maxprec: intPrec, budget: maxbits, used: headerBits}
	if maxbits == 0 {
		h.maxprec = precision(h.emax, minexp, nd)
		h.budget = unbounded
	}
	return h
}

// skipPad consumes the rest of a fixed-rate block after used bits and
// returns the bits the whole block occupies.
func skipPad(r *entropy.BitReader, maxbits, used int) int {
	if maxbits == 0 {
		return used
	}
	r.Consume(uint(maxbits - used))
	return maxbits
}

// blockExtent returns how many samples of the block at origin lie inside
// dims along each dimension (blockSide except at the far edges).
func blockExtent(dims, origin []int) [3]int {
	var ext [3]int
	for d := range dims {
		ext[d] = min(blockSide, dims[d]-origin[d])
	}
	return ext
}

// gatherPadded copies the (possibly clipped) block at origin into buf and
// pads partial lines with zfp's pad pattern so the transform sees a full 4^d
// block without introducing artificial discontinuities. A 3-D block inside
// the field is 16 plain four-sample row copies.
func gatherPadded(f *grid.Field, origin []int, buf []float32) {
	ext := blockExtent(f.Dims, origin)
	switch len(f.Dims) {
	case 1:
		copy(buf[:ext[0]], f.Data[origin[0]:])
		padLine(buf, 0, 1, ext[0])
	case 2:
		sy := f.Dims[1]
		for y := 0; y < ext[0]; y++ {
			row := (origin[0]+y)*sy + origin[1]
			copy(buf[4*y:4*y+ext[1]], f.Data[row:])
			padLine(buf, 4*y, 1, ext[1])
		}
		for x := 0; x < blockSide; x++ {
			padLine(buf, x, 4, ext[0])
		}
	default: // 3
		sy, sz := f.Dims[2], f.Dims[1]*f.Dims[2]
		base := origin[0]*sz + origin[1]*sy + origin[2]
		if ext == [3]int{blockSide, blockSide, blockSide} {
			b := (*[64]float32)(buf)
			for z := 0; z < 4; z++ {
				for y := 0; y < 4; y++ {
					*(*[4]float32)(b[16*z+4*y:]) = *(*[4]float32)(f.Data[base+z*sz+y*sy:])
				}
			}
			return
		}
		for z := 0; z < ext[0]; z++ {
			for y := 0; y < ext[1]; y++ {
				copy(buf[16*z+4*y:16*z+4*y+ext[2]], f.Data[base+z*sz+y*sy:])
				padLine(buf, 16*z+4*y, 1, ext[2])
			}
			for x := 0; x < blockSide; x++ {
				padLine(buf, 16*z+x, 4, ext[1])
			}
		}
		for y := 0; y < blockSide; y++ {
			for x := 0; x < blockSide; x++ {
				padLine(buf, 4*y+x, 16, ext[0])
			}
		}
	}
}

// elemCount multiplies dims without allocating (header sanity checks).
func elemCount(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}
