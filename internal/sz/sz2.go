package sz

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// V2 is an SZ2-style compressor (Liang et al., 2018 — the "SZ 2.x" the
// paper's evaluation used): the field is processed in blocks, and each
// block chooses between the Lorenzo predictor and a per-block linear
// regression v ≈ b0 + Σ_d b_d·x_d, whichever predicts better. Regression
// wins on locally planar data where Lorenzo's reconstruction-noise feedback
// hurts; Lorenzo wins on complex local structure. The choice bit and the
// quantized regression coefficients are part of the stream.
//
// The error-bound contract is identical to the classic codec:
// |decompressed - original| <= eb pointwise.
type V2 struct {
	// Workers bounds the intra-field fan-out (pool.Workers semantics). The
	// blockwise Lorenzo-vs-regression walk is sequential through the shared
	// reconstruction, so only the entropy stage's frequency count fans out;
	// output is byte-identical at every setting.
	Workers int
}

// NewV2 returns an SZ2-style compressor.
func NewV2() *V2 { return &V2{} }

// Name implements compress.Compressor.
func (*V2) Name() string { return "sz2" }

// Axis implements compress.Compressor.
func (*V2) Axis() compress.Axis {
	return compress.Axis{Kind: compress.AbsErrorBound, Min: 1e-12, Max: 1e6}
}

// WithWorkers implements compress.ParallelCompressor.
func (c *V2) WithWorkers(n int) compress.Compressor { return &V2{Workers: n} }

// regBlockSide matches SZ2's default prediction block.
const regBlockSide = 6

// Compress implements compress.Compressor.
func (c *V2) Compress(f *grid.Field, eb float64) ([]byte, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("sz2: error bound must be a positive finite number, got %v", eb)
	}
	defer obs.Span("compress/sz2")()
	obs.Inc("compressor_runs/sz2")
	n := f.Size()
	recon := f32Scratch.Get(n)
	defer f32Scratch.Put(recon)
	codes := u16Scratch.Get(n)[:0]
	defer func() { u16Scratch.Put(codes) }()
	// Escapes are staged through the float32 scratch pool: at most n points
	// can escape, so the capacity-n buffer below never regrows.
	raw := f32Scratch.Get(n)[:0]
	defer f32Scratch.Put(raw[:cap(raw)])
	var modeBits []byte
	var coeffCodes []byte
	twoEB := 2 * eb
	// Coefficients are quantized on a grid fine enough that the prediction
	// error they add stays well under eb across a block.
	coeffQ := eb / (4 * regBlockSide)

	strides := f.Strides()
	lor := newLorenzo(f.Dims)
	// Reusable global-coordinate buffer: origin+local, computed in place so
	// the per-point predictor never allocates.
	gcoord := make([]int, f.NDims())

	blockIdx := 0
	grid.VisitOrigins(f.Dims, regBlockSide, func(origin []int) {
		shape := clipShape(f.Dims, origin, regBlockSide)

		// Fit the linear model on original values.
		coeffs := fitLinear(f, origin, shape, strides)
		// Quantize coefficients to what the decoder will see.
		qc := make([]int64, len(coeffs))
		rc := make([]float64, len(coeffs))
		usable := true
		for i, b := range coeffs {
			q := math.Round(b / coeffQ)
			if math.IsNaN(q) || math.Abs(q) > 1e15 {
				usable = false
				break
			}
			qc[i] = int64(q)
			rc[i] = q * coeffQ
		}

		// Choose the mode by comparing prediction error on original values.
		useReg := false
		if usable {
			regErr, lorErr := 0.0, 0.0
			forEachInBlock(origin, shape, strides, func(idx int, local []int) {
				v := float64(f.Data[idx])
				regErr += math.Abs(v - evalLinear(rc, local))
				for d := range gcoord {
					gcoord[d] = origin[d] + local[d]
				}
				lorErr += math.Abs(v - lor.predict(f.Data, idx, gcoord))
			})
			useReg = regErr < lorErr
		}
		if useReg {
			modeBits = setBit(modeBits, blockIdx)
			for _, q := range qc {
				coeffCodes = binary.AppendVarint(coeffCodes, q)
			}
		}
		blockIdx++

		// Encode the block's points in global row-major-within-block order.
		forEachInBlock(origin, shape, strides, func(idx int, local []int) {
			v := float64(f.Data[idx])
			var pred float64
			if useReg {
				pred = evalLinear(rc, local)
			} else {
				for d := range gcoord {
					gcoord[d] = origin[d] + local[d]
				}
				pred = lor.predict(recon, idx, gcoord)
			}
			q := math.Round((v - pred) / twoEB)
			if !math.IsNaN(q) && !math.IsInf(q, 0) {
				if code := int64(q) + radius; code > 0 && code < intervals {
					rec := float32(pred + twoEB*q)
					if math.Abs(float64(rec)-v) <= eb {
						codes = append(codes, uint16(code))
						recon[idx] = rec
						return
					}
				}
			}
			codes = append(codes, 0)
			raw = append(raw, f.Data[idx])
			recon[idx] = f.Data[idx]
		})
	})

	codeBytes := byteScratch.Get(2 * len(codes))
	for i, c := range codes {
		binary.LittleEndian.PutUint16(codeBytes[2*i:], c)
	}
	// Both streams use the chunked container (legacy below its cutoff): sz2
	// reconstruction is a serial block walk, but the entropy stage no longer
	// has to be — Decompress fans the chunks of each stream across workers.
	workers := pool.Workers(c.Workers)
	packedCodes, err := entropy.CompressBytesBlocks(codeBytes, entropy.ChunkTargetBytes, workers)
	byteScratch.Put(codeBytes)
	if err != nil {
		return nil, fmt.Errorf("sz2: encode codes: %w", err)
	}
	packedCoeffs, err := entropy.CompressBytesBlocks(coeffCodes, entropy.ChunkTargetBytes, workers)
	if err != nil {
		return nil, fmt.Errorf("sz2: encode coefficients: %w", err)
	}

	out := compress.AppendHeader(nil, compress.Header{Magic: compress.MagicSZ2, Name: f.Name, Dims: f.Dims, Knob: eb})
	out = binary.AppendUvarint(out, uint64(len(modeBits)))
	out = append(out, modeBits...)
	out = binary.AppendUvarint(out, uint64(len(packedCoeffs)))
	out = append(out, packedCoeffs...)
	out = binary.AppendUvarint(out, uint64(len(packedCodes)))
	out = append(out, packedCodes...)
	out = binary.AppendUvarint(out, uint64(len(raw)))
	for _, v := range raw {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out, nil
}

// Decompress implements compress.Compressor. The blockwise reconstruction
// walk is inherently serial, but chunked entropy streams decode across the
// worker budget first.
func (c *V2) Decompress(blob []byte) (*grid.Field, error) {
	defer obs.Span("decompress/sz2")()
	workers := pool.Workers(c.Workers)
	h, payload, err := compress.ParseHeader(blob, compress.MagicSZ2)
	if err != nil {
		return nil, fmt.Errorf("sz2: %w", err)
	}
	if _, err := compress.CheckElems(h.Dims, len(payload)); err != nil {
		return nil, fmt.Errorf("sz2: %w", err)
	}
	section := func() ([]byte, error) {
		l, k := binary.Uvarint(payload)
		if k <= 0 || uint64(len(payload)-k) < l {
			return nil, fmt.Errorf("sz2: %w: truncated section", compress.ErrCorrupt)
		}
		s := payload[k : k+int(l)]
		payload = payload[k+int(l):]
		return s, nil
	}
	modeBits, err := section()
	if err != nil {
		return nil, err
	}
	packedCoeffs, err := section()
	if err != nil {
		return nil, err
	}
	coeffCodes, err := entropy.DecompressBytes(packedCoeffs, workers)
	if err != nil {
		return nil, fmt.Errorf("sz2: decode coefficients: %w", err)
	}
	packedCodes, err := section()
	if err != nil {
		return nil, err
	}
	codeBytes, err := entropy.DecompressBytes(packedCodes, workers)
	if err != nil {
		return nil, fmt.Errorf("sz2: decode codes: %w", err)
	}
	nraw, k := binary.Uvarint(payload)
	if k <= 0 || uint64(len(payload)-k) < 4*nraw {
		return nil, fmt.Errorf("sz2: %w: raw section", compress.ErrCorrupt)
	}
	payload = payload[k:]

	f, err := grid.New(h.Name, h.Dims...)
	if err != nil {
		return nil, fmt.Errorf("sz2: %w", err)
	}
	if len(codeBytes) != 2*f.Size() {
		return nil, fmt.Errorf("sz2: %w: %d code bytes for %d points", compress.ErrCorrupt, len(codeBytes), f.Size())
	}
	eb := h.Knob
	twoEB := 2 * eb
	coeffQ := eb / (4 * regBlockSide)
	nd := f.NDims()
	strides := f.Strides()
	lor := newLorenzo(f.Dims)
	gcoord := make([]int, nd)

	pos, rawPos, blockIdx := 0, 0, 0
	coeffPos := 0
	var decodeErr error
	grid.VisitOrigins(h.Dims, regBlockSide, func(origin []int) {
		if decodeErr != nil {
			return
		}
		shape := clipShape(h.Dims, origin, regBlockSide)
		useReg := getBit(modeBits, blockIdx)
		blockIdx++
		rc := make([]float64, nd+1)
		if useReg {
			for i := range rc {
				q, k := binary.Varint(coeffCodes[coeffPos:])
				if k <= 0 {
					decodeErr = fmt.Errorf("sz2: %w: coefficient stream exhausted", compress.ErrCorrupt)
					return
				}
				coeffPos += k
				rc[i] = float64(q) * coeffQ
			}
		}
		forEachInBlock(origin, shape, strides, func(idx int, local []int) {
			if decodeErr != nil {
				return
			}
			code := binary.LittleEndian.Uint16(codeBytes[2*pos:])
			pos++
			if code == 0 {
				if uint64(rawPos) >= nraw {
					decodeErr = fmt.Errorf("sz2: %w: raw pool exhausted", compress.ErrCorrupt)
					return
				}
				f.Data[idx] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*rawPos:]))
				rawPos++
				return
			}
			var pred float64
			if useReg {
				pred = evalLinear(rc, local)
			} else {
				for d := range gcoord {
					gcoord[d] = origin[d] + local[d]
				}
				pred = lor.predict(f.Data, idx, gcoord)
			}
			f.Data[idx] = float32(pred + twoEB*float64(int(code)-radius))
		})
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	return f, nil
}

// fitLinear computes least-squares coefficients [b0, b_1..b_nd] for
// v ≈ b0 + Σ b_d·local_d over the block. Per-dimension slopes come from the
// separable covariance formula; the block coordinates are orthogonal after
// centering, so no matrix solve is needed.
func fitLinear(f *grid.Field, origin, shape, strides []int) []float64 {
	nd := len(origin)
	count := 0
	meanV := 0.0
	meanX := make([]float64, nd)
	forEachInBlock(origin, shape, strides, func(idx int, local []int) {
		v := float64(f.Data[idx])
		meanV += v
		for d := 0; d < nd; d++ {
			meanX[d] += float64(local[d])
		}
		count++
	})
	fc := float64(count)
	meanV /= fc
	for d := range meanX {
		meanX[d] /= fc
	}
	cov := make([]float64, nd)
	varX := make([]float64, nd)
	forEachInBlock(origin, shape, strides, func(idx int, local []int) {
		dv := float64(f.Data[idx]) - meanV
		for d := 0; d < nd; d++ {
			dx := float64(local[d]) - meanX[d]
			cov[d] += dv * dx
			varX[d] += dx * dx
		}
	})
	coeffs := make([]float64, nd+1)
	b0 := meanV
	for d := 0; d < nd; d++ {
		if varX[d] > 0 {
			coeffs[d+1] = cov[d] / varX[d]
		}
		b0 -= coeffs[d+1] * meanX[d]
	}
	coeffs[0] = b0
	return coeffs
}

// evalLinear evaluates the (reconstructed) linear model at local block
// coordinates.
func evalLinear(rc []float64, local []int) float64 {
	v := rc[0]
	for d := 0; d < len(local); d++ {
		v += rc[d+1] * float64(local[d])
	}
	return v
}

// Helpers shared by the encoder and decoder.

func clipShape(dims, origin []int, side int) []int {
	shape := make([]int, len(dims))
	for d := range shape {
		shape[d] = side
		if origin[d]+shape[d] > dims[d] {
			shape[d] = dims[d] - origin[d]
		}
	}
	return shape
}

// forEachInBlock visits the block's points in row-major order, passing the
// global linear index and the local (block-relative) coordinates.
func forEachInBlock(origin, shape, strides []int, fn func(idx int, local []int)) {
	nd := len(origin)
	local := make([]int, nd)
	for {
		idx := 0
		for d := 0; d < nd; d++ {
			idx += (origin[d] + local[d]) * strides[d]
		}
		fn(idx, local)
		d := nd - 1
		for d >= 0 {
			local[d]++
			if local[d] < shape[d] {
				break
			}
			local[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

func setBit(bits []byte, i int) []byte {
	for len(bits) <= i/8 {
		bits = append(bits, 0)
	}
	bits[i/8] |= 1 << uint(i%8)
	return bits
}

func getBit(bits []byte, i int) bool {
	if i/8 >= len(bits) {
		return false
	}
	return bits[i/8]&(1<<uint(i%8)) != 0
}
