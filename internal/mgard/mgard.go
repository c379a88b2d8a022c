// Package mgard implements an MGARD+-style multilevel error-controlled lossy
// compressor. MGARD+ (Liang et al., 2021) accelerates MGARD by replacing its
// L2-projection multigrid decomposition with interpolation-based multilevel
// prediction plus SZ-style quantization and entropy coding; this package
// follows that design:
//
//  1. A dyadic hierarchy of grids G_S ⊃ G_{S/2} ⊃ … ⊃ G_1 is built over the
//     field (S = 2^levels).
//  2. The coarsest grid is quantized directly.
//  3. Each refinement level predicts the newly introduced points by cubic
//     (falling back to linear) interpolation along one dimension at a time
//     from already-reconstructed coarser points, and quantizes the
//     prediction corrections against the absolute error bound.
//  4. The quantization codes go through the shared LZ+Huffman back end.
//
// Every point is quantized exactly once against a prediction built from
// reconstructed values, so |decompressed - original| <= eb holds pointwise.
package mgard

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
)

const (
	intervals = 1 << 16
	radius    = intervals / 2
	maxLevels = 6
)

// Compressor is the MGARD+-like codec. The zero value is ready to use.
type Compressor struct{}

// New returns an MGARD+-like compressor.
func New() *Compressor { return &Compressor{} }

// Name implements compress.Compressor.
func (*Compressor) Name() string { return "mgard" }

// Axis implements compress.Compressor.
func (*Compressor) Axis() compress.Axis {
	return compress.Axis{Kind: compress.AbsErrorBound, Min: 1e-12, Max: 1e6}
}

// Compress implements compress.Compressor.
func (*Compressor) Compress(f *grid.Field, eb float64) ([]byte, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("mgard: error bound must be a positive finite number, got %v", eb)
	}
	n := f.Size()
	codes := make([]uint16, 0, n)
	var raw []float32
	recon := make([]float32, n)
	twoEB := 2 * eb

	visitHierarchy(f.Dims, func(idx int, pred func() float64) {
		v := float64(f.Data[idx])
		p := pred()
		q := math.Round((v - p) / twoEB)
		if !math.IsNaN(q) && !math.IsInf(q, 0) {
			if code := int64(q) + radius; code > 0 && code < intervals {
				rec := float32(p + twoEB*q)
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
	}, recon)

	codeBytes := make([]byte, 2*len(codes))
	for i, c := range codes {
		binary.LittleEndian.PutUint16(codeBytes[2*i:], c)
	}
	packed, err := entropy.CompressBytes(codeBytes)
	if err != nil {
		return nil, fmt.Errorf("mgard: encode codes: %w", err)
	}
	out := compress.AppendHeader(nil, compress.Header{Magic: compress.MagicMGARD, Name: f.Name, Dims: f.Dims, Knob: eb})
	out = binary.AppendUvarint(out, uint64(len(packed)))
	out = append(out, packed...)
	out = binary.AppendUvarint(out, uint64(len(raw)))
	for _, v := range raw {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out, nil
}

// Decompress implements compress.Compressor.
func (*Compressor) Decompress(blob []byte) (*grid.Field, error) {
	h, payload, err := compress.ParseHeader(blob, compress.MagicMGARD)
	if err != nil {
		return nil, fmt.Errorf("mgard: %w", err)
	}
	if _, err := compress.CheckElems(h.Dims, len(payload)); err != nil {
		return nil, fmt.Errorf("mgard: %w", err)
	}
	pcLen, k := binary.Uvarint(payload)
	if k <= 0 || uint64(len(payload)-k) < pcLen {
		return nil, fmt.Errorf("mgard: %w: code section", compress.ErrCorrupt)
	}
	payload = payload[k:]
	codeBytes, err := entropy.DecompressBytes(payload[:pcLen], 1)
	if err != nil {
		return nil, fmt.Errorf("mgard: decode codes: %w", err)
	}
	payload = payload[pcLen:]
	nraw, k := binary.Uvarint(payload)
	if k <= 0 || uint64(len(payload)-k) < 4*nraw {
		return nil, fmt.Errorf("mgard: %w: raw section", compress.ErrCorrupt)
	}
	payload = payload[k:]

	f, err := grid.New(h.Name, h.Dims...)
	if err != nil {
		return nil, fmt.Errorf("mgard: %w", err)
	}
	if len(codeBytes) != 2*f.Size() {
		return nil, fmt.Errorf("mgard: %w: %d code bytes for %d points", compress.ErrCorrupt, len(codeBytes), f.Size())
	}
	eb := h.Knob
	twoEB := 2 * eb
	pos, rawPos := 0, 0
	var visitErr error
	visitHierarchy(h.Dims, func(idx int, pred func() float64) {
		if visitErr != nil {
			return
		}
		code := binary.LittleEndian.Uint16(codeBytes[2*pos:])
		pos++
		if code == 0 {
			if uint64(rawPos) >= nraw {
				visitErr = fmt.Errorf("mgard: %w: raw pool exhausted", compress.ErrCorrupt)
				return
			}
			f.Data[idx] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*rawPos:]))
			rawPos++
			return
		}
		f.Data[idx] = float32(pred() + twoEB*float64(int(code)-radius))
	}, f.Data)
	if visitErr != nil {
		return nil, visitErr
	}
	return f, nil
}

// visitHierarchy walks every grid point exactly once, coarsest level first,
// invoking fn with the point's linear index and a predictor closure that
// interpolates from already-visited points in recon. The traversal order and
// the predictors are fully determined by the dims, so encoder and decoder
// stay in lockstep.
func visitHierarchy(dims []int, fn func(idx int, pred func() float64), recon []float32) {
	nd := len(dims)
	strides := make([]int, nd)
	st := 1
	for i := nd - 1; i >= 0; i-- {
		strides[i] = st
		st *= dims[i]
	}
	levels := pickLevels(dims)
	base := 1 << uint(levels)

	zero := func() float64 { return 0 }

	// Coarsest grid: all coords multiples of base, predicted as zero.
	visitLattice(dims, func(coord []int) bool {
		for _, c := range coord {
			if c%base != 0 {
				return false
			}
		}
		return true
	}, strides, func(idx int, coord []int) { fn(idx, zero) })

	// Refinement: halve the stride each level; within a level, pass along
	// each dimension in turn (SZ3/MGARD+ style interpolation sweeps).
	for s := base; s >= 2; s /= 2 {
		h := s / 2
		for d := 0; d < nd; d++ {
			dd := d
			hh := h
			visitLattice(dims, func(coord []int) bool {
				// New points for this pass: odd multiple of h along d,
				// multiples of h in earlier dims, multiples of s in later.
				if coord[dd]%s != hh {
					return false
				}
				for e := 0; e < nd; e++ {
					if e == dd {
						continue
					}
					step := s
					if e < dd {
						step = hh
					}
					if coord[e]%step != 0 {
						return false
					}
				}
				return true
			}, strides, func(idx int, coord []int) {
				fn(idx, interp1D(recon, coord, dims, strides, dd, hh))
			})
		}
	}
}

// interp1D builds the predictor for a point: cubic spline interpolation along
// dimension d when the ±h and ±3h neighbors exist (the paper's equation (3)
// stencil), linear interpolation when only ±h exist, and nearest-neighbor
// extrapolation at the boundary.
func interp1D(recon []float32, coord, dims, strides []int, d, h int) func() float64 {
	c := coord[d]
	idx := 0
	for i, cc := range coord {
		idx += cc * strides[i]
	}
	s := strides[d]
	switch {
	case c >= 3*h && c+3*h < dims[d]:
		i0, i1, i2, i3 := idx-3*h*s, idx-h*s, idx+h*s, idx+3*h*s
		return func() float64 {
			return -1.0/16*float64(recon[i0]) + 9.0/16*float64(recon[i1]) +
				9.0/16*float64(recon[i2]) - 1.0/16*float64(recon[i3])
		}
	case c+h < dims[d]:
		i1, i2 := idx-h*s, idx+h*s
		return func() float64 { return (float64(recon[i1]) + float64(recon[i2])) / 2 }
	default:
		i1 := idx - h*s
		return func() float64 { return float64(recon[i1]) }
	}
}

// visitLattice walks all coordinates in row-major order and calls visit for
// the ones accepted by keep.
func visitLattice(dims []int, keep func(coord []int) bool, strides []int, visit func(idx int, coord []int)) {
	nd := len(dims)
	coord := make([]int, nd)
	for {
		if keep(coord) {
			idx := 0
			for i, c := range coord {
				idx += c * strides[i]
			}
			visit(idx, coord)
		}
		d := nd - 1
		for d >= 0 {
			coord[d]++
			if coord[d] < dims[d] {
				break
			}
			coord[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

// pickLevels chooses the hierarchy depth: deep enough that the coarse grid is
// sparse, shallow enough that every dimension keeps at least two coarse
// points when possible.
func pickLevels(dims []int) int {
	minDim := dims[0]
	for _, d := range dims[1:] {
		if d < minDim {
			minDim = d
		}
	}
	l := 0
	for l < maxLevels && (1<<uint(l+1)) < minDim {
		l++
	}
	return l
}

// elemCount multiplies dims without allocating (header sanity checks).
func elemCount(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}
