package sz

// Dimension-specialized Lorenzo quantization kernels.
//
// The generic codec walks a subset-mask loop plus a coordinate odometer for
// every point (see lorenzo in sz.go). For the 1D/2D/3D fields the paper's
// datasets actually use, the kernels below split each row into its first
// column (a boundary point with a reduced stencil) and the row interior,
// where the full fixed-offset stencil applies and the inner loop is free of
// subset masks, odometer steps and boundary branches.
//
// Bit-identity contract: every kernel accumulates the same stencil terms in
// the same subset-mask order as lorenzo.predict (pred starts at 0.0 and each
// term is added or subtracted in mask order), and the quantize/escape step is
// the shared encPoint/decPoint, so the specialized paths produce byte-for-byte
// the same compressed blobs and bit-for-bit the same reconstructions as the
// generic path. TestQuantizeKernelsMatchGeneric and FuzzDecompress pin this.

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// encPoint quantizes point idx against its Lorenzo prediction: it stores the
// residual code and the decoder-visible reconstruction, or escapes the value
// to the raw pool when the residual cannot be represented within the bound.
// raw must have enough capacity for every possible escape (f.Size()), so the
// append never reallocates.
func encPoint(data []float32, idx int, pred, eb, twoEB float64, codes []uint16, recon, raw []float32) []float32 {
	v := float64(data[idx])
	q := math.Round((v - pred) / twoEB)
	if !math.IsNaN(q) && !math.IsInf(q, 0) {
		if code := int64(q) + radius; code > 0 && code < intervals {
			// The reconstruction is rounded to float32 exactly as the
			// decoder will produce it; accept only if the bound holds
			// after that rounding.
			rec := float32(pred + twoEB*q)
			if math.Abs(float64(rec)-v) <= eb {
				codes[idx] = uint16(code)
				recon[idx] = rec
				return raw
			}
		}
	}
	codes[idx] = 0
	recon[idx] = data[idx]
	return append(raw, data[idx])
}

// decPoint reconstructs point idx from its quantization code, pulling escaped
// values from the raw pool. It returns the updated raw cursor, or -1 when the
// pool is exhausted (the caller reports corruption).
func decPoint(data []float32, idx int, pred, twoEB float64, codeBytes, rawPayload []byte, nraw uint64, rawPos int) int {
	code := binary.LittleEndian.Uint16(codeBytes[2*idx:])
	if code != 0 {
		data[idx] = float32(pred + twoEB*float64(int(code)-radius))
		return rawPos
	}
	if uint64(rawPos) >= nraw {
		return -1
	}
	data[idx] = math.Float32frombits(binary.LittleEndian.Uint32(rawPayload[4*rawPos:]))
	return rawPos + 1
}

// quantizeField runs the prediction/quantization pass of Compress, writing a
// code and reconstruction for every point and appending escaped values to
// raw (whose capacity must cover f.Size()). forceGeneric routes through the
// N-d odometer path; it exists so tests and benchmarks can compare the
// specialized kernels against their oracle.
func quantizeField(f *grid.Field, eb float64, codes []uint16, recon, raw []float32, forceGeneric bool) []float32 {
	if !forceGeneric {
		switch len(f.Dims) {
		case 1:
			obs.Add("sz/quantize_fast_points", int64(len(f.Data)))
			return quantize1D(f.Data, eb, codes, recon, raw)
		case 2:
			obs.Add("sz/quantize_fast_points", int64(len(f.Data)))
			return quantize2D(f.Data, f.Dims, eb, codes, recon, raw)
		case 3:
			obs.Add("sz/quantize_fast_points", int64(len(f.Data)))
			return quantize3D(f.Data, f.Dims, eb, codes, recon, raw)
		}
	}
	obs.Add("sz/quantize_generic_points", int64(len(f.Data)))
	return quantizeFieldGeneric(f, eb, codes, recon, raw)
}

// quantizeFieldGeneric is the N-dimensional odometer path: the fallback for
// 4D fields and the oracle the specialized kernels are tested against.
func quantizeFieldGeneric(f *grid.Field, eb float64, codes []uint16, recon, raw []float32) []float32 {
	twoEB := 2 * eb
	lor := newLorenzo(f.Dims)
	for idx := range f.Data {
		raw = encPoint(f.Data, idx, lor.predict(recon, idx), eb, twoEB, codes, recon, raw)
		lor.advance()
	}
	return raw
}

func quantize1D(data []float32, eb float64, codes []uint16, recon, raw []float32) []float32 {
	twoEB := 2 * eb
	if len(data) == 0 {
		return raw
	}
	raw = encPoint(data, 0, 0, eb, twoEB, codes, recon, raw)
	for i := 1; i < len(data); i++ {
		pred := 0.0
		pred += float64(recon[i-1])
		raw = encPoint(data, i, pred, eb, twoEB, codes, recon, raw)
	}
	return raw
}

func quantize2D(data []float32, dims []int, eb float64, codes []uint16, recon, raw []float32) []float32 {
	ny, nx := dims[0], dims[1]
	twoEB := 2 * eb
	idx := 0
	for y := 0; y < ny; y++ {
		if y == 0 {
			raw = encPoint(data, 0, 0, eb, twoEB, codes, recon, raw)
			idx++
			for x := 1; x < nx; x++ {
				pred := 0.0
				pred += float64(recon[idx-1])
				raw = encPoint(data, idx, pred, eb, twoEB, codes, recon, raw)
				idx++
			}
			continue
		}
		pred := 0.0
		pred += float64(recon[idx-nx])
		raw = encPoint(data, idx, pred, eb, twoEB, codes, recon, raw)
		idx++
		for x := 1; x < nx; x++ {
			p := 0.0
			p += float64(recon[idx-nx])
			p += float64(recon[idx-1])
			p -= float64(recon[idx-nx-1])
			raw = encPoint(data, idx, p, eb, twoEB, codes, recon, raw)
			idx++
		}
	}
	return raw
}

func quantize3D(data []float32, dims []int, eb float64, codes []uint16, recon, raw []float32) []float32 {
	nz, ny, nx := dims[0], dims[1], dims[2]
	s1 := nx
	s0 := ny * nx
	twoEB := 2 * eb
	idx := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			// First column of the row: stencil terms that look back along x
			// drop out; the rest keep their subset-mask accumulation order.
			pred := 0.0
			if z > 0 {
				pred += float64(recon[idx-s0])
			}
			if y > 0 {
				pred += float64(recon[idx-s1])
				if z > 0 {
					pred -= float64(recon[idx-s0-s1])
				}
			}
			raw = encPoint(data, idx, pred, eb, twoEB, codes, recon, raw)
			idx++
			// Row interior: one fixed stencil per row class, branch-free in x.
			switch {
			case z > 0 && y > 0:
				for x := 1; x < nx; x++ {
					p := 0.0
					p += float64(recon[idx-s0])
					p += float64(recon[idx-s1])
					p -= float64(recon[idx-s0-s1])
					p += float64(recon[idx-1])
					p -= float64(recon[idx-s0-1])
					p -= float64(recon[idx-s1-1])
					p += float64(recon[idx-s0-s1-1])
					raw = encPoint(data, idx, p, eb, twoEB, codes, recon, raw)
					idx++
				}
			case z > 0:
				for x := 1; x < nx; x++ {
					p := 0.0
					p += float64(recon[idx-s0])
					p += float64(recon[idx-1])
					p -= float64(recon[idx-s0-1])
					raw = encPoint(data, idx, p, eb, twoEB, codes, recon, raw)
					idx++
				}
			case y > 0:
				for x := 1; x < nx; x++ {
					p := 0.0
					p += float64(recon[idx-s1])
					p += float64(recon[idx-1])
					p -= float64(recon[idx-s1-1])
					raw = encPoint(data, idx, p, eb, twoEB, codes, recon, raw)
					idx++
				}
			default:
				for x := 1; x < nx; x++ {
					p := 0.0
					p += float64(recon[idx-1])
					raw = encPoint(data, idx, p, eb, twoEB, codes, recon, raw)
					idx++
				}
			}
		}
	}
	return raw
}

// errRawExhausted is the corruption error shared by every reconstruction
// kernel when a stream escapes more points than its raw pool holds.
func errRawExhausted() error {
	return fmt.Errorf("sz: %w: raw pool exhausted", compress.ErrCorrupt)
}

// reconstructField mirrors quantizeField on the decode side: the whole field
// from an empty predictor, the box being all of it.
func reconstructField(f *grid.Field, eb float64, codeBytes, rawPayload []byte, nraw uint64, forceGeneric bool) error {
	_, err := reconstructBox(f.Data, f.Dims, 0, f.Dims[1:], eb, codeBytes, rawPayload, nraw, 0, forceGeneric)
	return err
}

// reconstructBox is the one Lorenzo reconstruction entry point, shared by
// full and region decode. data holds dims[0] rows of the trailing dims and
// codeBytes their codes; rows below row0 are already reconstructed (a legacy
// blob's seed plane) and rows [row0, dims[0]) are decoded, starting at raw
// cursor rawPos. Only points inside the prefix box [0, hiTail[d]) of the
// trailing dimensions are written: every Lorenzo neighbor sits at offset -1,
// so the box is closed under dependencies and nothing outside it is ever
// read. Escape codes outside the box still consume their raw value — they are
// counted, not decoded — so the returned cursor is exact for whatever decodes
// next. A full decode is the call whose box is the whole field.
func reconstructBox(data []float32, dims []int, row0 int, hiTail []int, eb float64, codeBytes, rawPayload []byte, nraw uint64, rawPos int, forceGeneric bool) (int, error) {
	plane, box := elemCount(dims[1:]), elemCount(hiTail)
	rows := int64(dims[0] - row0)
	if box < plane {
		obs.Add("sz/region_points_skipped", rows*int64(plane-box))
	}
	if !forceGeneric && len(dims) <= 3 {
		obs.Add("sz/reconstruct_fast_points", rows*int64(box))
		switch len(dims) {
		case 1:
			return reconstruct1D(data, row0, eb, codeBytes, rawPayload, nraw, rawPos)
		case 2:
			return reconstruct2D(data, dims, row0, hiTail[0], eb, codeBytes, rawPayload, nraw, rawPos)
		case 3:
			return reconstruct3D(data, dims, row0, hiTail[0], hiTail[1], eb, codeBytes, rawPayload, nraw, rawPos)
		}
	}
	obs.Add("sz/reconstruct_generic_points", rows*int64(box))
	return reconstructGeneric(data, dims, row0, hiTail, eb, codeBytes, rawPayload, nraw, rawPos)
}

// reconstructGeneric is the N-d odometer decode path (4D fallback and test
// oracle), one point at a time under the reconstructBox contract. The
// prediction is pure, so computing it for escaped points too (which the
// dispatch kernels also do) cannot change the output.
func reconstructGeneric(data []float32, dims []int, row0 int, hiTail []int, eb float64, codeBytes, rawPayload []byte, nraw uint64, rawPos int) (int, error) {
	twoEB := 2 * eb
	lor := newLorenzo(dims)
	lor.coord[0] = row0
	for idx := row0 * elemCount(dims[1:]); idx < len(data); idx++ {
		inBox := true
		for d, h := range hiTail {
			if lor.coord[d+1] >= h {
				inBox = false
				break
			}
		}
		if inBox {
			rawPos = decPoint(data, idx, lor.predict(data, idx), twoEB, codeBytes, rawPayload, nraw, rawPos)
			if rawPos < 0 {
				return 0, errRawExhausted()
			}
		} else if codeBytes[2*idx] == 0 && codeBytes[2*idx+1] == 0 {
			rawPos++
		}
		lor.advance()
	}
	return rawPos, nil
}

func reconstruct1D(data []float32, i0 int, eb float64, codeBytes, rawPayload []byte, nraw uint64, rawPos int) (int, error) {
	twoEB := 2 * eb
	if i0 == 0 && len(data) > 0 {
		rawPos = decPoint(data, 0, 0, twoEB, codeBytes, rawPayload, nraw, rawPos)
		i0 = 1
	}
	for i := i0; i < len(data) && rawPos >= 0; i++ {
		pred := 0.0
		pred += float64(data[i-1])
		rawPos = decPoint(data, i, pred, twoEB, codeBytes, rawPayload, nraw, rawPos)
	}
	if rawPos < 0 {
		return 0, errRawExhausted()
	}
	return rawPos, nil
}

func reconstruct2D(data []float32, dims []int, y0, hx int, eb float64, codeBytes, rawPayload []byte, nraw uint64, rawPos int) (int, error) {
	ny, nx := dims[0], dims[1]
	twoEB := 2 * eb
	for y := y0; y < ny; y++ {
		idx := y * nx
		if y == 0 {
			rawPos = decPoint(data, 0, 0, twoEB, codeBytes, rawPayload, nraw, rawPos)
			idx++
			for x := 1; x < hx && rawPos >= 0; x++ {
				pred := 0.0
				pred += float64(data[idx-1])
				rawPos = decPoint(data, idx, pred, twoEB, codeBytes, rawPayload, nraw, rawPos)
				idx++
			}
		} else {
			pred := 0.0
			pred += float64(data[idx-nx])
			rawPos = decPoint(data, idx, pred, twoEB, codeBytes, rawPayload, nraw, rawPos)
			idx++
			for x := 1; x < hx && rawPos >= 0; x++ {
				p := 0.0
				p += float64(data[idx-nx])
				p += float64(data[idx-1])
				p -= float64(data[idx-nx-1])
				rawPos = decPoint(data, idx, p, twoEB, codeBytes, rawPayload, nraw, rawPos)
				idx++
			}
		}
		if rawPos < 0 {
			return 0, errRawExhausted()
		}
		if hx < nx {
			rawPos += countEscapes(codeBytes[2*idx : 2*(y+1)*nx])
		}
	}
	return rawPos, nil
}

func reconstruct3D(data []float32, dims []int, z0, hy, hx int, eb float64, codeBytes, rawPayload []byte, nraw uint64, rawPos int) (int, error) {
	nz, ny, nx := dims[0], dims[1], dims[2]
	s1 := nx
	s0 := ny * nx
	twoEB := 2 * eb
	for z := z0; z < nz; z++ {
		for y := 0; y < hy; y++ {
			idx := z*s0 + y*s1
			pred := 0.0
			if z > 0 {
				pred += float64(data[idx-s0])
			}
			if y > 0 {
				pred += float64(data[idx-s1])
				if z > 0 {
					pred -= float64(data[idx-s0-s1])
				}
			}
			rawPos = decPoint(data, idx, pred, twoEB, codeBytes, rawPayload, nraw, rawPos)
			idx++
			switch {
			case z > 0 && y > 0:
				for x := 1; x < hx && rawPos >= 0; x++ {
					p := 0.0
					p += float64(data[idx-s0])
					p += float64(data[idx-s1])
					p -= float64(data[idx-s0-s1])
					p += float64(data[idx-1])
					p -= float64(data[idx-s0-1])
					p -= float64(data[idx-s1-1])
					p += float64(data[idx-s0-s1-1])
					rawPos = decPoint(data, idx, p, twoEB, codeBytes, rawPayload, nraw, rawPos)
					idx++
				}
			case z > 0:
				for x := 1; x < hx && rawPos >= 0; x++ {
					p := 0.0
					p += float64(data[idx-s0])
					p += float64(data[idx-1])
					p -= float64(data[idx-s0-1])
					rawPos = decPoint(data, idx, p, twoEB, codeBytes, rawPayload, nraw, rawPos)
					idx++
				}
			case y > 0:
				for x := 1; x < hx && rawPos >= 0; x++ {
					p := 0.0
					p += float64(data[idx-s1])
					p += float64(data[idx-1])
					p -= float64(data[idx-s1-1])
					rawPos = decPoint(data, idx, p, twoEB, codeBytes, rawPayload, nraw, rawPos)
					idx++
				}
			default:
				for x := 1; x < hx && rawPos >= 0; x++ {
					p := 0.0
					p += float64(data[idx-1])
					rawPos = decPoint(data, idx, p, twoEB, codeBytes, rawPayload, nraw, rawPos)
					idx++
				}
			}
			if rawPos < 0 {
				return 0, errRawExhausted()
			}
			if hx < nx {
				rawPos += countEscapes(codeBytes[2*idx : 2*(z*s0+(y+1)*s1)])
			}
		}
		if hy < ny {
			rawPos += countEscapes(codeBytes[2*(z*s0+hy*s1) : 2*(z+1)*s0])
		}
	}
	return rawPos, nil
}
