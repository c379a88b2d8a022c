package zfp

import (
	"bytes"
	"math"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// bitwiseDecompress is the fuzz oracle: Decompress with every block read by
// the retained bitwise walk (decodeIntsBitwise, one bit per call) and copied
// out sample by sample, so it shares the header checks and the block
// arithmetic with the codec but none of its word-level kernels or block
// copies.
func bitwiseDecompress(blob []byte) (*grid.Field, error) {
	h, payload, err := compress.ParseHeader(blob, compress.MagicZFP)
	if err != nil {
		return nil, err
	}
	if len(payload) < 1 {
		return nil, compress.ErrCorrupt
	}
	mode, payload := payload[0], payload[1:]
	if _, err := compress.CheckElems(h.Dims, len(payload)); err != nil {
		return nil, err
	}
	f, err := grid.New(h.Name, h.Dims...)
	if err != nil {
		return nil, err
	}
	var minexp, maxbits int
	switch mode {
	case 0:
		minexp = minExp(h.Knob)
	case 1:
		maxbits = blockBits(h.Knob, foldedNDims(h.Dims))
	default:
		return nil, compress.ErrCorrupt
	}
	dims := foldDims(h.Dims)
	nd := len(dims)
	strides := make([]int, nd)
	for d, st := nd-1, 1; d >= 0; d, st = d-1, st*dims[d] {
		strides[d] = st
	}
	ub := make([]uint32, len(perms[nd-1]))
	q := make([]int32, len(ub))
	vals := make([]float32, len(ub))
	r := entropy.NewBitReader(payload)
	k := 0
	grid.VisitOrigins(dims, blockSide, func(origin []int) {
		// Fixed-rate block k starts at bit k*maxbits: past the end of the
		// stream for a knob too large for it.
		if maxbits > 0 {
			end := 8 * len(payload)
			r = entropy.NewBitReaderAt(payload, end)
			if k <= end/maxbits {
				r = entropy.NewBitReaderAt(payload, k*maxbits)
			}
			k++
		}
		used := 1
		clear(q)
		emax := 0
		if r.TryReadBits(1) != 0 {
			emax = int(r.TryReadBits(emaxBits)) - emaxBias
			used = headerBits
			maxprec, budget := intPrec, maxbits
			if maxbits == 0 {
				maxprec, budget = precision(emax, minexp, nd), unbounded
			}
			clear(ub)
			if maxprec > 0 {
				used += decodeIntsBitwise(r, budget-used, maxprec, ub)
			}
			for i, p := range perms[nd-1] {
				q[p] = negabinaryToInt32(ub[i])
			}
			invTransform(q, nd)
		}
		dequantize(q, emax, vals)
		for i := range vals {
			at, inside := 0, true
			for d, rest := nd-1, i; d >= 0; d, rest = d-1, rest/blockSide {
				c := origin[d] + rest%blockSide
				at += c * strides[d]
				inside = inside && c < dims[d]
			}
			if inside {
				f.Data[at] = vals[i]
			}
		}
	})
	return f, nil
}

// FuzzDecompress drives the decoder with arbitrary byte streams: it must
// return errors (or wrong data) on garbage, never panic or hang, the chunked
// parallel decoder must agree with the serial one bit for bit on every input
// — including corrupt ones — and both must agree with bitwiseDecompress,
// which shares none of their word-level kernels. Seeds are valid streams so
// mutations explore near-valid inputs.
func FuzzDecompress(f *testing.F) {
	fld := grid.MustNew("seed", 6, 7, 5)
	for i := range fld.Data {
		fld.Data[i] = float32(i%13) * 0.5
	}
	c := New()
	knob := 1e-3
	if blob, err := c.Compress(fld, knob); err == nil {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{0x5A, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := c.Decompress(data)
		if err == nil && g != nil && g.Size() > 1<<24 {
			t.Skip("oversized but well-formed header")
		}
		ref, rerr := bitwiseDecompress(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("err=%v, bitwise oracle err=%v", err, rerr)
		}
		if err == nil && !zfpBitsEqual(g.Data, ref.Data) {
			t.Fatalf("decode differs from the bitwise oracle")
		}
		for _, w := range []int{2, 3} {
			pc := &Compressor{Workers: w}
			pg, perr := pc.Decompress(data)
			if (err == nil) != (perr == nil) {
				t.Fatalf("w=%d: serial err=%v, parallel err=%v", w, err, perr)
			}
			if err != nil {
				continue
			}
			for i := range g.Data {
				if math.Float32bits(g.Data[i]) != math.Float32bits(pg.Data[i]) {
					t.Fatalf("w=%d sample %d: serial %x, parallel %x",
						w, i, math.Float32bits(g.Data[i]), math.Float32bits(pg.Data[i]))
				}
			}
			// Round trip: re-compressing the agreed reconstruction must emit
			// identical blobs serially and in parallel, in both ZFP modes.
			sBlob, serr := c.Compress(g, knob)
			pBlob, perr2 := pc.Compress(g, knob)
			if (serr == nil) != (perr2 == nil) {
				t.Fatalf("w=%d: recompress serial err=%v, parallel err=%v", w, serr, perr2)
			}
			if serr == nil && !bytes.Equal(sBlob, pBlob) {
				t.Fatalf("w=%d: recompressed parallel blob differs from serial", w)
			}
			sRate, serr := (&FixedRate{Workers: 1}).Compress(g, 8)
			pRate, perr3 := (&FixedRate{Workers: w}).Compress(g, 8)
			if (serr == nil) != (perr3 == nil) {
				t.Fatalf("w=%d: fixed-rate serial err=%v, parallel err=%v", w, serr, perr3)
			}
			if serr == nil && !bytes.Equal(sRate, pRate) {
				t.Fatalf("w=%d: fixed-rate parallel blob differs from serial", w)
			}
		}
	})
}
