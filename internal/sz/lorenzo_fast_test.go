package sz

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// The specialized 1D/2D/3D kernels must be bit-identical to the generic
// odometer path: same compressed bytes, same reconstructed bit patterns.
// These tests sweep shapes that stress every row class (first-row, first-
// column, interior, unit dims), data that exercises both the quantized and
// the escape path (NaN, Inf, huge values), and bounds from very tight to
// absurdly loose.

var identityShapes = [][]int{
	{1}, {7}, {64},
	{1, 9}, {9, 1}, {8, 8}, {5, 13},
	{1, 1, 1}, {4, 1, 7}, {1, 8, 8}, {16, 16, 16}, {3, 5, 7},
	// Row groups: rows 1..ny-1 run rowGroup at a time, so ny-1 ≡ 0..3 leaves
	// a short last group of every length, against rows of 1, 2, rowGroup and
	// rowGroup+1 columns.
	{5, 1}, {6, 2}, {7, 4}, {8, 5},
	{2, 5, 5}, {3, 6, 4}, {2, 7, 2}, {3, 8, 1},
	// Two full row groups on rows of rowGroup, rowGroup+1 and rowGroup+2
	// columns: no steady step, one, and two (see planeSteady).
	{2*rowGroup + 1, rowGroup}, {2*rowGroup + 1, rowGroup + 1}, {2*rowGroup + 1, rowGroup + 2},
	{2, 2*rowGroup + 1, rowGroup}, {3, 2*rowGroup + 1, rowGroup + 1}, {2, 2*rowGroup + 1, rowGroup + 2},
	{17, 91, 93},               // three slabs (8, 8, 1 rows): the slab path and plane 0 of each
	{65536 + 7},                // two 1D slabs (65,536 and 7 points), each one plane row
	{2, 3, 4, 5}, {4, 4, 4, 4}, // 4-d exercises the shared generic path
}

// identityFields returns fields with distinct value characters for a shape.
func identityFields(t *testing.T, shape []int) []*grid.Field {
	t.Helper()
	mk := func(name string) *grid.Field { return grid.MustNew(name, shape...) }

	smooth := mk("smooth")
	for i := range smooth.Data {
		smooth.Data[i] = float32(math.Sin(float64(i) / 11))
	}

	rnd := mk("random")
	rng := rand.New(rand.NewSource(int64(len(rnd.Data))))
	for i := range rnd.Data {
		rnd.Data[i] = rng.Float32()*2e4 - 1e4
	}

	// Escape-heavy: non-finite and huge samples that force raw literals, plus
	// negative zero to pin the float accumulation order.
	esc := mk("escape")
	for i := range esc.Data {
		switch i % 7 {
		case 0:
			esc.Data[i] = float32(math.NaN())
		case 1:
			esc.Data[i] = float32(math.Inf(1))
		case 2:
			esc.Data[i] = float32(math.Inf(-1))
		case 3:
			esc.Data[i] = 3e38
		case 4:
			esc.Data[i] = float32(math.Copysign(0, -1))
		default:
			esc.Data[i] = float32(i)
		}
	}

	konst := mk("const")
	konst.Fill(4.25)

	// Escapes aimed at the steady bodies (planeSteady, volumeSteady): NaNs
	// of distinct payloads and ±Inf at the first and last steady column of
	// every row of every row group, one row group that is all escapes, and
	// in every plane a row of 3e38 above a row of −0, which both escape, so
	// −0 is a reconstruction the next row and plane read as their first
	// stencil term.
	steady := mk("steady")
	nx := shape[len(shape)-1]
	ny := 1
	if len(shape) > 1 {
		ny = shape[len(shape)-2]
	}
	specials := []float32{
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc12345),
		math.Float32frombits(0x7f800001), float32(math.Inf(1)), float32(math.Inf(-1)),
	}
	for i := range steady.Data {
		y, x := i/nx%ny, i%nx
		j := (y - 1) % rowGroup
		switch {
		case y >= 1 && (x == rowGroup-j || x == nx-1-j):
			steady.Data[i] = specials[i%len(specials)]
		case y > rowGroup && y <= 2*rowGroup && i >= len(steady.Data)-ny*nx:
			steady.Data[i] = float32(math.Inf(1))
		case y == 1:
			steady.Data[i] = 3e38
		case y == 2:
			steady.Data[i] = float32(math.Copysign(0, -1))
		default:
			steady.Data[i] = float32(math.Sin(float64(i) / 7))
		}
	}

	// Cancellation: leading rows (2D) or planes (3D) alternate between
	// samples near 2^30 — bilinear in the last two coordinates and exact in
	// float32, so the Lorenzo stencil cancels them exactly — and small
	// smooth ones. A small point's prediction sums huge terms with small
	// ones, and float64 keeps a different part of the small terms for every
	// order of the adds, so a kernel that sums its stencil out of order
	// reconstructs different bits.
	cancel := mk("cancel")
	lead := nx
	if len(shape) > 2 {
		lead = ny * nx
	}
	for i := range cancel.Data {
		if i/lead%2 == 1 {
			cancel.Data[i] = float32(1<<30 + 1024*(i/nx%ny) + 128*(i%nx))
		} else {
			cancel.Data[i] = float32(math.Sin(float64(i) / 5))
		}
	}

	return []*grid.Field{smooth, rnd, esc, konst, steady, cancel}
}

func TestCompressFastMatchesGenericBitwise(t *testing.T) {
	for _, shape := range identityShapes {
		for _, f := range identityFields(t, shape) {
			for _, eb := range []float64{1e-3, 1e-7, 1e3} {
				blobG, errG := compressSZ(f, eb, true, 1)
				blobF, errF := compressSZ(f, eb, false, 1)
				if (errG == nil) != (errF == nil) {
					t.Fatalf("%v/%s eb=%g: generic err=%v, fast err=%v", shape, f.Name, eb, errG, errF)
				}
				if errG != nil {
					continue
				}
				if !bytes.Equal(blobG, blobF) {
					t.Fatalf("%v/%s eb=%g: compressed blobs differ (%d vs %d bytes)",
						shape, f.Name, eb, len(blobG), len(blobF))
				}

				gG, errG := decompressSZ(blobG, true, 1)
				gF, errF := decompressSZ(blobG, false, 1)
				gP, errP := decompressSZ(blobG, false, 2)
				if errG != nil || errF != nil || errP != nil {
					t.Fatalf("%v/%s eb=%g: decompress generic err=%v fast err=%v parallel err=%v", shape, f.Name, eb, errG, errF, errP)
				}
				for i := range gG.Data {
					if math.Float32bits(gG.Data[i]) != math.Float32bits(gF.Data[i]) {
						t.Fatalf("%v/%s eb=%g: sample %d differs: %x vs %x",
							shape, f.Name, eb, i, math.Float32bits(gG.Data[i]), math.Float32bits(gF.Data[i]))
					}
				}
				if !bitsEqual(gP.Data, gG.Data) {
					t.Fatalf("%v/%s eb=%g: parallel decode differs from the oracle", shape, f.Name, eb)
				}
				// The middle half of every dimension, from the blob's index.
				lo, hi := make([]int, len(shape)), make([]int, len(shape))
				for d, n := range shape {
					lo[d], hi[d] = n/4, n-n/4
				}
				want, err := grid.SliceRegion(gG, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				index, err := BuildRegionIndex(blobG)
				if err != nil {
					t.Fatal(err)
				}
				got, err := decompressRegion(blobG, index, lo, hi, 1, false)
				if err != nil {
					t.Fatalf("%v/%s eb=%g: region %v:%v: %v", shape, f.Name, eb, lo, hi, err)
				}
				if !bitsEqual(got.Data, want.Data) {
					t.Fatalf("%v/%s eb=%g: region %v:%v differs from the oracle", shape, f.Name, eb, lo, hi)
				}
			}
		}
	}
}

// TestReconstructFastMatchesGenericOnTruncatedRaw confirms the two decode
// paths agree on the error for a blob whose raw-literal pool is exhausted
// mid-stream. The 3D fields have two full row groups per plane, so dropping
// 1..n escapes starts the overrun at every point of a group, in the steady
// steps too on the rowGroup+2-column one.
func TestReconstructFastMatchesGenericOnTruncatedRaw(t *testing.T) {
	for _, shape := range [][]int{{4, 5}, {2, 2*rowGroup + 1, 3}, {2, 2*rowGroup + 1, rowGroup + 2}} {
		f := grid.MustNew("esc", shape...)
		for i := range f.Data {
			f.Data[i] = float32(math.Inf(1)) // every sample escapes
		}
		blob, err := compressSZ(f, 1e-3, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		for drop := 1; drop <= f.Size(); drop++ {
			cut := dropEscapes(t, blob, drop)
			_, errG := decompressSZ(cut, true, 1)
			_, errF := decompressSZ(cut, false, 1)
			if errG == nil || errF == nil || errG.Error() != errF.Error() {
				t.Fatalf("%v drop=%d: generic err=%v, fast err=%v", shape, drop, errG, errF)
			}
		}
		// Decompressing a prefix truncates the container instead; both paths
		// must fail (or succeed) identically.
		for cut := len(blob) - 1; cut > len(blob)-16 && cut > 0; cut-- {
			gG, errG := decompressSZ(blob[:cut], true, 1)
			gF, errF := decompressSZ(blob[:cut], false, 1)
			if (errG == nil) != (errF == nil) {
				t.Fatalf("%v cut=%d: generic err=%v, fast err=%v", shape, cut, errG, errF)
			}
			if errG == nil && !bitsEqual(gG.Data, gF.Data) {
				t.Fatalf("%v cut=%d: reconstructions differ", shape, cut)
			}
		}
	}
}

// encPoint rounds through an integer register instead of math.Round (see its
// comment). The generic oracle shares encPoint, so the rewrite is pinned here
// against the math.Round formulation it replaced: same code, same
// reconstruction bits, at half-integers, the interval edges and non-finite
// values.
func TestEncPointMatchesMathRound(t *testing.T) {
	ref := func(v, pred, eb, twoEB float64) (uint16, float32) {
		q := math.Round((v - pred) / twoEB)
		if !math.IsNaN(q) && !math.IsInf(q, 0) {
			if code := int64(q) + radius; code > 0 && code < intervals {
				if rec := float32(pred + twoEB*q); math.Abs(float64(rec)-v) <= eb {
					return uint16(code), rec
				}
			}
		}
		return 0, float32(v)
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 3e38, -3e38, math.Copysign(0, -1), 0}
	for _, eb := range []float64{1e-7, 1e-3, 0.5, 1e3} {
		twoEB := 2 * eb
		for _, pred := range []float64{0, 1.5, -3.25, 1e30} {
			vs := append([]float64(nil), specials...)
			for _, k := range []float64{0, 1, 2, radius - 2, radius - 1, radius, radius + 1} {
				for _, frac := range []float64{-0.5, -0.25, 0, 0.25, 0.5, 0.75} {
					for _, sign := range []float64{1, -1} {
						x := sign * (k + frac)
						vs = append(vs, pred+x*twoEB, math.Nextafter(pred+x*twoEB, math.Inf(1)), math.Nextafter(pred+x*twoEB, math.Inf(-1)))
					}
				}
			}
			for _, v := range vs {
				v = float64(float32(v)) // encPoint sees float32 samples
				gc, gr := encPoint(v, pred, eb, twoEB)
				wc, wr := ref(v, pred, eb, twoEB)
				if gc != wc || math.Float32bits(gr) != math.Float32bits(wr) {
					t.Fatalf("eb=%g pred=%g v=%g: got (%d, %x), want (%d, %x)", eb, pred, v, gc, math.Float32bits(gr), wc, math.Float32bits(wr))
				}
			}
		}
	}
}
