package sz

import (
	"bytes"
	"math"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// FuzzDecompress drives the decoder with arbitrary byte streams: it must
// return errors (or wrong data) on garbage, never panic or hang. Seeds are
// valid streams so mutations explore near-valid inputs.
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
	// A two-slab seed (8 rows + 1), so the width loop below reaches the slab
	// fan-out; the low-entropy pattern keeps the blob to a few KiB.
	multi := grid.MustNew("seed2", 9, 64, 128)
	for i := range multi.Data {
		multi.Data[i] = float32(i%13) * 0.5
	}
	if blob, err := c.Compress(multi, knob); err == nil {
		f.Add(blob)
	}
	// A two-slab seed whose NaNs sit in the steady steps of every row group
	// (columns 5 and 64 of 128), so mutations start from escapes the
	// register-carried bodies fetch.
	steady := grid.MustNew("seed3", 9, 64, 128)
	for i := range steady.Data {
		steady.Data[i] = float32(i%13) * 0.5
		if x := i % 128; x == 5 || x == 64 {
			steady.Data[i] = float32(math.NaN())
		}
	}
	if blob, err := c.Compress(steady, knob); err == nil {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{0x5A, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := c.Decompress(data)
		if err == nil && g != nil && g.Size() > 1<<24 {
			t.Skip("oversized but well-formed header")
		}
		// The specialized decode kernels must agree with the generic odometer
		// on arbitrary (including corrupt) streams: same error verdict, same
		// reconstructed bit patterns.
		gg, gerr := decompressSZ(data, true, 1)
		if (err == nil) != (gerr == nil) {
			t.Fatalf("fast err=%v, generic err=%v", err, gerr)
		}
		if err == nil {
			for i := range g.Data {
				if math.Float32bits(g.Data[i]) != math.Float32bits(gg.Data[i]) {
					t.Fatalf("sample %d: fast %x, generic %x",
						i, math.Float32bits(g.Data[i]), math.Float32bits(gg.Data[i]))
				}
			}
		}
		// The slab fan-out must agree with the serial decode on the same
		// arbitrary input — identical verdict and identical bits — and a
		// round trip through both compressors must emit identical blobs.
		for _, w := range []int{2, 3} {
			pg, perr := decompressSZ(data, false, w)
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
			sBlob, serr := compressSZ(g, 1e-3, false, 1)
			pBlob, perr2 := compressSZ(g, 1e-3, false, w)
			if (serr == nil) != (perr2 == nil) {
				t.Fatalf("w=%d: recompress serial err=%v, parallel err=%v", w, serr, perr2)
			}
			if serr == nil && !bytes.Equal(sBlob, pBlob) {
				t.Fatalf("w=%d: recompressed parallel blob differs from serial", w)
			}
		}
	})
}
