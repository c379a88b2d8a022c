package sz

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// nanStencilStream hand-builds a one-slab sz stream whose every fourth point
// is an escape cycling through the NaNs 0x7fc00001 and 0xffc12345, +Inf and
// −Inf, and whose other points are quantized at zero offset from their
// prediction. Their stencils then mix NaN payloads and Inf−Inf, which no
// encoder-made stream reaches: the encoder escapes every non-finite
// prediction. A decode path that let the order of the stencil's adds pick
// the NaN's payload disagrees with the oracle here.
func nanStencilStream(t testing.TB, dims ...int) []byte {
	escapes := []uint32{0x7fc00001, 0xffc12345, 0x7f800000, 0xff800000}
	n := elemCount(dims)
	codes := make([]byte, 2*n)
	var raw []byte
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			raw = binary.LittleEndian.AppendUint32(raw, escapes[(i/4)%len(escapes)])
			continue
		}
		binary.LittleEndian.PutUint16(codes[2*i:], radius)
	}
	packed, err := entropy.CompressBytes(codes)
	if err != nil {
		t.Fatal(err)
	}
	out := compress.AppendHeader(nil, compress.Header{Magic: compress.MagicSZ, Name: "nan", Dims: dims, Knob: 1e-3})
	out = binary.AppendUvarint(out, uint64(len(packed)))
	out = append(out, packed...)
	out = binary.AppendUvarint(out, uint64(len(raw)/4))
	return append(out, raw...)
}

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
	f.Add(nanStencilStream(f, 3, 9, 6))
	f.Add(nanStencilStream(f, 14, 15))
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
