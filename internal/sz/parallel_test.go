package sz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// parWidths are the worker counts the bit-identity contract is proven at.
func parWidths() []int {
	ws := []int{2, 3}
	if n := runtime.NumCPU(); n > 3 {
		ws = append(ws, n)
	}
	return ws
}

// parShapes all span two or more slabs under szChunkLayout — the only fields
// that fan out — one per rank, each with a short last slab; parControl is a
// single-slab field, serial at every width.
var parShapes = [][]int{
	{2*65536 + 100},  // 1D: 65536-point slabs, 100-point tail
	{2100, 64},       // 2D: 1024-row slabs, 52-row tail
	{33, 96, 96},     // 3D: 8-row slabs, 1-row tail
	{10, 16, 16, 32}, // 4D: 8-row slabs on the generic kernel, 2-row tail
}

var parControl = []int{16, 32, 32}

// parField fills a field with the given character. Characters mirror the
// serial identity suite: smooth (mostly quantized), noisy (mixed), escape
// (NaN/Inf/huge forcing the raw path), inf (every point escapes), constant.
func parField(shape []int, kind string) *grid.Field {
	f := grid.MustNew(kind, shape...)
	rng := rand.New(rand.NewSource(int64(len(f.Data))))
	for i := range f.Data {
		switch kind {
		case "smooth":
			f.Data[i] = float32(math.Sin(float64(i) / 17))
		case "noisy":
			f.Data[i] = rng.Float32()*2e4 - 1e4
		case "escape":
			switch i % 7 {
			case 0:
				f.Data[i] = float32(math.NaN())
			case 1:
				f.Data[i] = float32(math.Inf(1))
			case 2:
				f.Data[i] = float32(math.Inf(-1))
			case 3:
				f.Data[i] = 3e38
			case 4:
				f.Data[i] = float32(math.Copysign(0, -1))
			default:
				f.Data[i] = float32(i)
			}
		case "inf":
			f.Data[i] = float32(math.Inf(1))
		case "constant":
			f.Data[i] = 4.25
		}
	}
	return f
}

var parKinds = []string{"smooth", "noisy", "escape", "constant"}

// Parallel compression and decompression must be byte- and bit-identical to
// the serial path for every shape, data character and worker count.
func TestSZParallelIdentity(t *testing.T) {
	for _, shape := range parShapes {
		if _, nSlabs := szChunkLayout(shape); nSlabs < 2 {
			t.Fatalf("%v is a single slab: the suite would compare serial with serial", shape)
		}
	}
	if _, nSlabs := szChunkLayout(parControl); nSlabs != 1 {
		t.Fatalf("control %v spans %d slabs, want 1", parControl, nSlabs)
	}
	for _, shape := range append([][]int{parControl}, parShapes...) {
		for _, kind := range parKinds {
			f := parField(shape, kind)
			for _, eb := range []float64{1e-6, 1e-3, 1.0} {
				serialBlob, err := compressSZ(f, eb, false, 1)
				if err != nil {
					t.Fatalf("%v/%s eb=%g: serial compress: %v", shape, kind, eb, err)
				}
				serialRec, err := decompressSZ(serialBlob, false, 1)
				if err != nil {
					t.Fatalf("%v/%s eb=%g: serial decompress: %v", shape, kind, eb, err)
				}
				for _, w := range parWidths() {
					parBlob, err := compressSZ(f, eb, false, w)
					if err != nil {
						t.Fatalf("%v/%s eb=%g w=%d: compress: %v", shape, kind, eb, w, err)
					}
					if !bytes.Equal(parBlob, serialBlob) {
						t.Fatalf("%v/%s eb=%g w=%d: parallel blob differs from serial", shape, kind, eb, w)
					}
					parRec, err := decompressSZ(serialBlob, false, w)
					if err != nil {
						t.Fatalf("%v/%s eb=%g w=%d: decompress: %v", shape, kind, eb, w, err)
					}
					if !bitsEqual(parRec.Data, serialRec.Data) {
						t.Fatalf("%v/%s eb=%g w=%d: parallel reconstruction differs from serial", shape, kind, eb, w)
					}
				}
			}
		}
	}
}

// bitsEqual compares float32 slices by bit pattern (NaN-safe).
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// Slabs quantize concurrently and the escapes are gathered from their codes
// afterwards; the blob's raw pool must be the serial walk's — each slab's
// escapes on the oracle, appended slab after slab — byte for byte. The slabs
// escape every way they can: part of a slab, all of one, none, and a scatter.
func TestSZParallelEscapeOrder(t *testing.T) {
	const eb = 1e-3
	dims := []int{28, 96, 96}
	T, nSlabs := szChunkLayout(dims)
	if T != 8 || nSlabs != 4 {
		t.Fatalf("layout of %v = (%d rows, %d slabs), want (8, 4)", dims, T, nSlabs)
	}
	f := grid.MustNew("esc", dims...)
	ps := 96 * 96
	nan := float32(math.NaN())
	for i := range f.Data {
		v := float32(math.Sin(float64(i) / 17))
		switch z := i / ps; {
		case z < 4: // slab 0, first half
			v = nan
		case z >= 8 && z < 16: // slab 1
			v = nan
		case z >= 24 && i%5 == 0: // slab 3
			v = float32(math.Inf(1))
		}
		f.Data[i] = v
	}

	n := f.Size()
	codes := make([]uint16, n)
	recon := make([]float32, n)
	want := make([]float32, 0, n)
	perSlab := make([]int, nSlabs)
	for s := 0; s < nSlabs; s++ {
		z0, z1, subDims := slabSpan(dims, T, s)
		sub, err := grid.FromData(f.Name, f.Data[z0*ps:z1*ps], subDims...)
		if err != nil {
			t.Fatal(err)
		}
		quantizeField(sub, eb, codes[z0*ps:z1*ps], recon[z0*ps:z1*ps], true)
		for i, c := range codes[z0*ps : z1*ps] {
			if c == 0 {
				want = append(want, sub.Data[i])
				perSlab[s]++
			}
		}
	}
	if k := perSlab[0]; k == 0 || k == T*ps {
		t.Fatalf("slab 0 escapes %d of %d points, want part of them", k, T*ps)
	}
	if perSlab[1] != T*ps || perSlab[2] != 0 || perSlab[3] == 0 {
		t.Fatalf("per-slab escapes %v, want [part, all, none, some]", perSlab)
	}
	wantBytes := make([]byte, 4*len(want))
	for i, v := range want {
		binary.LittleEndian.PutUint32(wantBytes[4*i:], math.Float32bits(v))
	}

	for _, w := range append([]int{1}, parWidths()...) {
		blob, err := compressSZ(f, eb, false, w)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		h, payload, err := compress.ParseHeader(blob, compress.MagicSZ)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		_, rawPayload, nraw, err := splitSZSections(h.Dims, payload)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if int(nraw) != len(want) || !bytes.Equal(rawPayload, wantBytes) {
			t.Fatalf("w=%d: raw pool (%d escapes) differs from the serial walk (%d escapes)", w, nraw, len(want))
		}
	}
}

// dropEscapes reserializes an sz blob with the last k values cut off its raw
// pool and the pool's count lowered to match, so the container still parses
// and only the reconstruction pass can notice the shortfall.
func dropEscapes(t *testing.T, blob []byte, k int) []byte {
	t.Helper()
	h, payload, err := compress.ParseHeader(blob, compress.MagicSZ)
	if err != nil {
		t.Fatal(err)
	}
	_, rawPayload, nraw, err := splitSZSections(h.Dims, payload)
	if err != nil {
		t.Fatal(err)
	}
	if nraw < uint64(k) {
		t.Fatalf("blob has %d escapes, cannot drop %d", nraw, k)
	}
	countLen := len(binary.AppendUvarint(nil, nraw))
	out := bytes.Clone(blob[:len(blob)-len(rawPayload)-countLen])
	out = binary.AppendUvarint(out, nraw-uint64(k))
	return append(out, rawPayload[:4*(int(nraw)-k)]...)
}

// A raw pool that is short of the stream's escapes must fail with the same
// error on the slab fan-out (which counts escapes up front) as on the serial
// kernels (which run the pool dry), at any worker count.
func TestSZParallelRawExhaustedIdentity(t *testing.T) {
	want := errRawExhausted().Error()
	for _, shape := range [][]int{parControl, {33, 96, 96}} {
		blob, err := compressSZ(parField(shape, "escape"), 1e-3, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		cut := dropEscapes(t, blob, 2)
		for _, w := range append([]int{1}, parWidths()...) {
			for _, generic := range []bool{false, true} {
				_, err := decompressSZ(cut, generic, w)
				if !errors.Is(err, compress.ErrCorrupt) || err.Error() != want {
					t.Fatalf("%v w=%d generic=%v: error %v, want %q", shape, w, generic, err, want)
				}
			}
		}
	}
}

// SZ2 routes only its entropy stage through the worker budget; blobs must
// still be byte-identical at every width.
func TestSZ2ParallelIdentity(t *testing.T) {
	f := parField([]int{32, 64, 64}, "smooth")
	serial := &V2{Workers: 1}
	want, err := serial.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	wantRec, err := serial.Decompress(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWidths() {
		par := &V2{Workers: w}
		got, err := par.Compress(f, 1e-3)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("w=%d: parallel sz2 blob differs from serial", w)
		}
		rec, err := par.Decompress(got)
		if err != nil {
			t.Fatalf("w=%d: decompress: %v", w, err)
		}
		if !bitsEqual(rec.Data, wantRec.Data) {
			t.Fatalf("w=%d: sz2 reconstruction differs", w)
		}
	}
}

// A single parallel Compressor value shared across goroutines must be safe:
// the pooled scratch is per-acquisition, never per-codec, and each call's
// slabs write only their own ranges of it. Run under -race.
func TestSZSharedCompressorConcurrent(t *testing.T) {
	f := parField([]int{17, 96, 96}, "noisy") // slabs of 8, 8 and 1 rows
	c := &Compressor{Workers: 2}
	want, err := c.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if RegionTile(want)[0] >= 17 {
		t.Fatal("field is a single slab: nothing fans out")
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				blob, err := c.Compress(f, 1e-3)
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(blob, want) {
					errs[g] = errMismatch
					return
				}
				if _, err := c.Decompress(blob); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

var errMismatch = errMismatchType{}

type errMismatchType struct{}

func (errMismatchType) Error() string { return "concurrent blob differs from reference" }
