package sz

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// chunkedShapes are field shapes that span at least two slabs under
// szChunkLayout, one per rank.
var chunkedShapes = [][]int{
	{3 * 65536},      // 1D: 65536-point slabs
	{2048, 64},       // 2D: 1024-row slabs
	{48, 64, 64},     // 3D: 16-row slabs
	{20, 24, 24, 12}, // 4D: generic-kernel slabs
}

func chunkedWidths() []int {
	w := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		w = append(w, n)
	}
	return w
}

// TestSZChunkedLayout pins the chunking policy: multi-slab fields emit the
// chunked container with a row-aligned block size, one-slab fields keep the
// whole-stream entropy format and read back as one slab of every row.
func TestSZChunkedLayout(t *testing.T) {
	for _, dims := range chunkedShapes {
		rows, nSlabs := szChunkLayout(dims)
		if nSlabs < 2 {
			t.Fatalf("%v: expected >= 2 slabs, got %d (rows %d)", dims, nSlabs, rows)
		}
		f := regionTestField(t, false, dims...)
		blob, err := New().Compress(f, 1e-3)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if got := RegionTile(blob)[0]; got != rows {
			t.Fatalf("%v: RegionTile rows = %d, want %d", dims, got, rows)
		}
	}
	// 16³ (the golden-fixture shape) is one slab: no chunking.
	f := regionTestField(t, false, 16, 16, 16)
	blob, err := New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if got := RegionTile(blob)[0]; got != 16 {
		t.Fatalf("16³ blob reports slab height %d, want one slab of 16", got)
	}
	h, payload, err := compress.ParseHeader(blob, compress.MagicSZ)
	if err != nil {
		t.Fatal(err)
	}
	packed, _, _, err := splitSZSections(h.Dims, payload)
	if err != nil {
		t.Fatal(err)
	}
	if entropy.ChunkedBlockSize(packed) != 0 {
		t.Fatal("one-slab field emitted a chunked entropy container")
	}
}

// TestSZChunkedDeterminism: chunked blobs must be byte-identical at every
// worker width and under the forced-generic quantization oracle.
func TestSZChunkedDeterminism(t *testing.T) {
	for _, dims := range chunkedShapes {
		for _, escapes := range []bool{false, true} {
			f := regionTestField(t, escapes, dims...)
			var ref []byte
			for _, w := range chunkedWidths() {
				blob, err := compressSZ(f, 1e-3, false, w)
				if err != nil {
					t.Fatalf("%v w=%d: %v", dims, w, err)
				}
				if ref == nil {
					ref = blob
				} else if !bytes.Equal(blob, ref) {
					t.Fatalf("%v escapes=%v: blob at w=%d differs from w=1", dims, escapes, w)
				}
			}
			generic, err := compressSZ(f, 1e-3, true, 1)
			if err != nil {
				t.Fatalf("%v generic: %v", dims, err)
			}
			if !bytes.Equal(generic, ref) {
				t.Fatalf("%v escapes=%v: generic-oracle blob differs from specialized", dims, escapes)
			}
		}
	}
}

// TestSZChunkedRoundTrip: decode must be bit-identical at every worker width
// and under the generic reconstruction oracle, and must honor the error
// bound on every finite point.
func TestSZChunkedRoundTrip(t *testing.T) {
	const eb = 1e-3
	for _, dims := range chunkedShapes {
		for _, escapes := range []bool{false, true} {
			f := regionTestField(t, escapes, dims...)
			blob, err := New().Compress(f, eb)
			if err != nil {
				t.Fatalf("%v: %v", dims, err)
			}
			var ref *grid.Field
			for _, w := range chunkedWidths() {
				got, err := decompressSZ(blob, false, w)
				if err != nil {
					t.Fatalf("%v w=%d: %v", dims, w, err)
				}
				if ref == nil {
					ref = got
				} else {
					for i := range ref.Data {
						if math.Float32bits(got.Data[i]) != math.Float32bits(ref.Data[i]) {
							t.Fatalf("%v escapes=%v w=%d: sample %d differs", dims, escapes, w, i)
						}
					}
				}
			}
			generic, err := decompressSZ(blob, true, 1)
			if err != nil {
				t.Fatalf("%v generic: %v", dims, err)
			}
			for i := range ref.Data {
				if math.Float32bits(generic.Data[i]) != math.Float32bits(ref.Data[i]) {
					t.Fatalf("%v escapes=%v: generic-oracle decode differs at %d", dims, escapes, i)
				}
				orig := float64(f.Data[i])
				if !math.IsNaN(orig) && !math.IsInf(orig, 0) {
					if math.Abs(float64(ref.Data[i])-orig) > eb+1e-9 {
						t.Fatalf("%v escapes=%v: error bound violated at %d", dims, escapes, i)
					}
				}
			}
		}
	}
}

// TestSZChunkedConstantField: a constant field collapses to near-nothing in
// LZ, the degenerate case for per-chunk window resets.
func TestSZChunkedConstantField(t *testing.T) {
	f := grid.MustNew("flat", 48, 64, 64)
	for i := range f.Data {
		f.Data[i] = 3.25
	}
	blob, err := New().Compress(f, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if RegionTile(blob)[0] >= 48 {
		t.Fatal("constant 48×64×64 blob is not chunked")
	}
	got, err := (&Compressor{Workers: 2}).Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data {
		if math.Abs(float64(v)-3.25) > 1e-6 {
			t.Fatalf("sample %d = %v", i, v)
		}
	}
}

// TestSZChunkedRegionMatchesFullDecode is the chunked counterpart of
// TestSZDecompressRegionMatchesFullDecode: random regions out of chunked
// blobs, with and without an index, serial and with their covering slabs
// fanned out, must be bit-identical to the full decode.
func TestSZChunkedRegionMatchesFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dims := range chunkedShapes {
		for _, escapes := range []bool{false, true} {
			f := regionTestField(t, escapes, dims...)
			blob, err := New().Compress(f, 1e-3)
			if err != nil {
				t.Fatalf("%v: %v", dims, err)
			}
			if RegionTile(blob)[0] >= dims[0] {
				t.Fatalf("%v: expected a chunked blob", dims)
			}
			full, err := New().Decompress(blob)
			if err != nil {
				t.Fatalf("%v: %v", dims, err)
			}
			index, err := BuildRegionIndex(blob)
			if err != nil {
				t.Fatalf("%v: index: %v", dims, err)
			}
			nd := len(dims)
			lo, hi := make([]int, nd), make([]int, nd)
			for trial := 0; trial < 20; trial++ {
				for d := 0; d < nd; d++ {
					lo[d] = rng.Intn(dims[d])
					hi[d] = lo[d] + 1 + rng.Intn(dims[d]-lo[d])
				}
				if trial == 0 {
					for d := 0; d < nd; d++ {
						lo[d], hi[d] = 0, dims[d]
					}
				}
				want, err := grid.SliceRegion(full, lo, hi)
				if err != nil {
					t.Fatalf("slice: %v", err)
				}
				for _, idx := range [][]byte{index, nil} {
					for _, w := range []int{1, 2} {
						got, err := DecompressRegion(blob, idx, lo, hi, w)
						if err != nil {
							t.Fatalf("%v escapes=%v region %v:%v (index=%v) w=%d: %v", dims, escapes, lo, hi, idx != nil, w, err)
						}
						for i := range want.Data {
							if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
								t.Fatalf("%v escapes=%v region %v:%v (index=%v) w=%d: sample %d differs",
									dims, escapes, lo, hi, idx != nil, w, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestSZChunkedIndex pins the index format for chunked blobs: slab height
// equal to the chunk height, escape prefix sums and flag byte 2 per boundary
// (so the index is tiny and building it decodes no samples).
func TestSZChunkedIndex(t *testing.T) {
	f := regionTestField(t, true, 48, 64, 64)
	blob, err := New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	index, err := BuildRegionIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(index) > 64 {
		t.Fatalf("multi-slab index is %d bytes; expected escape counts only", len(index))
	}
	si, err := parseSZIndex(index, f.Dims, f.Size())
	if err != nil {
		t.Fatal(err)
	}
	if si == nil {
		t.Fatal("no index built for a chunked blob")
	}
	if si.T != RegionTile(blob)[0] {
		t.Fatalf("index slab height %d != chunk height %d", si.T, RegionTile(blob)[0])
	}
	nb := len(si.cumEsc) - 1
	for i, fl := range index[len(index)-nb:] {
		if fl != 2 {
			t.Fatalf("boundary %d flag = %d, want 2", i+1, fl)
		}
	}
	// Flags 0 and 1 marked the seed planes of a one-slab index, which no
	// decoder reads; in a multi-slab index they, like any flag but 2, are
	// corrupt.
	for _, flag := range []byte{1, 3} {
		bad := bytes.Clone(index)
		bad[len(bad)-1] = flag
		if _, err := parseSZIndex(bad, f.Dims, f.Size()); err == nil {
			t.Fatalf("flag byte %d in a multi-slab index accepted", flag)
		}
	}
}
