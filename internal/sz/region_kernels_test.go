package sz

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// regionKernelShapes pairs, per rank, a one-slab shape under szChunkLayout
// with a chunked one of three slabs whose last is short.
var regionKernelShapes = []struct {
	oneSlab, chunked []int
}{
	{[]int{53}, []int{2*65536 + 100}},
	{[]int{17, 21}, []int{19, 8192}},
	{[]int{12, 10, 11}, []int{19, 64, 128}},
	{[]int{4, 5, 6, 7}, []int{18, 8, 16, 64}},
}

// regionKernelBoxes returns the boxes the kernels are pinned on for a field
// cut into slabs of T leading rows: one cell wide in every trailing
// dimension, the whole field, ending in the middle of a slab, starting on a
// slab boundary, and prefix boxes 1, rowGroup-1, rowGroup, rowGroup+1 and
// rowGroup+2 cells wide in every trailing dimension (rows and columns both
// stop short of a row group's end, and the box runs no, one or two steady
// steps).
func regionKernelBoxes(dims []int, T int) [][2][]int {
	nd := len(dims)
	mk := func(lo0, hi0 int, tail func(n int) (int, int)) [2][]int {
		lo, hi := make([]int, nd), make([]int, nd)
		lo[0], hi[0] = lo0, hi0
		for d := 1; d < nd; d++ {
			lo[d], hi[d] = tail(dims[d])
		}
		return [2][]int{lo, hi}
	}
	nz := dims[0]
	start := T
	if start >= nz {
		start = nz - 1
	}
	midEnd := T + (T+1)/2
	if midEnd > nz {
		midEnd = nz
	}
	boxes := [][2][]int{
		mk(0, nz, func(n int) (int, int) { return n / 2, n/2 + 1 }),
		mk(0, nz, func(n int) (int, int) { return 0, n }),
		mk(1, midEnd, func(n int) (int, int) { return n / 4, n - n/4 }),
		mk(start, nz, func(n int) (int, int) { return 0, (n + 1) / 2 }),
	}
	for _, w := range []int{1, rowGroup - 1, rowGroup, rowGroup + 1, rowGroup + 2} {
		boxes = append(boxes, mk(0, nz, func(n int) (int, int) { return 0, min(n, w) }))
	}
	return boxes
}

// The region decoder runs the same 1D/2D/3D kernels as full decode, under a
// prefix box and from a raw cursor. Both must agree with the N-d odometer
// oracle bit for bit — one-slab and chunked blobs, with and without an index
// — and reconstructBox must leave the cursor exactly one past the last escape
// of the rows it covered, in the box or not.
func TestSZRegionKernelsMatchGeneric(t *testing.T) {
	for _, pair := range regionKernelShapes {
		for i, dims := range [][]int{pair.oneSlab, pair.chunked} {
			for _, c := range []struct {
				kind string
				eb   float64
			}{{"smooth", 1e-3}, {"escape", 1e-6}} {
				name := fmt.Sprintf("%v/%s", dims, c.kind)
				blob, err := compressSZ(parField(dims, c.kind), c.eb, false, 1)
				if err != nil {
					t.Fatalf("%s: compress: %v", name, err)
				}
				T := RegionTile(blob)[0]
				if chunked := T < dims[0]; chunked != (i == 1) {
					t.Fatalf("%s: chunked = %v", name, chunked)
				}
				full, err := decompressSZ(blob, true, 1)
				if err != nil {
					t.Fatalf("%s: decompress: %v", name, err)
				}
				index, err := BuildRegionIndex(blob)
				if err != nil {
					t.Fatalf("%s: index: %v", name, err)
				}
				si, err := parseSZIndex(index, dims, full.Size())
				if err != nil || (si == nil) != (i == 0) {
					t.Fatalf("%s: index %v for a blob of %d-row slabs (err %v)", name, index, T, err)
				}
				codes, rawPayload, nraw := decodedSections(t, blob)
				for _, box := range regionKernelBoxes(dims, T) {
					lo, hi := box[0], box[1]
					want, err := grid.SliceRegion(full, lo, hi)
					if err != nil {
						t.Fatalf("%s %v:%v: slice: %v", name, lo, hi, err)
					}
					for _, idx := range [][]byte{index, nil} {
						for _, generic := range []bool{false, true} {
							got, err := decompressRegion(blob, idx, lo, hi, 1, generic)
							if err != nil {
								t.Fatalf("%s %v:%v index=%v generic=%v: %v", name, lo, hi, idx != nil, generic, err)
							}
							if !bitsEqual(got.Data, want.Data) {
								t.Fatalf("%s %v:%v index=%v generic=%v: region differs from the full-decode slice", name, lo, hi, idx != nil, generic)
							}
						}
					}
					checkBoxCursor(t, name, full, c.eb, codes, rawPayload, nraw, hi)
				}
			}
		}
	}
}

// decodedSections entropy-decodes a blob's code stream and returns it with
// the raw pool.
func decodedSections(t *testing.T, blob []byte) (codes, rawPayload []byte, nraw uint64) {
	t.Helper()
	h, payload, err := compress.ParseHeader(blob, compress.MagicSZ)
	if err != nil {
		t.Fatal(err)
	}
	packed, rawPayload, nraw, err := splitSZSections(h.Dims, payload)
	if err != nil {
		t.Fatal(err)
	}
	if codes, err = entropy.DecompressBytes(packed, 1); err != nil {
		t.Fatal(err)
	}
	return codes, rawPayload, nraw
}

// checkBoxCursor runs reconstructBox over rows [0, hi[0]) of the code stream
// as one predictor chain, on the kernels and on the oracle. (For a chunked
// blob that is not the chain the encoder used, so the values are not the
// field's — but any code stream is a valid input to both paths, and the
// escapes are the same.)
func checkBoxCursor(t *testing.T, name string, full *grid.Field, eb float64, codes, rawPayload []byte, nraw uint64, hi []int) {
	t.Helper()
	dims := append([]int{hi[0]}, full.Dims[1:]...)
	plane := elemCount(dims[1:])
	wantCursor := countEscapes(codes[:2*hi[0]*plane])
	var ref *grid.Field
	for _, generic := range []bool{true, false} {
		buf := make([]float32, hi[0]*plane)
		for i := range buf {
			buf[i] = -12345 // out-of-box points must stay unread
		}
		cursor, err := reconstructBox(buf, dims, hi[1:], eb, codes, rawPayload, nraw, 0, generic)
		if err != nil {
			t.Fatalf("%s box %v generic=%v: %v", name, hi, generic, err)
		}
		if cursor != wantCursor {
			t.Fatalf("%s box %v generic=%v: cursor %d, want %d", name, hi, generic, cursor, wantCursor)
		}
		view, err := grid.FromData("box", buf, dims...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := grid.SliceRegion(view, make([]int, len(dims)), hi)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !bitsEqual(got.Data, ref.Data) {
			t.Fatalf("%s box %v: kernel and oracle reconstruct the box differently", name, hi)
		}
	}
}

// The region twin of TestSZParallelRawExhaustedIdentity: with the last two
// escapes cut off the raw pool, a region whose box holds the points that need
// them fails with the serial error on kernels and oracle alike, and a region
// whose box leaves them outside (they are counted, never fetched) decodes.
// The all-escape field's last row is the second of a row group, so the
// overrun starts inside a group.
func TestSZRegionRawExhaustedIdentity(t *testing.T) {
	want := errRawExhausted().Error()
	for _, c := range []struct {
		dims []int
		kind string
	}{{parControl, "escape"}, {[]int{19, 64, 128}, "escape"}, {[]int{5, 2*rowGroup + 3, 8}, "inf"}} {
		dims := c.dims
		blob, err := compressSZ(parField(dims, c.kind), 1e-3, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		full, err := decompressSZ(blob, true, 1)
		if err != nil {
			t.Fatal(err)
		}
		index, err := BuildRegionIndex(blob)
		if err != nil {
			t.Fatal(err)
		}
		cut := dropEscapes(t, blob, 2)
		lo := []int{dims[0] - 3, 0, 0}
		inBox := dims
		outOfBox := []int{dims[0], dims[1], dims[2] / 2}
		slice, err := grid.SliceRegion(full, lo, outOfBox)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range [][]byte{index, nil} {
			for _, generic := range []bool{false, true} {
				_, err := decompressRegion(cut, idx, lo, inBox, 1, generic)
				if !errors.Is(err, compress.ErrCorrupt) || err.Error() != want {
					t.Fatalf("%v index=%v generic=%v: error %v, want %q", dims, idx != nil, generic, err, want)
				}
				got, err := decompressRegion(cut, idx, lo, outOfBox, 1, generic)
				if err != nil {
					t.Fatalf("%v index=%v generic=%v: missing escapes are outside the box, got %v", dims, idx != nil, generic, err)
				}
				if !bitsEqual(got.Data, slice.Data) {
					t.Fatalf("%v index=%v generic=%v: region differs from the full-decode slice", dims, idx != nil, generic)
				}
			}
		}
	}
}

// On an unindexed stream each covering slab's raw cursor is a running sum of
// per-slab escape counts: fanned out over the slabs at width > 1, chained
// through the kernels at width 1. Full decodes and regions whose rows start
// several slabs in, on streams whose raw pool is whole or cut short, must
// match the serial oracle at every width: the same bits, or the same error.
func TestSZRegionUnindexedFanOutMatchesGeneric(t *testing.T) {
	dims := []int{33, 96, 96} // slabs of 8, 8, 8, 8 and 1 rows
	if T, nSlabs := szChunkLayout(dims); T != 8 || nSlabs != 5 {
		t.Fatalf("layout of %v = (%d rows, %d slabs), want (8, 5)", dims, T, nSlabs)
	}
	boxes := [][2][]int{
		{{0, 0, 0}, dims},
		{{17, 10, 20}, {33, 90, 80}}, // two slabs of prefix, a short last slab
		{{9, 0, 0}, {30, 96, 50}},    // ends mid-slab
		{{26, 3, 3}, {31, 7, 7}},     // one covering slab, three before it
	}
	for _, kind := range []string{"escape", "noisy"} {
		blob, err := compressSZ(parField(dims, kind), 1e-3, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, _, nraw := decodedSections(t, blob)
		for _, drop := range []int{0, 1, int(nraw / 2)} {
			cut := blob
			if drop > 0 {
				cut = dropEscapes(t, blob, drop)
			}
			for _, box := range boxes {
				lo, hi := box[0], box[1]
				want, wantErr := decompressRegion(cut, nil, lo, hi, 1, true)
				for _, w := range []int{1, 2, runtime.NumCPU()} {
					name := fmt.Sprintf("%s drop=%d %v:%v w=%d", kind, drop, lo, hi, w)
					got, err := decompressRegion(cut, nil, lo, hi, w, false)
					if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
						t.Fatalf("%s: error %v, oracle error %v", name, err, wantErr)
					}
					if err == nil && !bitsEqual(got.Data, want.Data) {
						t.Fatalf("%s: region differs from the oracle", name)
					}
				}
			}
			want, wantErr := decompressSZ(cut, true, 1)
			for _, w := range []int{1, 2, runtime.NumCPU()} {
				got, err := decompressSZ(cut, false, w)
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("%s drop=%d full w=%d: error %v, oracle error %v", kind, drop, w, err, wantErr)
				}
				if err == nil && !bitsEqual(got.Data, want.Data) {
					t.Fatalf("%s drop=%d full w=%d: decode differs from the oracle", kind, drop, w)
				}
			}
		}
	}
}

// The N-d oracle must not creep back onto the read path unseen: a 3D region
// decode, chunked or one-slab, records only kernel points, a 4D one only
// generic points, and the out-of-box points are accounted for.
func TestSZRegionPointCounters(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, c := range []struct {
		dims, lo, hi  []int
		rows, generic int // reconstructed rows; 1 if the rank has no kernel
	}{
		{[]int{19, 64, 128}, []int{9, 8, 16}, []int{12, 40, 100}, 4, 0}, // chunked: slab [8, 16) cut at row 12
		{[]int{12, 10, 11}, []int{7, 2, 3}, []int{11, 8, 9}, 11, 0},     // one slab: rows [0, 11)
		{[]int{4, 5, 6, 7}, []int{1, 1, 1, 1}, []int{3, 4, 5, 6}, 3, 1}, // one 4D slab: rows [0, 3)
	} {
		blob, err := compressSZ(parField(c.dims, "smooth"), 1e-3, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		index, err := BuildRegionIndex(blob)
		if err != nil {
			t.Fatal(err)
		}
		obs.Reset()
		if _, err := DecompressRegion(blob, index, c.lo, c.hi, 1); err != nil {
			t.Fatalf("%v: %v", c.dims, err)
		}
		got := obs.TakeSnapshot().Counters
		inBox := c.rows * elemCount(c.hi[1:])
		want := map[string]int64{
			"sz/reconstruct_fast_points":    int64(inBox * (1 - c.generic)),
			"sz/reconstruct_generic_points": int64(inBox * c.generic),
			"sz/region_points_skipped":      int64(c.rows*elemCount(c.dims[1:]) - inBox),
		}
		for name, v := range want {
			if got[name] != v {
				t.Errorf("%v: %s = %d, want %d", c.dims, name, got[name], v)
			}
		}
	}
}

// countEscapesRef is the one-code-per-step loop countEscapes replaced.
func countEscapesRef(codeBytes []byte) int {
	n := 0
	for i := 0; i+1 < len(codeBytes); i += 2 {
		if codeBytes[i] == 0 && codeBytes[i+1] == 0 {
			n++
		}
	}
	return n
}

// countEscapes feeds raw-pool cursors, so the four-codes-per-step version
// must be exact: every length around its 8-byte step (odd ones included — the
// dangling byte is not a code), and the codes a borrow-propagating zero-lane
// test gets wrong — a zero lane next to 0x0001, 0x8000, 0x00NN and 0xNN00.
func TestCountEscapesMatchesBytewise(t *testing.T) {
	fills := map[string]func(i int) byte{
		"all-zero":  func(int) byte { return 0 },
		"no-zero":   func(i int) byte { return byte(1 + i%255) },
		"low-zero":  func(i int) byte { return byte(i % 2 * (0x80 + i%7)) },    // 0x00 0xNN
		"high-zero": func(i int) byte { return byte((i + 1) % 2 * (1 + i%9)) }, // 0xNN 0x00
		"mixed": func(i int) byte {
			return []byte{0, 0, 1, 0, 0, 0, 0, 0x80, 0, 0, 0xff, 0xff, 0, 1, 0, 0, 0, 0}[i%18]
		},
	}
	for name, fill := range fills {
		for n := 0; n <= 17; n++ {
			for shift := 0; shift < 2; shift++ {
				b := make([]byte, n)
				for i := range b {
					b[i] = fill(i + shift)
				}
				if got, want := countEscapes(b), countEscapesRef(b); got != want {
					t.Errorf("%s len=%d shift=%d (% x): got %d, want %d", name, n, shift, b, got, want)
				}
			}
		}
	}
}

// Region decodes take their row buffer from the same f32Scratch pool as
// Compress and leave the part outside the box unwritten, so whatever a
// concurrent Compress or region decode left there must never show in a
// result. Goroutines sharing one Compressor mix both; run under -race.
func TestSZRegionSharedCompressorConcurrent(t *testing.T) {
	c := &Compressor{Workers: 2}
	type job struct {
		blob, index []byte
		lo, hi      []int
		want        *grid.Field
	}
	var jobs []job
	for _, dims := range [][]int{{17, 96, 96}, parControl} { // chunked (slabs of 8, 8, 1) and one slab
		f := parField(dims, "escape")
		blob, err := c.Compress(f, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		full, err := c.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		index, err := BuildRegionIndex(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, box := range regionKernelBoxes(dims, 8) {
			want, err := grid.SliceRegion(full, box[0], box[1])
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{blob, index, box[0], box[1], want})
		}
	}
	noisy := parField([]int{17, 96, 96}, "noisy")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				if g%2 == 0 { // dirty the pooled buffers between region decodes
					if _, err := c.Compress(noisy, 1e-3); err != nil {
						errs[g] = err
						return
					}
				}
				for _, j := range jobs {
					got, err := DecompressRegion(j.blob, j.index, j.lo, j.hi, 1)
					if err != nil {
						errs[g] = err
						return
					}
					if !bitsEqual(got.Data, j.want.Data) {
						errs[g] = fmt.Errorf("region %v:%v differs from the full-decode slice", j.lo, j.hi)
						return
					}
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
