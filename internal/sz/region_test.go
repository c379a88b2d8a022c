package sz

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
)

func regionTestField(t testing.TB, escapes bool, dims ...int) *grid.Field {
	t.Helper()
	f := grid.MustNew("roi", dims...)
	rng := rand.New(rand.NewSource(31))
	for i := range f.Data {
		f.Data[i] = float32(math.Sin(float64(i)*0.07)) + 0.2*rng.Float32()
		if escapes {
			switch i % 97 {
			case 0:
				f.Data[i] = float32(math.NaN())
			case 13:
				f.Data[i] = float32(math.Inf(1))
			case 31:
				f.Data[i] = 1e30 * rng.Float32() // forces raw escapes
			}
		}
	}
	return f
}

func TestSZDecompressRegionMatchesFullDecode(t *testing.T) {
	shapes := [][]int{{53}, {17, 21}, {12, 10, 11}, {4, 5, 6, 7}}
	rng := rand.New(rand.NewSource(7))
	for _, dims := range shapes {
		for _, escapes := range []bool{false, true} {
			f := regionTestField(t, escapes, dims...)
			blob, err := New().Compress(f, 1e-3)
			if err != nil {
				t.Fatalf("%v escapes=%v: compress: %v", dims, escapes, err)
			}
			full, err := New().Decompress(blob)
			if err != nil {
				t.Fatalf("%v escapes=%v: decompress: %v", dims, escapes, err)
			}
			index, err := BuildRegionIndex(blob)
			if err != nil {
				t.Fatalf("%v escapes=%v: index: %v", dims, escapes, err)
			}
			nd := len(dims)
			lo, hi := make([]int, nd), make([]int, nd)
			for trial := 0; trial < 25; trial++ {
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
					got, err := DecompressRegion(blob, idx, lo, hi, 1)
					if err != nil {
						t.Fatalf("%v escapes=%v region %v:%v (index=%v): %v", dims, escapes, lo, hi, idx != nil, err)
					}
					for i := range want.Data {
						if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
							t.Fatalf("%v escapes=%v region %v:%v (index=%v): sample %d: %x != %x",
								dims, escapes, lo, hi, idx != nil, i,
								math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}

func TestSZRegionIndexCorruptRejected(t *testing.T) {
	f := regionTestField(t, true, 19, 64, 128) // slabs of 8, 8 and 3 rows
	blob, err := New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	index, err := BuildRegionIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(index) < 3 {
		t.Fatalf("multi-slab index is %d bytes", len(index))
	}
	lo, hi := []int{8, 2, 2}, []int{12, 6, 6}
	if _, err := DecompressRegion(blob, index[:len(index)-1], lo, hi, 1); err == nil {
		t.Error("truncated index accepted")
	}
	if _, err := DecompressRegion(blob, append(append([]byte(nil), index...), 0x7), lo, hi, 1); err == nil {
		t.Error("index with trailer accepted")
	}
}

// TestSZRegionSkipsPrefix pins that an indexed region decode near the end of
// a multi-slab field does not reconstruct the whole prefix (the point of the
// index).
func TestSZRegionSkipsPrefix(t *testing.T) {
	f := regionTestField(t, false, 64, 64, 64)
	blob, err := New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	index, err := BuildRegionIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	si, err := parseSZIndex(index, f.Dims, f.Size())
	if err != nil {
		t.Fatal(err)
	}
	if si == nil {
		t.Fatal("no slab index built for a 64-row field")
	}
	if si.T >= 64 {
		t.Fatalf("slab height %d does not partition 64 rows", si.T)
	}
	got, err := DecompressRegion(blob, index, []int{60, 0, 0}, []int{64, 64, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New().Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	want, err := grid.SliceRegion(full, []int{60, 0, 0}, []int{64, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("sample %d differs", i)
		}
	}
}

// TestSZRegionIndexOverhead pins the <= 1% index budget on a realistically
// sized stream, as zfp's TestRegionIndexOverhead does: a multi-slab blob's
// index is a few escape-count bytes per slab (a one-slab blob's is one byte).
func TestSZRegionIndexOverhead(t *testing.T) {
	f := regionTestField(t, true, 64, 64, 64)
	blob, err := New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if RegionTile(blob)[0] >= 64 {
		t.Fatal("a 64³ field did not compress to a multi-slab blob")
	}
	index, err := BuildRegionIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	if si, err := parseSZIndex(index, f.Dims, f.Size()); err != nil || si == nil {
		t.Fatalf("no slab index for a multi-slab blob (err %v)", err)
	}
	if frac := float64(len(index)) / float64(len(blob)); frac > 0.01 {
		t.Fatalf("index overhead %.4f of blob (%d / %d bytes), want <= 0.01", frac, len(index), len(blob))
	}
}

// TestSZRegionIndexCursorMismatch pins that a region decode checks the escape
// cursors of its index rather than trusting the first one: an index whose
// escape count for slab 1 is one too high is well formed — an indexed
// container built around it passes its checksum and hands the codec exactly
// these bytes — yet every region that decodes slab 1 to its end must fail
// with ErrCorrupt, serially and with the covering slabs fanned out alike.
func TestSZRegionIndexCursorMismatch(t *testing.T) {
	f := regionTestField(t, true, 48, 64, 64) // three 16-row slabs
	blob, err := New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	index, err := BuildRegionIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode the index with the escape count of slab 1 (the delta that
	// makes cursor 2) raised by one.
	T, k := binary.Uvarint(index)
	rest := index[k:]
	nSlabs, k := binary.Uvarint(rest)
	rest = rest[k:]
	if nSlabs != 3 {
		t.Fatalf("%d slabs, want 3", nSlabs)
	}
	bad := binary.AppendUvarint(binary.AppendUvarint(nil, T), nSlabs)
	for i := 1; i < int(nSlabs); i++ {
		d, k := binary.Uvarint(rest)
		rest = rest[k:]
		if i == 2 {
			d++
		}
		bad = binary.AppendUvarint(bad, d)
	}
	bad = append(bad, rest...)
	if _, err := parseSZIndex(bad, f.Dims, f.Size()); err != nil {
		t.Fatalf("altered index no longer parses: %v", err)
	}
	for _, r := range []struct{ lo, hi []int }{
		{[]int{2, 3, 5}, []int{40, 60, 61}},  // slabs 0-2, ends mid-slab
		{[]int{0, 0, 0}, []int{32, 64, 64}},  // slabs 0-1, ends on the boundary
		{[]int{20, 1, 2}, []int{45, 30, 31}}, // slabs 1-2
	} {
		for _, w := range []int{1, 2} {
			if _, err := DecompressRegion(blob, bad, r.lo, r.hi, w); !errors.Is(err, compress.ErrCorrupt) {
				t.Errorf("region %v:%v w=%d: err = %v, want ErrCorrupt", r.lo, r.hi, w, err)
			}
			if _, err := DecompressRegion(blob, index, r.lo, r.hi, w); err != nil {
				t.Errorf("region %v:%v w=%d: true index: %v", r.lo, r.hi, w, err)
			}
		}
	}
}
