package zfp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

func regionTestField(t testing.TB, dims ...int) *grid.Field {
	t.Helper()
	f := grid.MustNew("roi", dims...)
	rng := rand.New(rand.NewSource(42))
	for i := range f.Data {
		f.Data[i] = float32(math.Sin(float64(i)*0.05)) + 0.1*rng.Float32()
	}
	return f
}

// TestDecompressRegionMatchesFullDecode checks, for both modes, every
// dimensionality, and random regions, that the region decode is bit-equal to
// the corresponding slice of a full decode — with and without an index, and
// with a covering box of zfpParMinBlocks blocks or more fanned out at w = 2.
func TestDecompressRegionMatchesFullDecode(t *testing.T) {
	shapes := [][]int{{37}, {19, 23}, {10, 12, 14}, {3, 5, 9, 11}}
	codecs := []struct {
		name string
		comp func(*grid.Field) ([]byte, error)
	}{
		{"accuracy", func(f *grid.Field) ([]byte, error) { return New().Compress(f, 1e-3) }},
		{"rate", func(f *grid.Field) ([]byte, error) { return NewFixedRate().Compress(f, 7) }},
	}
	rng := rand.New(rand.NewSource(99))
	for _, dims := range shapes {
		f := regionTestField(t, dims...)
		for _, c := range codecs {
			blob, err := c.comp(f)
			if err != nil {
				t.Fatalf("%s %v: compress: %v", c.name, dims, err)
			}
			full, err := New().Decompress(blob)
			if err != nil {
				t.Fatalf("%s %v: decompress: %v", c.name, dims, err)
			}
			index, err := BuildRegionIndex(blob)
			if err != nil {
				t.Fatalf("%s %v: index: %v", c.name, dims, err)
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
					for _, w := range []int{1, 2} {
						got, err := DecompressRegion(blob, idx, lo, hi, w)
						if err != nil {
							t.Fatalf("%s %v region %v:%v (index=%v) w=%d: %v", c.name, dims, lo, hi, idx != nil, w, err)
						}
						if len(got.Data) != len(want.Data) {
							t.Fatalf("%s %v region %v:%v: size %d, want %d", c.name, dims, lo, hi, len(got.Data), len(want.Data))
						}
						for i := range want.Data {
							if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
								t.Fatalf("%s %v region %v:%v (index=%v) w=%d: sample %d: %v != %v",
									c.name, dims, lo, hi, idx != nil, w, i, got.Data[i], want.Data[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestDecompressRegionRejectsBadRegion(t *testing.T) {
	f := regionTestField(t, 10, 12, 14)
	blob, err := New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		lo, hi []int
	}{
		{[]int{0, 0}, []int{1, 1, 1}},
		{[]int{0, 0, 0}, []int{11, 12, 14}},
		{[]int{-1, 0, 0}, []int{1, 1, 1}},
		{[]int{3, 3, 3}, []int{3, 4, 4}},
	}
	for i, c := range bad {
		if _, err := DecompressRegion(blob, nil, c.lo, c.hi, 1); err == nil {
			t.Errorf("case %d: region %v:%v accepted", i, c.lo, c.hi)
		}
	}
}

func TestRegionIndexCorruptRejected(t *testing.T) {
	f := regionTestField(t, 10, 12, 14)
	blob, err := New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	index, err := BuildRegionIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []int{2, 2, 2}, []int{6, 6, 6}
	// Wrong mode byte.
	bad := append([]byte(nil), index...)
	bad[0] ^= 1
	if _, err := DecompressRegion(blob, bad, lo, hi, 1); err == nil {
		t.Error("mode-mismatched index accepted")
	}
	// Truncated offsets.
	if _, err := DecompressRegion(blob, index[:len(index)-1], lo, hi, 1); err == nil {
		t.Error("truncated index accepted")
	}
	// Trailing garbage.
	if _, err := DecompressRegion(blob, append(append([]byte(nil), index...), 0xFF), lo, hi, 1); err == nil {
		t.Error("index with trailer accepted")
	}
}

// TestRegionIndexOverhead pins the <1% index budget on a realistically sized
// stream (the acceptance criterion benchguard gates on the bench fixture).
func TestRegionIndexOverhead(t *testing.T) {
	f := regionTestField(t, 64, 64, 64)
	blob, err := New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	index, err := BuildRegionIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(len(index)) / float64(len(blob)); frac > 0.01 {
		t.Fatalf("index overhead %.4f of blob (%d / %d bytes), want <= 0.01", frac, len(index), len(blob))
	}
}
