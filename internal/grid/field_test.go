package grid

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		dims []int
		ok   bool
	}{
		{"1d", []int{8}, true},
		{"2d", []int{4, 6}, true},
		{"3d", []int{3, 4, 5}, true},
		{"4d", []int{2, 3, 4, 5}, true},
		{"empty", nil, false},
		{"5d", []int{2, 2, 2, 2, 2}, false},
		{"zero", []int{4, 0}, false},
		{"negative", []int{-1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New("t", tc.dims...)
			if tc.ok && err != nil {
				t.Fatalf("New(%v) unexpected error: %v", tc.dims, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("New(%v) expected error, got field %v", tc.dims, f)
			}
			if tc.ok {
				want := 1
				for _, d := range tc.dims {
					want *= d
				}
				if f.Size() != want {
					t.Errorf("Size() = %d, want %d", f.Size(), want)
				}
			}
		})
	}
}

func TestFromDataLengthMismatch(t *testing.T) {
	if _, err := FromData("t", make([]float32, 7), 2, 4); err == nil {
		t.Fatal("expected length mismatch error")
	}
	f, err := FromData("t", make([]float32, 8), 2, 4)
	if err != nil {
		t.Fatalf("FromData: %v", err)
	}
	if f.Bytes() != 32 {
		t.Errorf("Bytes() = %d, want 32", f.Bytes())
	}
}

func TestIndexCoordBijection(t *testing.T) {
	f := MustNew("t", 3, 5, 7)
	for i := 0; i < f.Size(); i++ {
		c := f.Coord(i)
		if got := f.Index(c...); got != i {
			t.Fatalf("Index(Coord(%d)) = %d", i, got)
		}
	}
}

func TestIndexCoordBijectionQuick(t *testing.T) {
	check := func(a, b, c uint8) bool {
		dims := []int{int(a%7) + 1, int(b%7) + 1, int(c%7) + 1}
		f := MustNew("q", dims...)
		for i := 0; i < f.Size(); i++ {
			if f.Index(f.Coord(i)...) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestStrides(t *testing.T) {
	f := MustNew("t", 2, 3, 4)
	if got, want := f.Strides(), []int{12, 4, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Strides() = %v, want %v", got, want)
	}
}

func TestAtSetCloneIndependence(t *testing.T) {
	f := MustNew("t", 4, 4)
	f.Set(3.5, 2, 1)
	if got := f.Data[f.Index(2, 1)]; got != 3.5 {
		t.Fatalf("At = %v", got)
	}
	g := f.Clone()
	g.Set(-1, 2, 1)
	if f.Data[f.Index(2, 1)] != 3.5 {
		t.Error("Clone shares backing storage with original")
	}
}

func TestRangeMeanValueRange(t *testing.T) {
	f := MustNew("t", 5)
	copy(f.Data, []float32{1, -2, 3, 0, 8})
	mn, mx := f.Range()
	if mn != -2 || mx != 8 {
		t.Errorf("Range = (%v, %v), want (-2, 8)", mn, mx)
	}
	if got := f.ValueRange(); got != 10 {
		t.Errorf("ValueRange = %v, want 10", got)
	}
	if got := f.Mean(); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestStrideSampleCountsAndUniqueness(t *testing.T) {
	f := MustNew("t", 8, 9, 10)
	for _, stride := range []int{1, 2, 3, 4, 7} {
		idx := StrideSample(f, stride)
		want := 1
		for _, d := range f.Dims {
			want *= (d + stride - 1) / stride
		}
		if len(idx) != want {
			t.Errorf("stride %d: got %d indices, want %d", stride, len(idx), want)
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= f.Size() {
				t.Fatalf("stride %d: index %d out of range", stride, i)
			}
			if seen[i] {
				t.Fatalf("stride %d: duplicate index %d", stride, i)
			}
			seen[i] = true
		}
	}
}

func TestStrideSampleFraction(t *testing.T) {
	// The paper's headline configuration: stride 4 on a 3D field keeps ~1.5%.
	f := MustNew("t", 64, 64, 64)
	idx := StrideSample(f, 4)
	frac := float64(len(idx)) / float64(f.Size())
	if frac < 0.014 || frac > 0.017 {
		t.Errorf("stride-4 fraction = %v, want ~1/64", frac)
	}
}

func TestSubsampleDims(t *testing.T) {
	f := MustNew("t", 9, 10)
	for i := range f.Data {
		f.Data[i] = float32(i)
	}
	s := Subsample(f, 4)
	if got, want := s.Dims, []int{3, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Subsample dims = %v, want %v", got, want)
	}
	if s.Data[s.Index(1, 1)] != f.Data[f.Index(4, 4)] {
		t.Errorf("Subsample value mismatch: %v vs %v", s.Data[s.Index(1, 1)], f.Data[f.Index(4, 4)])
	}
}

func TestVisitBlocksCoversFieldOnce(t *testing.T) {
	f := MustNew("t", 7, 9)
	for i := range f.Data {
		f.Data[i] = float32(i)
	}
	total := 0
	sum := 0.0
	VisitBlocks(f, 4, func(b Block, vals []float32) {
		size := 1
		for _, s := range b.Shape {
			size *= s
		}
		if len(vals) != size {
			t.Fatalf("block %v: %d vals, want %d", b, len(vals), size)
		}
		total += len(vals)
		for _, v := range vals {
			sum += float64(v)
		}
	})
	if total != f.Size() {
		t.Errorf("blocks covered %d samples, want %d", total, f.Size())
	}
	want := float64(f.Size()-1) * float64(f.Size()) / 2
	if sum != want {
		t.Errorf("block sum = %v, want %v (each sample exactly once)", sum, want)
	}
}

// TestVisitOriginsRowMajor pins the block order three stream formats (zfp,
// sz2, the brick store) are written in: last dimension fastest, boundary
// blocks included.
func TestVisitOriginsRowMajor(t *testing.T) {
	var got [][]int
	VisitOrigins([]int{5, 3}, 2, func(origin []int) {
		got = append(got, append([]int(nil), origin...))
	})
	want := [][]int{{0, 0}, {0, 2}, {2, 0}, {2, 2}, {4, 0}, {4, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("origins = %v, want %v", got, want)
	}
}

// TestScatterGatherRoundTrip: VisitBlocks hands each block's samples over in
// row-major order, so writing them back by coordinate rebuilds the field.
func TestScatterGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := MustNew("t", 6, 7, 5)
	for i := range f.Data {
		f.Data[i] = rng.Float32()
	}
	g := MustNew("t2", 6, 7, 5)
	VisitBlocks(f, 4, func(b Block, vals []float32) {
		i := 0
		for z := 0; z < b.Shape[0]; z++ {
			for y := 0; y < b.Shape[1]; y++ {
				for x := 0; x < b.Shape[2]; x++ {
					g.Set(vals[i], b.Origin[0]+z, b.Origin[1]+y, b.Origin[2]+x)
					i++
				}
			}
		}
	})
	for i := range f.Data {
		if f.Data[i] != g.Data[i] {
			t.Fatalf("scatter/gather mismatch at %d", i)
		}
	}
}
