package grid

import (
	"math/rand"
	"testing"
)

func TestCheckRegion(t *testing.T) {
	dims := []int{4, 5, 6}
	if err := CheckRegion(dims, []int{0, 0, 0}, []int{4, 5, 6}); err != nil {
		t.Fatalf("full region rejected: %v", err)
	}
	bad := []struct {
		lo, hi []int
	}{
		{[]int{0, 0}, []int{4, 5, 6}},
		{[]int{0, 0, 0}, []int{4, 5}},
		{[]int{-1, 0, 0}, []int{4, 5, 6}},
		{[]int{0, 0, 0}, []int{5, 5, 6}},
		{[]int{2, 0, 0}, []int{2, 5, 6}},
		{[]int{3, 0, 0}, []int{2, 5, 6}},
	}
	for i, c := range bad {
		if err := CheckRegion(dims, c.lo, c.hi); err == nil {
			t.Errorf("case %d: region %v:%v accepted", i, c.lo, c.hi)
		}
	}
}

func TestSliceRegionMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{{17}, {5, 9}, {4, 6, 5}, {3, 4, 2, 5}}
	for _, dims := range shapes {
		f := MustNew("t", dims...)
		for i := range f.Data {
			f.Data[i] = rng.Float32()
		}
		nd := len(dims)
		lo := make([]int, nd)
		hi := make([]int, nd)
		for trial := 0; trial < 20; trial++ {
			for d := 0; d < nd; d++ {
				lo[d] = rng.Intn(dims[d])
				hi[d] = lo[d] + 1 + rng.Intn(dims[d]-lo[d])
			}
			sub, err := SliceRegion(f, lo, hi)
			if err != nil {
				t.Fatalf("SliceRegion(%v, %v): %v", lo, hi, err)
			}
			c := make([]int, nd)
			for k := range sub.Data {
				for d, sc := range sub.Coord(k) {
					c[d] = lo[d] + sc
				}
				if want := f.Data[f.Index(c...)]; sub.Data[k] != want {
					t.Fatalf("dims %v region %v:%v: sample %d at %v: slice %v, field %v", dims, lo, hi, k, c, sub.Data[k], want)
				}
			}
		}
	}
}
