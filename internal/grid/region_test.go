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
			it, err := f.IterRegion(lo, hi)
			if err != nil {
				t.Fatalf("IterRegion: %v", err)
			}
			k := 0
			for it.Next() {
				if sub.Data[k] != it.Value() {
					t.Fatalf("dims %v region %v:%v: sample %d: slice %v, iter %v", dims, lo, hi, k, sub.Data[k], it.Value())
				}
				c := it.Coord()
				want := f.Data[f.Index(c...)]
				if it.Value() != want {
					t.Fatalf("iter coord %v: value %v, field %v", c, it.Value(), want)
				}
				k++
			}
			if k != sub.Size() {
				t.Fatalf("iter visited %d samples, slice has %d", k, sub.Size())
			}
		}
	}
}

func TestRegionIterZeroAlloc(t *testing.T) {
	f := MustNew("t", 8, 8, 8)
	for i := range f.Data {
		f.Data[i] = float32(i)
	}
	it, err := f.IterRegion([]int{1, 2, 3}, []int{7, 8, 6})
	if err != nil {
		t.Fatal(err)
	}
	var sink float32
	allocs := testing.AllocsPerRun(100, func() {
		it.Reset()
		for it.Next() {
			sink += it.Value()
			sink += float32(it.Coord()[0])
		}
	})
	if allocs != 0 {
		t.Fatalf("RegionIter allocates %v per full sweep, want 0", allocs)
	}
	_ = sink
}
