package grid

import "fmt"

// Region helpers shared by the region-of-interest decode paths: bounds
// validation, subvolume extraction, and a zero-allocation iterator.
//
// A region is a half-open axis-aligned box [lo, hi) with the same rank as the
// field it addresses, in the field's own (slowest-first) coordinate order.

// CheckRegion validates a half-open region against dims: lo and hi must have
// the same rank as dims, and 0 <= lo[d] < hi[d] <= dims[d] for every d.
func CheckRegion(dims, lo, hi []int) error {
	if len(lo) != len(dims) || len(hi) != len(dims) {
		return fmt.Errorf("grid: region rank %d:%d does not match %d field dims", len(lo), len(hi), len(dims))
	}
	for d := range dims {
		if lo[d] < 0 || hi[d] > dims[d] || lo[d] >= hi[d] {
			return fmt.Errorf("grid: region [%d:%d) out of bounds for dim %d (extent %d)", lo[d], hi[d], d, dims[d])
		}
	}
	return nil
}

// SliceRegion copies the half-open subvolume [lo, hi) of f into a new field
// of shape hi-lo. Rows along the fastest dimension are contiguous in both
// layouts, so they are copied whole.
func SliceRegion(f *Field, lo, hi []int) (*Field, error) {
	if err := CheckRegion(f.Dims, lo, hi); err != nil {
		return nil, err
	}
	nd := len(f.Dims)
	shape := make([]int, nd)
	for d := range shape {
		shape[d] = hi[d] - lo[d]
	}
	out, err := New(f.Name, shape...)
	if err != nil {
		return nil, err
	}
	strides := f.Strides()
	rowLen := shape[nd-1]
	var coord [MaxDims]int
	copy(coord[:], lo[:nd-1])
	dst := 0
	for {
		src := lo[nd-1]
		for d := 0; d < nd-1; d++ {
			src += coord[d] * strides[d]
		}
		copy(out.Data[dst:dst+rowLen], f.Data[src:src+rowLen])
		dst += rowLen
		d := nd - 2
		for d >= 0 {
			coord[d]++
			if coord[d] < hi[d] {
				break
			}
			coord[d] = lo[d]
			d--
		}
		if d < 0 {
			return out, nil
		}
	}
}

// RegionIter walks a half-open subvolume of a field in row-major order
// without allocating per step: the coordinate odometer and stride table live
// in fixed-size arrays inside the iterator, and Coord returns a slice of the
// internal array. The iteration pattern is
//
//	it, _ := f.IterRegion(lo, hi)
//	for it.Next() {
//		v := it.Value()
//	}
//
// Next/Value/Coord/Index perform zero heap allocations (pinned by
// TestRegionIterZeroAlloc with testing.AllocsPerRun).
type RegionIter struct {
	f       *Field
	nd      int
	lo, hi  [MaxDims]int
	strides [MaxDims]int
	coord   [MaxDims]int
	idx     int
	started bool
	done    bool
}

// IterRegion returns a zero-allocation iterator over the half-open region
// [lo, hi) of f.
func (f *Field) IterRegion(lo, hi []int) (*RegionIter, error) {
	if err := CheckRegion(f.Dims, lo, hi); err != nil {
		return nil, err
	}
	it := &RegionIter{f: f, nd: len(f.Dims)}
	copy(it.lo[:], lo)
	copy(it.hi[:], hi)
	copy(it.strides[:], f.Strides())
	it.Reset()
	return it, nil
}

// Reset rewinds the iterator to the state before the first Next.
func (it *RegionIter) Reset() {
	copy(it.coord[:], it.lo[:it.nd])
	it.idx = 0
	for d := 0; d < it.nd; d++ {
		it.idx += it.lo[d] * it.strides[d]
	}
	it.started = false
	it.done = false
}

// Next advances to the next sample in the region and reports whether one
// exists. The linear index is maintained incrementally: stepping the fastest
// dimension adds 1, and each odometer wrap rewinds that dimension's
// contribution before carrying into the next slower one.
func (it *RegionIter) Next() bool {
	if it.done {
		return false
	}
	if !it.started {
		it.started = true
		return true
	}
	d := it.nd - 1
	for d >= 0 {
		it.coord[d]++
		it.idx += it.strides[d]
		if it.coord[d] < it.hi[d] {
			return true
		}
		it.idx -= (it.coord[d] - it.lo[d]) * it.strides[d]
		it.coord[d] = it.lo[d]
		d--
	}
	it.done = true
	return false
}

// Value returns the sample at the current position.
func (it *RegionIter) Value() float32 { return it.f.Data[it.idx] }

// Coord returns the current coordinates. The returned slice aliases the
// iterator's internal array and is overwritten by the next call to Next.
func (it *RegionIter) Coord() []int { return it.coord[:it.nd] }
