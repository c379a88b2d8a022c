package grid

import "fmt"

// Region helpers shared by the region-of-interest decode paths: bounds
// validation and subvolume extraction.
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
