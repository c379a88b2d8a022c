package grid

// Block identifies one cubic block of a field during block iteration.
type Block struct {
	// Origin is the coordinate of the block's first sample.
	Origin []int
	// Shape is the extent of the block along each dimension. Boundary blocks
	// are clipped, so Shape entries may be smaller than the nominal block side.
	Shape []int
}

// VisitBlocks partitions the field into side^N blocks (clipped at the
// boundary) and calls fn once per block with the block descriptor and the
// block's sample values gathered into buf. The buffer is reused between
// calls; fn must not retain it. Iteration order is row-major over blocks.
//
// This is the primitive behind the paper's Compressibility Adjustment
// (4×4×4 blocks, §IV-E2) and behind ZFP's 4^d block partitioning.
func VisitBlocks(f *Field, side int, fn func(b Block, vals []float32)) {
	nd := f.NDims()
	strides := f.Strides()
	shape := make([]int, nd)
	buf := make([]float32, pow(side, nd))
	VisitOrigins(f.Dims, side, func(origin []int) {
		for i := range shape {
			shape[i] = min(side, f.Dims[i]-origin[i])
		}
		fn(Block{Origin: origin, Shape: shape}, gather(f, origin, shape, strides, buf[:0]))
	})
}

// VisitOrigins calls fn with the origin of every side^N block of a dims-shaped
// grid, row-major over blocks (last dimension fastest) — the block order
// VisitBlocks, the zfp and sz2 streams and the brick store all share. The
// origin slice is reused between calls; fn must not retain it.
func VisitOrigins(dims []int, side int, fn func(origin []int)) {
	origin := make([]int, len(dims))
	for {
		fn(origin)
		d := len(dims) - 1
		for d >= 0 {
			origin[d] += side
			if origin[d] < dims[d] {
				break
			}
			origin[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

// gather appends the samples of the sub-box [origin, origin+shape) to dst in
// row-major order.
func gather(f *Field, origin, shape, strides []int, dst []float32) []float32 {
	nd := len(origin)
	coord := make([]int, nd)
	for {
		lin := 0
		for i := range coord {
			lin += (origin[i] + coord[i]) * strides[i]
		}
		dst = append(dst, f.Data[lin])
		d := nd - 1
		for d >= 0 {
			coord[d]++
			if coord[d] < shape[d] {
				break
			}
			coord[d] = 0
			d--
		}
		if d < 0 {
			return dst
		}
	}
}

func pow(base, exp int) int {
	n := 1
	for i := 0; i < exp; i++ {
		n *= base
	}
	return n
}
