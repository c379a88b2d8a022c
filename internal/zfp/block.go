package zfp

import "sort"

// Fixed-point and transform machinery for 4^d blocks, following the ZFP 0.5.x
// algorithm: values in a block are aligned to a common exponent, converted to
// 30-bit signed fixed point, decorrelated with a separable lifted transform,
// reordered by total sequency, and mapped to negabinary for embedded coding.

const (
	// intPrec is the fixed-point precision for float32 data (zfp's Int=int32).
	intPrec = 32
	// blockSide is the block extent along each dimension.
	blockSide = 4
)

// fwdLift applies zfp's forward decorrelating transform to the 4 elements
// of one line. The transform approximates 1/16 * [[4,4,4,4],[5,1,-1,-5],
// [-4,4,4,-4],[-2,6,-6,2]] using reversible-ish lifting steps.
func fwdLift(x, y, z, w int32) (int32, int32, int32, int32) {
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	return x, y, z, w
}

// invLift inverts fwdLift (up to the transform's inherent rounding).
func invLift(x, y, z, w int32) (int32, int32, int32, int32) {
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	return x, y, z, w
}

// fwdTransform decorrelates a 4^nd block in place, lifting along every
// dimension. Strides follow the row-major layout of the gathered block.
// Indices of the 3-D block are taken mod 64, which changes none of them and
// lets the compiler drop the bounds checks.
func fwdTransform(blk []int32, nd int) {
	switch nd {
	case 1:
		blk[0], blk[1], blk[2], blk[3] = fwdLift(blk[0], blk[1], blk[2], blk[3])
	case 2:
		b := (*[16]int32)(blk)
		for y := 0; y < 4; y++ {
			b[4*y], b[4*y+1], b[4*y+2], b[4*y+3] = fwdLift(b[4*y], b[4*y+1], b[4*y+2], b[4*y+3])
		}
		for x := 0; x < 4; x++ {
			b[x], b[x+4], b[x+8], b[x+12] = fwdLift(b[x], b[x+4], b[x+8], b[x+12])
		}
	default: // 3
		b := (*[64]int32)(blk)
		for i := 0; i < 64; i += 4 {
			b[i&63], b[(i+1)&63], b[(i+2)&63], b[(i+3)&63] = fwdLift(b[i&63], b[(i+1)&63], b[(i+2)&63], b[(i+3)&63])
		}
		for z := 0; z < 64; z += 16 {
			for i := z; i < z+4; i++ {
				b[i&63], b[(i+4)&63], b[(i+8)&63], b[(i+12)&63] = fwdLift(b[i&63], b[(i+4)&63], b[(i+8)&63], b[(i+12)&63])
			}
		}
		for i := 0; i < 16; i++ {
			b[i&63], b[(i+16)&63], b[(i+32)&63], b[(i+48)&63] = fwdLift(b[i&63], b[(i+16)&63], b[(i+32)&63], b[(i+48)&63])
		}
	}
}

// invTransform inverts fwdTransform (dimensions in reverse order).
func invTransform(blk []int32, nd int) {
	switch nd {
	case 1:
		blk[0], blk[1], blk[2], blk[3] = invLift(blk[0], blk[1], blk[2], blk[3])
	case 2:
		b := (*[16]int32)(blk)
		for x := 0; x < 4; x++ {
			b[x], b[x+4], b[x+8], b[x+12] = invLift(b[x], b[x+4], b[x+8], b[x+12])
		}
		for y := 0; y < 4; y++ {
			b[4*y], b[4*y+1], b[4*y+2], b[4*y+3] = invLift(b[4*y], b[4*y+1], b[4*y+2], b[4*y+3])
		}
	default: // 3
		b := (*[64]int32)(blk)
		for i := 0; i < 16; i++ {
			b[i&63], b[(i+16)&63], b[(i+32)&63], b[(i+48)&63] = invLift(b[i&63], b[(i+16)&63], b[(i+32)&63], b[(i+48)&63])
		}
		for z := 0; z < 64; z += 16 {
			for i := z; i < z+4; i++ {
				b[i&63], b[(i+4)&63], b[(i+8)&63], b[(i+12)&63] = invLift(b[i&63], b[(i+4)&63], b[(i+8)&63], b[(i+12)&63])
			}
		}
		for i := 0; i < 64; i += 4 {
			b[i&63], b[(i+1)&63], b[(i+2)&63], b[(i+3)&63] = invLift(b[i&63], b[(i+1)&63], b[(i+2)&63], b[(i+3)&63])
		}
	}
}

// perms[nd-1] orders transform coefficients by total sequency (the sum of
// per-dimension frequency indices), lowest first, matching the spirit of
// zfp's PERM tables. Encoder and decoder share the table, so the exact
// tie-break (linear index) is immaterial.
var perms = buildPerms()

func buildPerms() [3][]int {
	var out [3][]int
	for nd := 1; nd <= 3; nd++ {
		n := 1
		for i := 0; i < nd; i++ {
			n *= blockSide
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		seq := func(i int) int {
			s := 0
			for d := 0; d < nd; d++ {
				s += i % blockSide
				i /= blockSide
			}
			return s
		}
		sort.SliceStable(idx, func(a, b int) bool {
			sa, sb := seq(idx[a]), seq(idx[b])
			if sa != sb {
				return sa < sb
			}
			return idx[a] < idx[b]
		})
		out[nd-1] = idx
	}
	return out
}

// int32ToNegabinary maps two's complement to negabinary so that small
// magnitudes of either sign have leading zero bits.
func int32ToNegabinary(x int32) uint32 {
	const mask = 0xaaaaaaaa
	return (uint32(x) + mask) ^ mask
}

// negabinaryToInt32 inverts int32ToNegabinary.
func negabinaryToInt32(u uint32) int32 {
	const mask = 0xaaaaaaaa
	return int32((u ^ mask) - mask)
}

// padLine fills positions n..3 of a 4-element line (stride s) from the first
// n valid samples, using zfp's pad_block pattern.
func padLine(p []float32, off, s, n int) {
	switch n {
	case 0:
		p[off] = 0
		fallthrough
	case 1:
		p[off+s] = p[off]
		fallthrough
	case 2:
		p[off+2*s] = p[off+s]
		fallthrough
	case 3:
		p[off+3*s] = p[off]
	}
}
