package metrics

import (
	"fmt"
	"math"
	"strings"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// RenderSlice draws a z-slice of a 3D (or 2D) field as an ASCII intensity
// map, the terminal stand-in for the paper's visualization figures (Fig 4's
// RTM wave textures, Fig 8/9's train-test comparisons, Fig 10's
// reconstruction quality). Values are ranked into ten brightness levels over
// the slice's own range; width controls the horizontal resolution.
func RenderSlice(f *grid.Field, z, width int) (string, error) {
	var ny, nx, base int
	switch f.NDims() {
	case 2:
		ny, nx = f.Dims[0], f.Dims[1]
	case 3:
		if z < 0 || z >= f.Dims[0] {
			return "", fmt.Errorf("metrics: slice %d out of range [0, %d)", z, f.Dims[0])
		}
		ny, nx = f.Dims[1], f.Dims[2]
		base = z * ny * nx
	default:
		return "", fmt.Errorf("metrics: RenderSlice needs a 2D or 3D field, got %dD", f.NDims())
	}
	if width <= 0 {
		width = 64
	}
	if width > nx {
		width = nx
	}
	// Terminal cells are ~2× taller than wide; halve the row resolution.
	height := ny * width / nx / 2
	if height < 1 {
		height = 1
	}

	mn, mx := math.Inf(1), math.Inf(-1)
	for i := 0; i < ny*nx; i++ {
		v := float64(f.Data[base+i])
		mn = math.Min(mn, v)
		mx = math.Max(mx, v)
	}
	ramp := []rune(" .:-=+*#%@")
	var b strings.Builder
	for r := 0; r < height; r++ {
		y := r * (ny - 1) / max(height-1, 1)
		for c := 0; c < width; c++ {
			x := c * (nx - 1) / max(width-1, 1)
			v := float64(f.Data[base+y*nx+x])
			level := 0
			if mx > mn {
				level = int((v - mn) / (mx - mn) * float64(len(ramp)-1))
			}
			if level < 0 {
				level = 0
			}
			if level >= len(ramp) {
				level = len(ramp) - 1
			}
			b.WriteRune(ramp[level])
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// RenderConstantBlocks draws the constant/non-constant block classification
// of a z-slice — the paper's Fig 6 ("Illustration of Constant/Non-constant
// Blocks" on Nyx temperature). Constant blocks print as '.', non-constant as
// '#'. The threshold convention matches core.NonConstantRatioParallel: a
// block is constant when its value range is below lambda·|mean of the whole
// field|.
func RenderConstantBlocks(f *grid.Field, z, blockSide int, lambda float64) (string, error) {
	if f.NDims() != 3 {
		return "", fmt.Errorf("metrics: RenderConstantBlocks needs a 3D field, got %dD", f.NDims())
	}
	if z < 0 || z >= f.Dims[0] {
		return "", fmt.Errorf("metrics: slice %d out of range", z)
	}
	if blockSide <= 0 {
		blockSide = 4
	}
	if lambda <= 0 {
		lambda = 0.15
	}
	threshold := lambda * math.Abs(f.Mean())
	ny, nx := f.Dims[1], f.Dims[2]
	base := z * ny * nx
	var b strings.Builder
	for by := 0; by < ny; by += blockSide {
		for bx := 0; bx < nx; bx += blockSide {
			mn, mx := math.Inf(1), math.Inf(-1)
			for y := by; y < by+blockSide && y < ny; y++ {
				for x := bx; x < bx+blockSide && x < nx; x++ {
					v := float64(f.Data[base+y*nx+x])
					mn = math.Min(mn, v)
					mx = math.Max(mx, v)
				}
			}
			if mx-mn < threshold {
				b.WriteByte('.')
			} else {
				b.WriteByte('#')
			}
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
