// Package grid provides the N-dimensional scientific field container used by
// every compressor and by the FXRZ framework itself.
//
// A Field is a dense, row-major array of float32 samples with between one and
// four dimensions. Dimensions are ordered slowest-varying first, so for a 3D
// field with Dims = [nz, ny, nx] the linear index of (z, y, x) is
// (z*ny+y)*nx+x. float32 is the canonical element type because the real-world
// datasets the paper evaluates (SDRBench Nyx, QMCPack, RTM, Hurricane) are
// single precision; statistics are nevertheless accumulated in float64.
package grid

import (
	"errors"
	"fmt"
)

// MaxDims is the largest dimensionality supported by the library. The paper's
// datasets span 3D (Nyx, RTM, Hurricane) and 4D (QMCPack orbitals).
const MaxDims = 4

// ErrDims reports an unsupported dimension specification.
var ErrDims = errors.New("grid: dims must have 1..4 strictly positive entries")

// Field is a dense N-dimensional array of float32 values.
type Field struct {
	// Name identifies the field for logging and experiment tables,
	// e.g. "nyx/baryon_density/ts3".
	Name string
	// Dims holds the extent of each dimension, slowest-varying first.
	Dims []int
	// Data holds the samples in row-major order; len(Data) == Size().
	Data []float32
}

// New allocates a zero-filled field with the given dimensions.
func New(name string, dims ...int) (*Field, error) {
	n, err := CheckDims(dims)
	if err != nil {
		return nil, err
	}
	return &Field{Name: name, Dims: append([]int(nil), dims...), Data: make([]float32, n)}, nil
}

// FromData wraps an existing sample slice. The slice is retained, not copied.
func FromData(name string, data []float32, dims ...int) (*Field, error) {
	n, err := CheckDims(dims)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("grid: data length %d does not match dims %v (want %d)", len(data), dims, n)
	}
	return &Field{Name: name, Dims: append([]int(nil), dims...), Data: data}, nil
}

// MustNew is New for tests and examples with known-good dims; it panics on error.
func MustNew(name string, dims ...int) *Field {
	f, err := New(name, dims...)
	if err != nil {
		panic(err)
	}
	return f
}

// CheckDims validates a dimension list (1..MaxDims strictly positive extents,
// bounded product) and returns the sample count it describes, allocating
// nothing — decoders call it before trusting a header's claimed size.
func CheckDims(dims []int) (int, error) {
	if len(dims) == 0 || len(dims) > MaxDims {
		return 0, ErrDims
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, ErrDims
		}
		if n > (1<<40)/d {
			return 0, fmt.Errorf("grid: dims %v overflow addressable size", dims)
		}
		n *= d
	}
	return n, nil
}

// Size returns the total number of samples.
func (f *Field) Size() int { return len(f.Data) }

// NDims returns the number of dimensions.
func (f *Field) NDims() int { return len(f.Dims) }

// Bytes returns the uncompressed size in bytes (4 bytes per sample).
func (f *Field) Bytes() int { return 4 * len(f.Data) }

// Strides returns the row-major stride of each dimension, in elements.
// The last dimension always has stride 1.
func (f *Field) Strides() []int {
	s := make([]int, len(f.Dims))
	st := 1
	for i := len(f.Dims) - 1; i >= 0; i-- {
		s[i] = st
		st *= f.Dims[i]
	}
	return s
}

// Index converts multi-dimensional coordinates to a linear index.
// Coordinates must have the same length as Dims and be in range.
func (f *Field) Index(coord ...int) int {
	idx := 0
	for i, c := range coord {
		idx = idx*f.Dims[i] + c
	}
	return idx
}

// Coord converts a linear index back to multi-dimensional coordinates.
func (f *Field) Coord(idx int) []int {
	c := make([]int, len(f.Dims))
	for i := len(f.Dims) - 1; i >= 0; i-- {
		c[i] = idx % f.Dims[i]
		idx /= f.Dims[i]
	}
	return c
}

// Set stores a sample at the given coordinates.
func (f *Field) Set(v float32, coord ...int) { f.Data[f.Index(coord...)] = v }

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	g := &Field{Name: f.Name, Dims: append([]int(nil), f.Dims...), Data: make([]float32, len(f.Data))}
	copy(g.Data, f.Data)
	return g
}

// Fill sets every sample to v.
func (f *Field) Fill(v float32) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// Range returns the minimum and maximum sample values. It returns (0, 0) for
// an empty field and ignores nothing: NaNs propagate, which callers treat as
// invalid input.
func (f *Field) Range() (min, max float64) {
	if len(f.Data) == 0 {
		return 0, 0
	}
	mn, mx := f.Data[0], f.Data[0]
	for _, v := range f.Data[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return float64(mn), float64(mx)
}

// Mean returns the arithmetic mean of all samples, accumulated in float64.
func (f *Field) Mean() float64 {
	if len(f.Data) == 0 {
		return 0
	}
	var s float64
	for _, v := range f.Data {
		s += float64(v)
	}
	return s / float64(len(f.Data))
}

// ValueRange returns max - min, the "Value Range" feature of the paper.
func (f *Field) ValueRange() float64 {
	mn, mx := f.Range()
	return mx - mn
}

// String implements fmt.Stringer for logging.
func (f *Field) String() string {
	return fmt.Sprintf("Field(%s %v, %d samples)", f.Name, f.Dims, len(f.Data))
}
