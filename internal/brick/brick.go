// Package brick implements a chunked compressed store with random access:
// a field is partitioned into fixed-size bricks, each compressed
// independently, so analysis can decompress just the region it touches —
// the access pattern ZFP's compressed arrays serve, generalised to every
// codec in this repository. Combined with FXRZ, the brick knob can be
// chosen for a target overall ratio without trial compression.
package brick

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// Store holds one field compressed as independent bricks.
type Store struct {
	name      string
	dims      []int
	brickSide int
	codec     compress.Compressor
	// blobs are the per-brick compressed streams, in row-major brick order.
	blobs [][]byte
	// origins/shapes describe each brick's region (clipped at boundaries).
	origins [][]int
	shapes  [][]int
}

// Build compresses the field brick by brick at the given knob.
func Build(c compress.Compressor, f *grid.Field, brickSide int, knob float64) (*Store, error) {
	if brickSide < 2 {
		return nil, fmt.Errorf("brick: side %d too small", brickSide)
	}
	s := &Store{
		name: f.Name, dims: append([]int(nil), f.Dims...),
		brickSide: brickSide, codec: c,
	}
	var buildErr error
	grid.VisitBlocks(f, brickSide, func(b grid.Block, vals []float32) {
		if buildErr != nil {
			return
		}
		sub, err := grid.FromData(f.Name, append([]float32(nil), vals...), b.Shape...)
		if err != nil {
			buildErr = err
			return
		}
		blob, err := c.Compress(sub, knob)
		if err != nil {
			buildErr = fmt.Errorf("brick: compressing brick at %v: %w", b.Origin, err)
			return
		}
		s.blobs = append(s.blobs, blob)
		s.origins = append(s.origins, append([]int(nil), b.Origin...))
		s.shapes = append(s.shapes, append([]int(nil), b.Shape...))
	})
	if buildErr != nil {
		return nil, buildErr
	}
	return s, nil
}

// Bricks returns the number of bricks.
func (s *Store) Bricks() int { return len(s.blobs) }

// Dims returns the field geometry of the store.
func (s *Store) Dims() []int { return append([]int(nil), s.dims...) }

// CompressedBytes returns the total compressed payload size.
func (s *Store) CompressedBytes() int {
	n := 0
	for _, b := range s.blobs {
		n += len(b)
	}
	return n
}

// Ratio returns the overall compression ratio (excluding in-memory index).
func (s *Store) Ratio() float64 {
	raw := 4
	for _, d := range s.dims {
		raw *= d
	}
	cb := s.CompressedBytes()
	if cb == 0 {
		return 0
	}
	return float64(raw) / float64(cb)
}

// ReadBrick decompresses one brick by index.
func (s *Store) ReadBrick(i int) (*grid.Field, []int, error) {
	if i < 0 || i >= len(s.blobs) {
		return nil, nil, fmt.Errorf("brick: index %d out of range [0, %d)", i, len(s.blobs))
	}
	f, err := s.codec.Decompress(s.blobs[i])
	if err != nil {
		return nil, nil, fmt.Errorf("brick: decompressing brick %d: %w", i, err)
	}
	if !slices.Equal(f.Dims, s.shapes[i]) {
		return nil, nil, fmt.Errorf("brick: brick %d decodes to dims %v, index says %v", i, f.Dims, s.shapes[i])
	}
	return f, s.origins[i], nil
}

// checkRegion validates a region request against the store geometry.
func (s *Store) checkRegion(origin, shape []int) error {
	nd := len(s.dims)
	if len(origin) != nd || len(shape) != nd {
		return errors.New("brick: origin/shape dimensionality mismatch")
	}
	for d := 0; d < nd; d++ {
		if origin[d] < 0 || shape[d] <= 0 || origin[d]+shape[d] > s.dims[d] {
			return fmt.Errorf("brick: region out of bounds in dim %d", d)
		}
	}
	return nil
}

// ReadRegion reconstructs an arbitrary sub-box [origin, origin+shape),
// decompressing only the bricks that intersect it and copying each brick's
// intersection into place one row at a time, as grid.SliceRegion does.
func (s *Store) ReadRegion(origin, shape []int) (*grid.Field, error) {
	if err := s.checkRegion(origin, shape); err != nil {
		return nil, err
	}
	out, err := grid.New(s.name+"/region", shape...)
	if err != nil {
		return nil, err
	}
	nd := len(s.dims)
	ostr := out.Strides()
	lo, rows := make([]int, nd), make([]int, nd)
	touched := 0
	for i := range s.blobs {
		if !intersects(s.origins[i], s.shapes[i], origin, shape) {
			continue
		}
		bf, borigin, err := s.ReadBrick(i)
		if err != nil {
			return nil, err
		}
		touched++
		// The intersection in brick-local coordinates starts at lo; rows is
		// its extent with the last dimension folded into rowLen.
		for d := 0; d < nd; d++ {
			lo[d] = max(origin[d], borigin[d]) - borigin[d]
			rows[d] = min(origin[d]+shape[d], borigin[d]+bf.Dims[d]) - borigin[d] - lo[d]
		}
		rowLen := rows[nd-1]
		rows[nd-1] = 1
		bstr := bf.Strides()
		grid.VisitOrigins(rows, 1, func(r []int) {
			src, dst := 0, 0
			for d := range r {
				src += (lo[d] + r[d]) * bstr[d]
				dst += (borigin[d] + lo[d] + r[d] - origin[d]) * ostr[d]
			}
			copy(out.Data[dst:dst+rowLen], bf.Data[src:src+rowLen])
		})
	}
	if touched == 0 {
		return nil, errors.New("brick: region matched no bricks (corrupt index)")
	}
	obs.Add("brick/region_bricks_read", int64(touched))
	obs.Add("brick/region_bricks_skipped", int64(len(s.blobs)-touched))
	return out, nil
}

// ReadAll reconstructs the whole field.
func (s *Store) ReadAll() (*grid.Field, error) {
	origin := make([]int, len(s.dims))
	f, err := s.ReadRegion(origin, s.dims)
	if err != nil {
		return nil, err
	}
	f.Name = s.name
	return f, nil
}

func intersects(ao, as, bo, bs []int) bool {
	for d := range ao {
		if ao[d]+as[d] <= bo[d] || bo[d]+bs[d] <= ao[d] {
			return false
		}
	}
	return true
}

// Marshal serialises the store (index + streams) for persistence.
func (s *Store) Marshal() []byte {
	out := []byte("FXRZBRK1")
	name := s.name[:min(len(s.name), compress.MaxNameLen)]
	out = append(out, byte(len(name)))
	out = append(out, name...)
	out = append(out, byte(len(s.dims)))
	for _, d := range s.dims {
		out = binary.AppendUvarint(out, uint64(d))
	}
	out = binary.AppendUvarint(out, uint64(s.brickSide))
	out = binary.AppendUvarint(out, uint64(len(s.blobs)))
	for _, b := range s.blobs {
		out = binary.AppendUvarint(out, uint64(len(b)))
		out = append(out, b...)
	}
	return out
}

// Unmarshal restores a store persisted with Marshal; the codec must be the
// one the store was built with (its magic is validated on first read).
func Unmarshal(c compress.Compressor, blob []byte) (*Store, error) {
	if len(blob) < 8 || string(blob[:8]) != "FXRZBRK1" {
		return nil, errors.New("brick: not a brick store")
	}
	blob = blob[8:]
	if len(blob) < 1 {
		return nil, errors.New("brick: truncated name")
	}
	nameLen := int(blob[0])
	blob = blob[1:]
	if len(blob) < nameLen+1 {
		return nil, errors.New("brick: truncated header")
	}
	s := &Store{name: string(blob[:nameLen]), codec: c}
	blob = blob[nameLen:]
	nd := int(blob[0])
	blob = blob[1:]
	if nd == 0 || nd > grid.MaxDims {
		return nil, fmt.Errorf("brick: bad dims count %d", nd)
	}
	// Every number below is a claim by the sender: each is range-checked
	// before its int conversion, and nothing is sized from one until the
	// brick count it implies has been matched against the streams present.
	for i := 0; i < nd; i++ {
		d, k := binary.Uvarint(blob)
		if k <= 0 || d == 0 || d > math.MaxInt {
			return nil, errors.New("brick: bad dim")
		}
		s.dims = append(s.dims, int(d))
		blob = blob[k:]
	}
	if _, err := grid.CheckDims(s.dims); err != nil {
		return nil, fmt.Errorf("brick: %w", err)
	}
	side, k := binary.Uvarint(blob)
	if k <= 0 || side < 2 || side > math.MaxInt {
		return nil, errors.New("brick: bad brick side")
	}
	s.brickSide = int(side)
	blob = blob[k:]
	count, k := binary.Uvarint(blob)
	if k <= 0 {
		return nil, errors.New("brick: bad brick count")
	}
	blob = blob[k:]
	// Each stream spends at least its length byte, so len(s.blobs) never
	// passes len(blob) whatever count claims.
	for i := uint64(0); i < count; i++ {
		n, k := binary.Uvarint(blob)
		if k <= 0 || uint64(len(blob)-k) < n {
			return nil, fmt.Errorf("brick: truncated brick %d", i)
		}
		blob = blob[k:]
		s.blobs = append(s.blobs, blob[:n:n])
		blob = blob[n:]
	}
	// The geometry asks for ∏⌈dim/side⌉ bricks. The product stops at the
	// first factor that takes it past the streams in hand, so a header costs
	// O(len(blob)) however many bricks it describes.
	want := 1
	for _, d := range s.dims {
		per := (d-1)/s.brickSide + 1
		if per > len(s.blobs)/want {
			return nil, fmt.Errorf("brick: %d streams cannot fill dims %v at side %d", len(s.blobs), s.dims, s.brickSide)
		}
		want *= per
	}
	if want != len(s.blobs) {
		return nil, fmt.Errorf("brick: %d streams for %d bricks", len(s.blobs), want)
	}
	// Rebuild brick geometry from dims + side (must match Build's row-major
	// block order) without materialising the field.
	grid.VisitOrigins(s.dims, s.brickSide, func(origin []int) {
		shape := make([]int, nd)
		for d := range shape {
			shape[d] = min(s.brickSide, s.dims[d]-origin[d])
		}
		s.origins = append(s.origins, append([]int(nil), origin...))
		s.shapes = append(s.shapes, shape)
	})
	return s, nil
}

// IsStore reports whether blob begins with the brick store magic.
func IsStore(blob []byte) bool {
	return len(blob) >= 8 && string(blob[:8]) == "FXRZBRK1"
}

// UnmarshalAuto restores a persisted store, detecting the codec from the
// magic byte of the first brick stream. The Marshal layout does not record
// the codec, so callers that don't know it out of band (e.g. the
// region-decode dispatcher) use this instead of Unmarshal.
func UnmarshalAuto(blob []byte) (*Store, error) {
	s, err := Unmarshal(nil, blob)
	if err != nil {
		return nil, err
	}
	if len(s.blobs) == 0 || len(s.blobs[0]) == 0 {
		return nil, errors.New("brick: empty store, cannot detect codec")
	}
	c, err := codecs.ByMagic(s.blobs[0][0])
	if err != nil {
		return nil, fmt.Errorf("brick: %w", err)
	}
	s.codec = c.New()
	return s, nil
}
