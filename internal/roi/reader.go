package roi

import (
	"fmt"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// Reader provides O(1) materialized random access over a compressed stream:
// point queries decode lazily — each tile at most once — into an in-memory
// cache, after which At is a map lookup plus index arithmetic and performs
// zero heap allocations (pinned by TestReaderAtMatchesDecode).
//
// A tile is the region the codec's RegionTile hook names — zfp's own 4^d
// block up to 3D, one sz slab (the encoder resets its predictor at every slab
// boundary; a field under two slabs is one slab) — decoded through the same
// region decode DecodeRegion runs, so a cold query costs one tile, not one
// field, and filling every sz slab costs what one full decode does. Streams
// without a tile (the other codecs, 4D zfp, brick stores) have one tile, the
// whole field, which is their full decode.
type Reader struct {
	src         *source
	nd          int
	dims, tile  [grid.MaxDims]int
	tilesPerDim [grid.MaxDims]int
	tiles       map[int][]float32
}

// NewReader parses a container (indexed, raw codec blob, or marshaled brick
// store) without decoding any samples.
func NewReader(blob []byte) (*Reader, error) {
	src, err := open(blob)
	if err != nil {
		return nil, err
	}
	r := &Reader{src: src, nd: len(src.dims), tiles: make(map[int][]float32)}
	copy(r.dims[:], src.dims)
	copy(r.tile[:], src.dims)
	if src.codec.RegionTile != nil {
		if t := src.codec.RegionTile(src.inner); len(t) == r.nd {
			copy(r.tile[:], t)
		}
	}
	for d := 0; d < r.nd; d++ {
		r.tilesPerDim[d] = (r.dims[d] + r.tile[d] - 1) / r.tile[d]
	}
	return r, nil
}

// At returns the decoded sample at coord, decoding lazily. After the tiles
// covering a region have been touched once, further queries in that region
// allocate nothing.
func (r *Reader) At(coord ...int) (float32, error) {
	if len(coord) != r.nd {
		return 0, fmt.Errorf("roi: coordinate rank %d does not match %d dims", len(coord), r.nd)
	}
	k := 0
	for d, c := range coord {
		if c < 0 || c >= r.dims[d] {
			return 0, fmt.Errorf("roi: coordinate %d out of range for dim %d (extent %d)", c, d, r.dims[d])
		}
		k = k*r.tilesPerDim[d] + c/r.tile[d]
	}
	vals, ok := r.tiles[k]
	if !ok {
		var err error
		if vals, err = r.decodeTile(coord); err != nil {
			return 0, err
		}
		r.tiles[k] = vals
	}
	idx := 0
	for d, c := range coord {
		o := c / r.tile[d] * r.tile[d]
		idx = idx*min(r.tile[d], r.dims[d]-o) + c - o
	}
	return vals[idx], nil
}

// decodeTile decodes the tile holding coord (cold path only; the caller
// caches it). Tiles decode serially: a tile is the unit a random-access
// caller pays for, and a whole-field tile is a serial full decode.
func (r *Reader) decodeTile(coord []int) ([]float32, error) {
	lo := make([]int, r.nd)
	hi := make([]int, r.nd)
	for d, c := range coord {
		lo[d] = c / r.tile[d] * r.tile[d]
		hi[d] = min(lo[d]+r.tile[d], r.dims[d])
	}
	f, err := r.src.region(lo, hi, 1)
	if err != nil {
		return nil, err
	}
	return f.Data, nil
}
