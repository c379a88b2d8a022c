package roi

import (
	"fmt"

	"github.com/fxrz-go/fxrz/internal/brick"
	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/sz"
)

// zfpBlockSide mirrors zfp's block extent; the reader's cache granularity.
const zfpBlockSide = 4

// Reader provides O(1) materialized random access over a compressed stream:
// point queries decode lazily — at most once per block — into an in-memory
// cache, after which At is a map lookup plus index arithmetic and performs
// zero heap allocations (pinned by TestReaderAtZeroAlloc).
//
// For ZFP streams up to 3D the cache granularity is the codec's own 4^d
// block, decoded through the seeking region path, so a cold query costs one
// block, not one field. For SZ streams the granularity is one slab (the
// encoder resets its predictor at every slab boundary; a field under two
// slabs is one slab), decoded through sz.DecompressRegion's seeking path — a
// cold query entropy-decodes only the slab it landed in and reconstructs it
// with the rank's full-decode Lorenzo kernel (the box is the whole slab), so
// filling every slab costs what one full decode does. Remaining streams (the
// other codecs, brick stores) materialize in full on the first query and
// serve from memory thereafter.
type Reader struct {
	blob         []byte
	inner, index []byte
	codec        codecs.Codec
	nd           int
	dims         [grid.MaxDims]int
	isBrick      bool

	blockMode bool
	nb        [3]int
	blocks    map[int][]float32

	slabT int // sz slab mode when > 0: rows per lazily decoded slab
	slabs map[int][]float32

	full *grid.Field
}

// NewReader parses a container (indexed, raw codec blob, or marshaled brick
// store) without decoding any samples.
func NewReader(blob []byte) (*Reader, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("roi: empty stream")
	}
	r := &Reader{blob: blob}
	if brick.IsStore(blob) {
		st, err := brick.UnmarshalAuto(blob)
		if err != nil {
			return nil, err
		}
		dims := st.Dims()
		r.isBrick = true
		r.nd = len(dims)
		copy(r.dims[:], dims)
		return r, nil
	}
	inner, index := blob, []byte(nil)
	if IsIndexed(blob) {
		var err error
		if inner, index, err = Unwrap(blob); err != nil {
			return nil, err
		}
	}
	if len(inner) == 0 {
		return nil, fmt.Errorf("roi: %w: empty inner stream", compress.ErrCorrupt)
	}
	codec, err := codecs.ByMagic(inner[0])
	if err != nil {
		return nil, fmt.Errorf("roi: %w", err)
	}
	r.codec = codec
	h, _, err := compress.ParseHeader(inner, inner[0])
	if err != nil {
		return nil, fmt.Errorf("roi: %w", err)
	}
	r.inner, r.index = inner, index
	r.nd = len(h.Dims)
	copy(r.dims[:], h.Dims)
	if inner[0] == compress.MagicZFP && r.nd <= 3 {
		r.blockMode = true
		for d := 0; d < r.nd; d++ {
			r.nb[d] = (h.Dims[d] + zfpBlockSide - 1) / zfpBlockSide
		}
		r.blocks = make(map[int][]float32)
	} else if inner[0] == compress.MagicSZ {
		if t := sz.SlabRows(inner); t > 0 {
			r.slabT = t
			r.slabs = make(map[int][]float32)
		}
	}
	return r, nil
}

// At returns the decoded sample at coord, decoding lazily. After the blocks
// covering a region have been touched once, further queries in that region
// allocate nothing.
func (r *Reader) At(coord ...int) (float32, error) {
	if len(coord) != r.nd {
		return 0, fmt.Errorf("roi: coordinate rank %d does not match %d dims", len(coord), r.nd)
	}
	for d, c := range coord {
		if c < 0 || c >= r.dims[d] {
			return 0, fmt.Errorf("roi: coordinate %d out of range for dim %d (extent %d)", c, d, r.dims[d])
		}
	}
	if r.full != nil {
		idx := 0
		for d, c := range coord {
			idx = idx*r.dims[d] + c
		}
		return r.full.Data[idx], nil
	}
	if r.slabT > 0 {
		s := coord[0] / r.slabT
		vals, ok := r.slabs[s]
		if !ok {
			var err error
			if vals, err = r.decodeSlab(s); err != nil {
				return 0, err
			}
			r.slabs[s] = vals
		}
		idx := coord[0] - s*r.slabT
		for d := 1; d < r.nd; d++ {
			idx = idx*r.dims[d] + coord[d]
		}
		return vals[idx], nil
	}
	if !r.blockMode {
		if err := r.materialize(); err != nil {
			return 0, err
		}
		idx := 0
		for d, c := range coord {
			idx = idx*r.dims[d] + c
		}
		return r.full.Data[idx], nil
	}
	k := 0
	for d := 0; d < r.nd; d++ {
		k = k*r.nb[d] + coord[d]/zfpBlockSide
	}
	vals, ok := r.blocks[k]
	if !ok {
		var err error
		if vals, err = r.decodeBlock(coord); err != nil {
			return 0, err
		}
		r.blocks[k] = vals
	}
	idx := 0
	for d := 0; d < r.nd; d++ {
		o := (coord[d] / zfpBlockSide) * zfpBlockSide
		ext := zfpBlockSide
		if o+ext > r.dims[d] {
			ext = r.dims[d] - o
		}
		idx = idx*ext + (coord[d] - o)
	}
	return vals[idx], nil
}

// decodeBlock decodes the single 4^d block containing coord via the seeking
// region path (cold path only; the result is cached).
func (r *Reader) decodeBlock(coord []int) ([]float32, error) {
	lo := make([]int, r.nd)
	hi := make([]int, r.nd)
	for d := 0; d < r.nd; d++ {
		lo[d] = (coord[d] / zfpBlockSide) * zfpBlockSide
		hi[d] = lo[d] + zfpBlockSide
		if hi[d] > r.dims[d] {
			hi[d] = r.dims[d]
		}
	}
	f, err := r.codec.DecompressRegion(r.inner, r.index, lo, hi)
	if err != nil {
		return nil, err
	}
	return f.Data, nil
}

// decodeSlab decodes sz slab s — the rows [s·slabT, min((s+1)·slabT, nz)) —
// through the seeking region path: only the entropy chunk backing the slab is
// decoded and only its rows are reconstructed, by the same kernel a full
// decode runs on that slab (cold path only; cached).
func (r *Reader) decodeSlab(s int) ([]float32, error) {
	lo := make([]int, r.nd)
	hi := make([]int, r.nd)
	lo[0] = s * r.slabT
	hi[0] = lo[0] + r.slabT
	if hi[0] > r.dims[0] {
		hi[0] = r.dims[0]
	}
	for d := 1; d < r.nd; d++ {
		hi[d] = r.dims[d]
	}
	f, err := r.codec.DecompressRegion(r.inner, r.index, lo, hi)
	if err != nil {
		return nil, err
	}
	return f.Data, nil
}

// materialize runs the one-time full decode backing non-block streams.
func (r *Reader) materialize() error {
	if r.isBrick {
		st, err := brick.UnmarshalAuto(r.blob)
		if err != nil {
			return err
		}
		f, err := st.ReadAll()
		if err != nil {
			return err
		}
		r.full = f
		return nil
	}
	f, err := r.codec.New().Decompress(r.inner)
	if err != nil {
		return err
	}
	r.full = f
	return nil
}
