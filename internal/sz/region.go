package sz

// Region-of-interest decode for the SZ codec.
//
// Lorenzo reconstruction is a prefix recurrence: every point predicts from
// already-reconstructed neighbors, so decoding point p normally requires all
// points before p. The encoder breaks the recurrence at slab boundaries
// (szChunkLayout): the predictor resets at every one, and a multi-slab code
// stream lives in the chunked entropy container with one chunk per slab. A
// region decode then entropy-decodes only the chunks covering
// [slab(lo[0]), hi[0]) — O(region), not O(stream) — and reconstructs each
// covering slab from its own chunk. A field under two slabs is one slab: its
// region starts at row 0 and needs no index. The region index of a
// multi-slab blob is the per-slab escape-pool cursors; without one, the
// decoder counts escapes from the stream head, which costs entropy decode but
// no Lorenzo work. Every slab decoded to its end checks its closing cursor
// against the index's next entry, so all widths agree on any index: a
// mismatch is ErrCorrupt at each, never a region that differs between them.
//
// Region and full decode are one walk, decodeRows (sz.go): a full decode is
// the region [0, dims), and a region spends its worker budget as a full
// decode does — the covering slabs reconstruct concurrently, each from the
// cursor the index holds for it (an unindexed stream counts them first).
// Slabs reconstruct through reconstructBox (lorenzo_fast.go): one kernel per
// rank — reconstruct1D/2D/3D, the generic N-d loop only for >= 4D — taking
// the prefix box [0, hi[d]) of the trailing dimensions and a raw-pool cursor.
// Points outside the box are neither written nor read (the box is closed
// under the -1 offsets of every Lorenzo neighbor); their escape codes are
// counted so the cursor stays exact.
//
// Bit-identity: the kernels and the quantize arithmetic are the full
// decoder's, and a slab's reset predictor is exactly what a full decode
// starts that slab from — so the restarted recurrence is the full recurrence.
// TestSZRegionKernelsMatchGeneric pins kernels and N-d oracle to each other on
// one-slab and multi-slab blobs.

import (
	"encoding/binary"
	"fmt"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// BuildRegionIndex returns the region index payload of an sz blob:
//
//	uvarint T (slab height along dim 0; 0 = no index)
//	uvarint nSlabs (= ceil(dims[0]/T))
//	(nSlabs-1) × uvarint: escape count within each preceding slab (the raw
//	    cursor at slab i's start is the sum of the first i counts)
//	(nSlabs-1) × byte 2: one flag per boundary, "predictor resets here"
//
// A one-slab blob gets the empty index (T = 0) without decoding anything;
// older builds stored seed planes there under flags 0 and 1, which no
// decoder reads — a one-slab region never consults its index. For a
// multi-slab blob the slab height is the blob's own chunk height, and the
// index is the escape-count prefix sums, a few bytes per slab: building it
// entropy-decodes the code stream but reconstructs no samples.
func BuildRegionIndex(blob []byte) ([]byte, error) {
	h, payload, err := compress.ParseHeader(blob, compress.MagicSZ)
	if err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}
	packed, _, _, err := splitSZSections(h.Dims, payload)
	if err != nil {
		return nil, err
	}
	T, err := szSlabRowsFromPacked(packed, h.Dims)
	if err != nil {
		return nil, err
	}
	nz := h.Dims[0]
	nSlabs := (nz + T - 1) / T
	if nSlabs < 2 {
		return binary.AppendUvarint(nil, 0), nil
	}
	codeBytes, err := entropy.DecompressBytes(packed, 1)
	if err != nil {
		return nil, fmt.Errorf("sz: decode codes: %w", err)
	}
	n := elemCount(h.Dims)
	if len(codeBytes) != 2*n {
		return nil, fmt.Errorf("sz: %w: %d code bytes for %d points", compress.ErrCorrupt, len(codeBytes), n)
	}
	slabBytes := 2 * T * (n / nz)
	out := binary.AppendUvarint(nil, uint64(T))
	out = binary.AppendUvarint(out, uint64(nSlabs))
	for i := 1; i < nSlabs; i++ {
		out = binary.AppendUvarint(out, uint64(countEscapes(codeBytes[(i-1)*slabBytes:i*slabBytes])))
	}
	for i := 1; i < nSlabs; i++ {
		out = append(out, 2)
	}
	return out, nil
}

// szIndex is a parsed region index.
type szIndex struct {
	T      int
	cumEsc []int // cumEsc[i] = escapes before slab i's first point
}

// parseSZIndex validates an index payload; it returns nil (no error) for a
// well-formed empty index.
func parseSZIndex(index []byte, dims []int, n int) (*szIndex, error) {
	t, k := binary.Uvarint(index)
	if k <= 0 {
		return nil, fmt.Errorf("sz: %w: index slab height", compress.ErrCorrupt)
	}
	rest := index[k:]
	if t == 0 {
		if len(rest) != 0 {
			return nil, fmt.Errorf("sz: %w: index trailer", compress.ErrCorrupt)
		}
		return nil, nil
	}
	nz := dims[0]
	if t > uint64(nz) {
		return nil, fmt.Errorf("sz: %w: slab height %d for %d rows", compress.ErrCorrupt, t, nz)
	}
	T := int(t)
	nSlabs, k := binary.Uvarint(rest)
	if k <= 0 || nSlabs != uint64((nz+T-1)/T) || nSlabs < 2 {
		return nil, fmt.Errorf("sz: %w: index slab count", compress.ErrCorrupt)
	}
	rest = rest[k:]
	si := &szIndex{T: T, cumEsc: make([]int, nSlabs)}
	for i := 1; i < int(nSlabs); i++ {
		d, k := binary.Uvarint(rest)
		if k <= 0 || d > uint64(n) {
			return nil, fmt.Errorf("sz: %w: index escape count", compress.ErrCorrupt)
		}
		rest = rest[k:]
		si.cumEsc[i] = si.cumEsc[i-1] + int(d)
		if si.cumEsc[i] < 0 || si.cumEsc[i] > n {
			return nil, fmt.Errorf("sz: %w: index escape cursor", compress.ErrCorrupt)
		}
	}
	if uint64(len(rest)) != nSlabs-1 {
		return nil, fmt.Errorf("sz: %w: index trailer", compress.ErrCorrupt)
	}
	for _, flag := range rest {
		if flag != 2 {
			return nil, fmt.Errorf("sz: %w: boundary flag %d", compress.ErrCorrupt, flag)
		}
	}
	return si, nil
}

// RegionTile reports the region an sz blob decodes most cheaply on its own:
// one slab of the full plane, the slab being the whole field for a one-slab
// blob. It returns nil for anything unparseable.
func RegionTile(blob []byte) []int {
	h, payload, err := compress.ParseHeader(blob, compress.MagicSZ)
	if err != nil {
		return nil
	}
	packed, _, _, err := splitSZSections(h.Dims, payload)
	if err != nil {
		return nil
	}
	T, err := szSlabRowsFromPacked(packed, h.Dims)
	if err != nil {
		return nil
	}
	return append([]int{T}, h.Dims[1:]...)
}

// DecompressRegion decodes the half-open region [lo, hi) of an sz blob,
// reconstructing only rows [slab(lo[0]), hi[0]) of the Lorenzo recurrence and,
// within them, only the prefix box [0, hi[d]) of the trailing dimensions.
// Only the entropy chunks covering those rows are decoded. index may be nil or
// empty; a region past the first slab then pays one extra entropy pass over
// the preceding chunks to place the escape-pool cursor. workers bounds the
// fan-out exactly as in a full decode: the covering chunks entropy-decode and
// the covering slabs reconstruct concurrently. The output is bit-identical to
// the corresponding slice of a full Decompress at every width.
func DecompressRegion(blob, index []byte, lo, hi []int, workers int) (*grid.Field, error) {
	return decompressRegion(blob, index, lo, hi, workers, false)
}

// decompressRegion is the DecompressRegion implementation, the region case of
// decodeRows; forceGeneric pins the reconstruction to the N-d odometer oracle
// (see decompressSZ).
func decompressRegion(blob, index []byte, lo, hi []int, workers int, forceGeneric bool) (*grid.Field, error) {
	defer obs.Span("decompress/sz-region")()
	return decodeRows(blob, index, lo, hi, workers, forceGeneric)
}
