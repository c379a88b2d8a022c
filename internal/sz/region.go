package sz

// Region-of-interest decode for the SZ codec.
//
// Lorenzo reconstruction is a prefix recurrence: every point predicts from
// already-reconstructed neighbors, so decoding point p normally requires all
// points before p.
//
// For chunked blobs (szChunkLayout) the encoder already broke the recurrence:
// the predictor resets at every slab boundary and the code stream lives in
// the chunked entropy container with one chunk per slab. A region decode then
// entropy-decodes only the chunks covering [slab(lo[0]), hi[0]) — O(region),
// not O(stream) — and reconstructs each covering slab from its own chunk. The
// region index shrinks to the per-slab escape-pool cursors; without one, the
// decoder counts escapes from the stream head, which costs entropy decode but
// no Lorenzo work.
//
// Legacy whole-stream blobs keep the original scheme: the index persists, per
// boundary, the raw cursor and the reconstructed hyperplane just before it —
// the predictor seed — and a region decode entropy-decodes the whole stream,
// jumps to the nearest boundary at or below the region, and reconstructs only
// rows [slab start, hi[0]) below the seed plane.
//
// Both reconstruct through reconstructBox (lorenzo_fast.go), the entry point
// full decode uses: one kernel per rank — reconstruct1D/2D/3D, the generic
// N-d loop only for >= 4D — taking a start row, the prefix box [0, hi[d]) of
// the trailing dimensions and a raw-pool cursor. Points outside the box are
// neither written nor read (the box is closed under the -1 offsets of every
// Lorenzo neighbor); their escape codes are counted so the cursor stays exact.
//
// Bit-identity: the kernels and the quantize arithmetic are the full
// decoder's, and the restart state (a chunked slab's reset predictor, a legacy
// seed plane) holds exactly what a full decode would have produced — so the
// restarted recurrence is the full recurrence.
// TestSZRegionKernelsMatchGeneric pins kernels and N-d oracle to each other on
// both blob kinds.

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// szIndexMaxSlabs caps the number of slabs: each boundary costs a full
// hyperplane, so past a point more boundaries buy little skipping but a lot
// of index.
const szIndexMaxSlabs = 16

// slabHeight picks the slab height T for a field of nz rows of planeSize
// points each, keeping the raw seed planes within max(blob/8, 4 KiB) — on a
// small field the floor decides, and the index can approach the blob itself
// (TestSZLegacyIndexBudget). Returns 0 when no useful index fits (the decoder
// then reconstructs from row 0, which is still correct).
func slabHeight(nz, planeSize, blobLen int) int {
	if nz < 2 {
		return 0
	}
	planeBytes := 4*planeSize + 8
	budget := blobLen / 8
	if budget < 4096 {
		budget = 4096
	}
	maxBoundaries := budget / planeBytes
	if maxBoundaries < 1 {
		return 0
	}
	nSlabs := maxBoundaries + 1
	if nSlabs > nz {
		nSlabs = nz
	}
	if nSlabs > szIndexMaxSlabs {
		nSlabs = szIndexMaxSlabs
	}
	return (nz + nSlabs - 1) / nSlabs
}

// BuildRegionIndex decodes an sz blob once and returns its region index
// payload:
//
//	uvarint T (slab height along dim 0; 0 = no index)
//	uvarint nSlabs (= ceil(dims[0]/T))
//	(nSlabs-1) × uvarint: escape count within each preceding slab (the raw
//	    cursor at slab i's start is the sum of the first i counts)
//	(nSlabs-1) × seed plane: 1 flag byte (0 raw | 1 entropy-compressed |
//	    2 absent), then — for flags 0 and 1 — uvarint length and the
//	    reconstructed float32 plane at row i·T-1
//
// For a chunked blob the slab height is the blob's own chunk height, every
// seed flag is 2 (the encoder's predictor resets replace the seed planes),
// and no field decode happens at all — the index is just the escape-count
// prefix sums, a few bytes per slab.
func BuildRegionIndex(blob []byte) ([]byte, error) {
	h, payload, err := compress.ParseHeader(blob, compress.MagicSZ)
	if err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}
	packed, _, _, err := splitSZSections(h.Dims, payload)
	if err != nil {
		return nil, err
	}
	chunkT, err := szSlabRowsFromPacked(packed, h.Dims)
	if err != nil {
		return nil, err
	}
	codeBytes, err := entropy.DecompressBytes(packed)
	if err != nil {
		return nil, fmt.Errorf("sz: decode codes: %w", err)
	}
	nz := h.Dims[0]
	if len(codeBytes) != 2*elemCount(h.Dims) {
		return nil, fmt.Errorf("sz: %w: %d code bytes for %d points", compress.ErrCorrupt, len(codeBytes), elemCount(h.Dims))
	}
	planeSize := elemCount(h.Dims) / nz
	appendEscCounts := func(out []byte, T, nSlabs int) []byte {
		for i := 1; i < nSlabs; i++ {
			cnt := countEscapes(codeBytes[2*(i-1)*T*planeSize : 2*i*T*planeSize])
			out = binary.AppendUvarint(out, uint64(cnt))
		}
		return out
	}
	if chunkT > 0 {
		nSlabs := (nz + chunkT - 1) / chunkT
		if nSlabs < 2 {
			return binary.AppendUvarint(nil, 0), nil
		}
		out := binary.AppendUvarint(nil, uint64(chunkT))
		out = binary.AppendUvarint(out, uint64(nSlabs))
		out = appendEscCounts(out, chunkT, nSlabs)
		for i := 1; i < nSlabs; i++ {
			out = append(out, 2)
		}
		return out, nil
	}
	T := slabHeight(nz, planeSize, len(blob))
	out := binary.AppendUvarint(nil, uint64(T))
	if T == 0 {
		return out, nil
	}
	rec, err := decompressSZ(blob, false, 1)
	if err != nil {
		return nil, err
	}
	nSlabs := (nz + T - 1) / T
	out = binary.AppendUvarint(out, uint64(nSlabs))
	out = appendEscCounts(out, T, nSlabs)
	rawPlane := make([]byte, 4*planeSize)
	for i := 1; i < nSlabs; i++ {
		plane := rec.Data[(i*T-1)*planeSize : i*T*planeSize]
		for j, v := range plane {
			binary.LittleEndian.PutUint32(rawPlane[4*j:], math.Float32bits(v))
		}
		comp, cerr := entropy.CompressBytes(rawPlane)
		if cerr == nil && len(comp) < len(rawPlane) {
			out = append(out, 1)
			out = binary.AppendUvarint(out, uint64(len(comp)))
			out = append(out, comp...)
		} else {
			out = append(out, 0)
			out = binary.AppendUvarint(out, uint64(len(rawPlane)))
			out = append(out, rawPlane...)
		}
	}
	return out, nil
}

// szIndex is a parsed region index.
type szIndex struct {
	T      int
	cumEsc []int // cumEsc[i] = escapes before slab i's first point
	flags  []byte
	seeds  [][]byte // per boundary, the encoded seed plane bytes
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
	for i := 1; i < int(nSlabs); i++ {
		if len(rest) < 1 || rest[0] > 2 {
			return nil, fmt.Errorf("sz: %w: seed flag", compress.ErrCorrupt)
		}
		flag := rest[0]
		rest = rest[1:]
		if flag == 2 {
			// Chunked blob: the predictor resets at this boundary, so no
			// seed plane is stored.
			si.flags = append(si.flags, flag)
			si.seeds = append(si.seeds, nil)
			continue
		}
		ln, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < ln {
			return nil, fmt.Errorf("sz: %w: seed plane %d", compress.ErrCorrupt, i)
		}
		rest = rest[k:]
		si.flags = append(si.flags, flag)
		si.seeds = append(si.seeds, rest[:ln])
		rest = rest[ln:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("sz: %w: index trailer", compress.ErrCorrupt)
	}
	return si, nil
}

// seedPlane returns the raw little-endian float32 bytes of the seed plane at
// row s*T-1 (the boundary entering slab s >= 1).
func (si *szIndex) seedPlane(s, planeSize int) ([]byte, error) {
	if si.flags[s-1] == 2 {
		return nil, fmt.Errorf("sz: %w: seedless index paired with a whole-stream blob", compress.ErrCorrupt)
	}
	data := si.seeds[s-1]
	if si.flags[s-1] == 1 {
		var err error
		data, err = entropy.DecompressBytes(data)
		if err != nil {
			return nil, fmt.Errorf("sz: seed plane: %w", err)
		}
	}
	if len(data) != 4*planeSize {
		return nil, fmt.Errorf("sz: %w: seed plane is %d bytes, want %d", compress.ErrCorrupt, len(data), 4*planeSize)
	}
	return data, nil
}

// SlabRows reports the slab height of an sz blob whose code stream lives in
// the chunked entropy container (each slab decodable on its own), or 0 for a
// legacy whole-stream blob or anything unparseable. roi.Reader uses it to
// choose between per-slab lazy materialization and a full decode.
func SlabRows(blob []byte) int {
	h, payload, err := compress.ParseHeader(blob, compress.MagicSZ)
	if err != nil {
		return 0
	}
	packed, _, _, err := splitSZSections(h.Dims, payload)
	if err != nil {
		return 0
	}
	T, err := szSlabRowsFromPacked(packed, h.Dims)
	if err != nil || T >= h.Dims[0] {
		return 0
	}
	return T
}

// DecompressRegion decodes the half-open region [lo, hi) of an sz blob,
// reconstructing only rows [slab(lo[0]), hi[0]) of the Lorenzo recurrence and,
// within them, only the prefix box [0, hi[d]) of the trailing dimensions.
// For chunked blobs only the entropy chunks covering those rows are decoded.
// index may be nil or empty; a legacy blob then reconstructs from row 0
// (still skipping the rows past hi[0]), and a chunked blob pays one extra
// entropy pass over the preceding chunks to place the escape-pool cursor.
// The output is bit-identical to the corresponding slice of a full
// Decompress.
func DecompressRegion(blob, index []byte, lo, hi []int) (*grid.Field, error) {
	return decompressRegion(blob, index, lo, hi, false)
}

// decompressRegion is the DecompressRegion implementation; forceGeneric pins
// the reconstruction to the N-d odometer oracle (see decompressSZ).
func decompressRegion(blob, index []byte, lo, hi []int, forceGeneric bool) (*grid.Field, error) {
	defer obs.Span("decompress/sz-region")()
	h, payload, err := compress.ParseHeader(blob, compress.MagicSZ)
	if err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}
	if err := grid.CheckRegion(h.Dims, lo, hi); err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}
	packed, rawPayload, nraw, err := splitSZSections(h.Dims, payload)
	if err != nil {
		return nil, err
	}
	n := elemCount(h.Dims)
	nz := h.Dims[0]
	planeSize := n / nz
	chunkT, err := szSlabRowsFromPacked(packed, h.Dims)
	if err != nil {
		return nil, err
	}
	if chunkT > 0 && chunkT < nz {
		return decompressRegionChunked(h, packed, rawPayload, nraw, chunkT, index, lo, hi, forceGeneric)
	}
	codeBytes, err := entropy.DecompressBytes(packed)
	if err != nil {
		return nil, fmt.Errorf("sz: decode codes: %w", err)
	}
	if len(codeBytes) != 2*n {
		return nil, fmt.Errorf("sz: %w: %d code bytes for %d points", compress.ErrCorrupt, len(codeBytes), n)
	}

	z0, rawPos := 0, 0
	var seed []byte
	if len(index) > 0 {
		si, err := parseSZIndex(index, h.Dims, n)
		if err != nil {
			return nil, err
		}
		if si != nil {
			if s0 := lo[0] / si.T; s0 > 0 {
				z0 = s0 * si.T
				rawPos = si.cumEsc[s0]
				if seed, err = si.seedPlane(s0, planeSize); err != nil {
					return nil, err
				}
			}
		}
	}
	if uint64(rawPos) > nraw {
		return nil, fmt.Errorf("sz: %w: index raw cursor", compress.ErrCorrupt)
	}
	seedRows := 0
	if z0 > 0 {
		seedRows = 1
	}
	// buf row 0 is the seed plane when there is one, so the kernels see an
	// ordinary field that starts decoding at row seedRows.
	bufDims := append([]int{hi[0] - z0 + seedRows}, h.Dims[1:]...)
	buf := getF32s(bufDims[0] * planeSize)
	defer putF32s(buf)
	for j := 0; j < seedRows*planeSize; j++ {
		buf[j] = math.Float32frombits(binary.LittleEndian.Uint32(seed[4*j:]))
	}
	if _, err := reconstructBox(buf, bufDims, seedRows, hi[1:], h.Knob, codeBytes[2*(z0-seedRows)*planeSize:], rawPayload, nraw, rawPos, forceGeneric); err != nil {
		return nil, err
	}
	obs.Inc("sz/region_decodes")
	obs.Add("sz/region_rows_decoded", int64(hi[0]-z0))
	obs.Add("sz/region_rows_skipped", int64(z0+nz-hi[0]))

	view, err := grid.FromData(h.Name, buf, bufDims...)
	if err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}
	vlo := append([]int{lo[0] - z0 + seedRows}, lo[1:]...)
	vhi := append([]int{hi[0] - z0 + seedRows}, hi[1:]...)
	return grid.SliceRegion(view, vlo, vhi)
}

// decompressRegionChunked is the region decoder for chunked blobs: slab
// boundaries coincide with entropy-chunk boundaries and the predictor resets
// at each one, so only the chunks covering rows [slab(lo[0]), hi[0]) are
// entropy-decoded and each covering slab reconstructs independently. The
// escape-pool cursor entering the first slab comes from the index when one is
// present; otherwise the preceding chunks are entropy-decoded once, purely to
// count their escape codes (no Lorenzo work).
func decompressRegionChunked(h compress.Header, packed, rawPayload []byte, nraw uint64, chunkT int, index []byte, lo, hi []int, forceGeneric bool) (*grid.Field, error) {
	n := elemCount(h.Dims)
	nz := h.Dims[0]
	planeSize := n / nz
	s0 := lo[0] / chunkT
	z0 := s0 * chunkT
	cum0 := -1
	if len(index) > 0 {
		si, err := parseSZIndex(index, h.Dims, n)
		if err != nil {
			return nil, err
		}
		if si != nil {
			if si.T != chunkT {
				return nil, fmt.Errorf("sz: %w: index slab height %d does not match chunk height %d", compress.ErrCorrupt, si.T, chunkT)
			}
			cum0 = si.cumEsc[s0]
		}
	}
	decodeFrom := z0
	if cum0 < 0 && z0 > 0 {
		decodeFrom = 0 // no index: count escapes from the stream head
	}
	codes, err := entropy.DecompressBytesRange(packed, 2*decodeFrom*planeSize, 2*hi[0]*planeSize, 2*n, 1)
	if err != nil {
		return nil, fmt.Errorf("sz: decode codes: %w", err)
	}
	if cum0 < 0 {
		skip := 2 * (z0 - decodeFrom) * planeSize
		cum0 = countEscapes(codes[:skip])
		codes = codes[skip:]
	}
	if uint64(cum0) > nraw {
		return nil, fmt.Errorf("sz: %w: index raw cursor", compress.ErrCorrupt)
	}

	rows := hi[0] - z0
	buf := getF32s(rows * planeSize)
	defer putF32s(buf)
	rawPos := cum0
	for s := s0; s*chunkT < hi[0]; s++ {
		zs, ze, slabDims := slabSpan(h.Dims, chunkT, s)
		if ze > hi[0] {
			ze = hi[0] // the region ends inside this slab
			slabDims[0] = ze - zs
		}
		rawPos, err = reconstructBox(buf[(zs-z0)*planeSize:(ze-z0)*planeSize], slabDims, 0, hi[1:],
			h.Knob, codes[2*(zs-z0)*planeSize:], rawPayload, nraw, rawPos, forceGeneric)
		if err != nil {
			return nil, err
		}
	}
	obs.Inc("sz/region_decodes")
	obs.Inc("sz/region_chunked_decodes")
	obs.Add("sz/region_rows_decoded", int64(hi[0]-z0))
	obs.Add("sz/region_rows_skipped", int64(z0+nz-hi[0]))

	bufDims := append([]int{rows}, h.Dims[1:]...)
	view, err := grid.FromData(h.Name, buf, bufDims...)
	if err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}
	vlo := append([]int{lo[0] - z0}, lo[1:]...)
	vhi := append([]int{hi[0] - z0}, hi[1:]...)
	return grid.SliceRegion(view, vlo, vhi)
}
