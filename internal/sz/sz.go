// Package sz implements an SZ-style error-bounded lossy compressor for
// scientific floating-point fields, following the classic SZ 1.4/2.x
// pipeline: an N-dimensional Lorenzo predictor operating on reconstructed
// values, linear-scaling quantization of prediction residuals against the
// absolute error bound, an escape path for unpredictable points, and a
// lossless back end (LZ dictionary coding + Huffman) standing in for SZ's
// Huffman+Zstd stage.
//
// The compressor guarantees |decompressed - original| <= eb for every point
// (unpredictable points are stored verbatim).
package sz

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// quantization alphabet: code 0 escapes to the raw path, codes 1..intervals-1
// carry the residual bucket q = code - radius.
const (
	intervals = 1 << 16
	radius    = intervals / 2
)

// Compressor is the SZ-like codec. The zero value is ready to use.
type Compressor struct {
	// Workers bounds the intra-field fan-out (pool.Workers semantics: 0 uses
	// all cores, 1 forces a serial run). The slabs of a multi-slab field
	// (szChunkLayout) quantize and reconstruct concurrently and the entropy
	// stage fans out per chunk; blobs and reconstructions are bit-identical at
	// every setting.
	Workers int
}

// New returns an SZ-like compressor.
func New() *Compressor { return &Compressor{} }

// Name implements compress.Compressor.
func (*Compressor) Name() string { return "sz" }

// Axis implements compress.Compressor: the knob is an absolute error bound.
func (*Compressor) Axis() compress.Axis {
	return compress.Axis{Kind: compress.AbsErrorBound, Min: 1e-12, Max: 1e6}
}

// WithWorkers implements compress.ParallelCompressor.
func (c *Compressor) WithWorkers(n int) compress.Compressor { return &Compressor{Workers: n} }

// Compress implements compress.Compressor.
func (c *Compressor) Compress(f *grid.Field, eb float64) ([]byte, error) {
	return compressSZ(f, eb, false, pool.Workers(c.Workers))
}

// szSlabMinRows floors the slab height of a chunked blob: below it the
// boundary planes (which quantize with one fewer predictor dimension) would
// be a noticeable fraction of each slab and cost compression ratio.
const szSlabMinRows = 8

// szChunkLayout maps a field's shape onto the chunked-entropy container:
// slabs of rowsPerSlab leading-dimension rows, each 2·planeSize·rowsPerSlab
// code bytes — one entropy chunk per slab, sized near the container's target.
// A field that does not fill two slabs is one slab in the whole-stream
// entropy format and runs serially: the slab is the only unit of intra-field
// fan-out.
func szChunkLayout(dims []int) (rowsPerSlab, nSlabs int) {
	nz := dims[0]
	if nz <= 0 {
		return 0, 1
	}
	rowBytes := 2 * (elemCount(dims) / nz)
	rowsPerSlab = entropy.ChunkTargetBytes / rowBytes
	if rowsPerSlab < szSlabMinRows {
		rowsPerSlab = szSlabMinRows
	}
	return rowsPerSlab, (nz + rowsPerSlab - 1) / rowsPerSlab
}

// szSlabRowsFromPacked recovers the slab height a code stream was encoded
// with: a whole-stream blob is one slab of dims[0] rows. The container is
// self-describing: a chunked blob's block size is always a whole number of
// rows, and its presence is the signal that the encoder reset the Lorenzo
// predictor at every slab boundary.
func szSlabRowsFromPacked(packed []byte, dims []int) (int, error) {
	nz := dims[0]
	if nz <= 0 {
		return 0, fmt.Errorf("sz: %w: stream for empty dims", compress.ErrCorrupt)
	}
	blockBytes := entropy.ChunkedBlockSize(packed)
	if blockBytes == 0 {
		return nz, nil
	}
	rowBytes := 2 * (elemCount(dims) / nz)
	if rowBytes == 0 || blockBytes%rowBytes != 0 {
		return 0, fmt.Errorf("sz: %w: chunk size %d is not a whole number of %d-byte rows", compress.ErrCorrupt, blockBytes, rowBytes)
	}
	return blockBytes / rowBytes, nil
}

// slabSpan returns the leading-dimension row range [z0, z1) of slab s when a
// field of the given dims is cut into slabs of T rows (the last one may be
// short), plus the slab's own dims — the independent sub-field the Lorenzo
// predictor sees. Encoder, full decoder and region decoder all cut with it.
func slabSpan(dims []int, T, s int) (z0, z1 int, subDims []int) {
	z0 = s * T
	z1 = z0 + T
	if z1 > dims[0] {
		z1 = dims[0]
	}
	return z0, z1, append([]int{z1 - z0}, dims[1:]...)
}

// compressSZ is the Compress implementation; forceGeneric pins the
// quantization pass to the N-d odometer oracle so tests can prove the
// specialized kernels emit identical blobs.
//
// The field quantizes slab by slab (szChunkLayout) with the Lorenzo
// predictor reset at every slab boundary — each slab is an independent
// sub-field, so the slabs fan out across workers. A multi-slab code stream is
// packed into the chunked entropy container with one chunk per slab, which
// makes every slab decodable from its own chunk alone: the full decoder fans
// slabs out the same way and the region decoder touches only the chunks
// covering the request. A one-slab field fits in one block, so
// CompressBytesBlocks keeps it in the whole-stream entropy container.
func compressSZ(f *grid.Field, eb float64, forceGeneric bool, workers int) ([]byte, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("sz: error bound must be a positive finite number, got %v", eb)
	}
	defer obs.Span("compress/sz")()
	obs.Inc("compressor_runs/sz")
	n := f.Size()
	codes := u16Scratch.Get(n)
	defer u16Scratch.Put(codes)
	recon := f32Scratch.Get(n)
	defer f32Scratch.Put(recon)
	rowsPerSlab, nSlabs := szChunkLayout(f.Dims)
	ps := n / f.Dims[0]
	err := pool.RunErr(workers, nSlabs, func(s int) error {
		z0, z1, subDims := slabSpan(f.Dims, rowsPerSlab, s)
		lo, hi := z0*ps, z1*ps
		sub, err := grid.FromData(f.Name, f.Data[lo:hi], subDims...)
		if err != nil {
			return fmt.Errorf("sz: %w", err)
		}
		quantizeField(sub, eb, codes[lo:hi], recon[lo:hi], forceGeneric)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The kernels mark an escape as code 0; the raw pool is the escaped
	// values in row-major order, gathered while the codes are serialized.
	codeBytes := byteScratch.Get(2 * n)
	raw := f32Scratch.Get(n)[:0]
	defer f32Scratch.Put(raw[:cap(raw)])
	for i, c := range codes {
		binary.LittleEndian.PutUint16(codeBytes[2*i:], c)
		if c == 0 {
			raw = append(raw, f.Data[i])
		}
	}
	packedCodes, err := entropy.CompressBytesBlocks(codeBytes, 2*rowsPerSlab*ps, workers)
	byteScratch.Put(codeBytes)
	if err != nil {
		return nil, fmt.Errorf("sz: encode codes: %w", err)
	}
	rawBytes := byteScratch.Get(4 * len(raw))
	for i, v := range raw {
		binary.LittleEndian.PutUint32(rawBytes[4*i:], math.Float32bits(v))
	}

	out := compress.AppendHeader(nil, compress.Header{Magic: compress.MagicSZ, Name: f.Name, Dims: f.Dims, Knob: eb})
	out = binary.AppendUvarint(out, uint64(len(packedCodes)))
	out = append(out, packedCodes...)
	out = binary.AppendUvarint(out, uint64(len(raw)))
	out = append(out, rawBytes...)
	byteScratch.Put(rawBytes)
	return out, nil
}

// Decompress implements compress.Compressor.
func (c *Compressor) Decompress(blob []byte) (*grid.Field, error) {
	return decompressSZ(blob, false, pool.Workers(c.Workers))
}

// splitSZSections splits an sz payload (everything after the common header)
// into its still-compressed code section and the raw escape pool, with the
// container-level corruption checks but without entropy-decoding anything —
// the region decoder seeks inside the packed stream instead of expanding it.
func splitSZSections(dims []int, payload []byte) (packed, rawPayload []byte, nraw uint64, err error) {
	if _, err := compress.CheckElems(dims, len(payload)); err != nil {
		return nil, nil, 0, fmt.Errorf("sz: %w", err)
	}
	pcLen, k := binary.Uvarint(payload)
	if k <= 0 || uint64(len(payload)-k) < pcLen {
		return nil, nil, 0, fmt.Errorf("sz: %w: code section", compress.ErrCorrupt)
	}
	payload = payload[k:]
	packed = payload[:pcLen]
	payload = payload[pcLen:]
	nraw, k = binary.Uvarint(payload)
	if k <= 0 || uint64(len(payload)-k) < 4*nraw {
		return nil, nil, 0, fmt.Errorf("sz: %w: raw section", compress.ErrCorrupt)
	}
	return packed, payload[k:], nraw, nil
}

// decompressSZ is the Decompress implementation; forceGeneric pins the
// reconstruction pass to the N-d odometer oracle (see compressSZ). A full
// decode is the whole-field case of decodeRows.
func decompressSZ(blob []byte, forceGeneric bool, workers int) (*grid.Field, error) {
	defer obs.Span("decompress/sz")()
	return decodeRows(blob, nil, nil, nil, workers, forceGeneric)
}

// decodeRows is the one sz decode walk. It decodes the region [lo, hi) of
// blob, or the whole field when lo is nil, by reconstructing the rows
// [slab(lo[0]), hi[0]) and, within them, only the prefix box [0, hi[d]) of the
// trailing dimensions.
//
// Escapes sit in the raw pool in global row-major order, so each covering slab
// needs the pool cursor at its first point. A region index holds every slab's
// cursor; without one the chunks before the first covering slab are
// entropy-decoded once, purely to count their escape codes (no Lorenzo work).
// Only the entropy chunks covering the decoded rows are expanded, fanned out
// over workers. With the cursors known up front — from the index, or, on an
// unindexed stream with workers > 1, from the escape counts of every slab
// before the region and every covering slab but the last, counted one slab a
// task over workers and summed in slab order — the slabs, independent
// sub-fields thanks to the encoder's predictor resets, reconstruct in any
// order and therefore in parallel, each with the serial kernel against the
// whole pool. A serial walk over an unindexed stream counts only the slabs
// before the region: each covering slab starts from the cursor the previous
// one's kernel returned, which is the same number. Every
// slab decoded to its end checks the cursor its kernel returned against the
// index's entry for the next slab, so every width reads the same cursors and
// reaches the same verdict on any index. A slab fails exactly when one of its
// in-box escapes lies past the pool's end, which is when the serial walk
// fails: the same errRawExhausted at every width.
//
// A full decode reconstructs straight into the result; a region decodes into
// scratch rows and slices the box out of them.
func decodeRows(blob, index []byte, lo, hi []int, workers int, forceGeneric bool) (*grid.Field, error) {
	h, payload, err := compress.ParseHeader(blob, compress.MagicSZ)
	if err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}
	full := lo == nil
	if full {
		hi = h.Dims
	} else if err := grid.CheckRegion(h.Dims, lo, hi); err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}
	packed, rawPayload, nraw, err := splitSZSections(h.Dims, payload)
	if err != nil {
		return nil, err
	}
	T, err := szSlabRowsFromPacked(packed, h.Dims)
	if err != nil {
		return nil, err
	}
	n := elemCount(h.Dims)
	nz := h.Dims[0]
	ps := n / nz
	s0 := 0
	if !full {
		s0 = lo[0] / T
	}
	z0 := s0 * T
	var si *szIndex
	if T < nz && len(index) > 0 {
		if si, err = parseSZIndex(index, h.Dims, n); err != nil {
			return nil, err
		}
		if si != nil && si.T != T {
			return nil, fmt.Errorf("sz: %w: index slab height %d does not match chunk height %d", compress.ErrCorrupt, si.T, T)
		}
	}
	decodeFrom := z0
	if si == nil {
		decodeFrom = 0 // no index: count escapes from the stream head
	}
	codes, err := entropy.DecompressBytesRange(packed, 2*decodeFrom*ps, 2*hi[0]*ps, 2*n, workers)
	if err != nil {
		return nil, fmt.Errorf("sz: decode codes: %w", err)
	}
	nCover := (hi[0]+T-1)/T - s0
	var cursors []int
	chained := false
	if si != nil {
		cursors = si.cumEsc[s0 : s0+nCover]
	} else {
		// The escape counts of the slabs before the region, and at width > 1
		// of every covering slab but the last, fanned out one slab a task;
		// their running sum is each covering slab's cursor.
		chained = workers <= 1 // pool.RunErr then runs the slabs in order
		nCount := s0
		if !chained {
			nCount += nCover - 1
		}
		slabBytes := 2 * T * ps
		counts := make([]int, nCount)
		pool.Run(workers, nCount, func(s int) {
			counts[s] = countEscapes(codes[s*slabBytes : (s+1)*slabBytes])
		})
		cursors = make([]int, nCover)
		sum := 0
		for s, e := range counts {
			sum += e
			if s+1 >= s0 {
				cursors[s+1-s0] = sum
			}
		}
		codes = codes[2*z0*ps:]
	}
	if uint64(cursors[0]) > nraw {
		return nil, fmt.Errorf("sz: %w: index raw cursor", compress.ErrCorrupt)
	}

	rows := hi[0] - z0
	var f *grid.Field
	var dst []float32
	if full {
		if f, err = grid.New(h.Name, h.Dims...); err != nil {
			return nil, fmt.Errorf("sz: %w", err)
		}
		dst = f.Data
	} else {
		dst = f32Scratch.Get(rows * ps)
		defer f32Scratch.Put(dst)
	}
	err = pool.RunErr(workers, nCover, func(i int) error {
		zs, ze, slabDims := slabSpan(h.Dims, T, s0+i)
		whole := ze <= hi[0]
		if !whole {
			ze = hi[0] // the region ends inside this slab
			slabDims[0] = ze - zs
		}
		next, err := reconstructBox(dst[(zs-z0)*ps:(ze-z0)*ps], slabDims, hi[1:],
			h.Knob, codes[2*(zs-z0)*ps:], rawPayload, nraw, cursors[i], forceGeneric)
		switch {
		case err != nil:
			return err
		case chained && i+1 < nCover:
			cursors[i+1] = next
		case si != nil && whole && s0+i+1 < len(si.cumEsc) && next != si.cumEsc[s0+i+1]:
			return fmt.Errorf("sz: %w: index escape cursor of slab %d", compress.ErrCorrupt, s0+i+1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if full {
		return f, nil
	}
	obs.Inc("sz/region_decodes")
	obs.Add("sz/region_rows_decoded", int64(rows))
	obs.Add("sz/region_rows_skipped", int64(z0+nz-hi[0]))

	view, err := grid.FromData(h.Name, dst, append([]int{rows}, h.Dims[1:]...)...)
	if err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}
	vlo := append([]int{lo[0] - z0}, lo[1:]...)
	vhi := append([]int{hi[0] - z0}, hi[1:]...)
	return grid.SliceRegion(view, vlo, vhi)
}

// countEscapes counts the escape codes (code 0) in a little-endian code
// stream: the number of raw-pool values its points consume. It reads four
// codes per step: adding 0x7fff to a lane's low 15 bits carries into its top
// bit exactly when they are non-zero and never into the next lane, so OR-ing
// the lane back in leaves one top bit per non-zero code — an exact count, not
// the borrow-prone "has a zero lane" test.
func countEscapes(codeBytes []byte) int {
	const lo15, top = 0x7fff7fff7fff7fff, 0x8000800080008000
	n, i := 0, 0
	for ; i+8 <= len(codeBytes); i += 8 {
		v := binary.LittleEndian.Uint64(codeBytes[i:])
		n += 4 - bits.OnesCount64(((v&lo15)+lo15|v)&top)
	}
	for ; i+1 < len(codeBytes); i += 2 {
		if codeBytes[i] == 0 && codeBytes[i+1] == 0 {
			n++
		}
	}
	return n
}

// lorenzo evaluates the N-dimensional Lorenzo predictor. The predictor is
// the inclusion–exclusion sum over the 2^d-1 neighbors at offset -1 in each
// subset of dimensions:
//
//	pred(x) = Σ_{∅≠S⊆dims} (-1)^(|S|+1) · v(x - Σ_{d∈S} e_d)
//
// which reduces to equations (1) and (2) of the paper in 2D/3D. Neighbors
// outside the grid contribute zero, consistently on both codec sides. The
// classic codec's generic walk steps the coord odometer through row-major
// order with advance; sz2's blockwise walk passes its own coordinate.
type lorenzo struct {
	dims  []int
	coord []int
	// offs[m] is the linear offset of the neighbor for subset mask m+1.
	offs  []int
	signs []float64
}

func newLorenzo(dims []int) *lorenzo {
	l := &lorenzo{dims: dims, coord: make([]int, len(dims))}
	strides := make([]int, len(dims))
	st := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = st
		st *= dims[i]
	}
	nmask := 1 << len(dims)
	for m := 1; m < nmask; m++ {
		off := 0
		for d := 0; d < len(dims); d++ {
			if m&(1<<d) != 0 {
				off += strides[d]
			}
		}
		l.offs = append(l.offs, off)
		if bits.OnesCount(uint(m))%2 == 1 {
			l.signs = append(l.signs, 1)
		} else {
			l.signs = append(l.signs, -1)
		}
	}
	return l
}

// predict computes the Lorenzo prediction at linear index idx, grid
// coordinate coord, from the already-reconstructed values in data.
func (l *lorenzo) predict(data []float32, idx int, coord []int) float64 {
	var pred float64
	nmask := 1 << len(l.dims)
	for m := 1; m < nmask; m++ {
		ok := true
		for d := 0; d < len(l.dims); d++ {
			if m&(1<<d) != 0 && coord[d] == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		pred += l.signs[m-1] * float64(data[idx-l.offs[m-1]])
	}
	return pred
}

// advance steps the internal coordinate odometer to the next row-major index.
func (l *lorenzo) advance() {
	for d := len(l.dims) - 1; d >= 0; d-- {
		l.coord[d]++
		if l.coord[d] < l.dims[d] {
			return
		}
		l.coord[d] = 0
	}
}

// elemCount multiplies dims without allocating (header sanity checks).
func elemCount(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}
