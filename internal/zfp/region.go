package zfp

// Region-of-interest decode: decode only the 4^d blocks that intersect a
// requested subvolume, seeking over the ones that don't.
//
// In fixed-rate mode every block occupies exactly maxbits bits, so block k
// starts at bit k*maxbits and seeking is pure arithmetic — no index is
// needed. In fixed-accuracy mode block sizes are data-dependent; the region
// index persists the bit offset of every stride-th block (varint
// delta-encoded), turning a seek into one NewBitReaderAt jump plus at most
// stride-1 skipBlock replays. Without an index the decoder falls back to the
// same skipBlock skim the parallel decoder uses, starting from bit 0 — still
// correct, just O(stream) instead of O(region).

import (
	"encoding/binary"
	"fmt"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// indexBytesPerOffset is the sizing estimate for one varint delta: block
// payloads are a few hundred bits at typical tolerances, so deltas fit in
// two to three bytes.
const indexBytesPerOffset = 3

// offsetStride picks how many blocks one persisted offset covers so the
// index stays well under 1% of the payload (target ≈0.4%, floor 64 bytes so
// small blobs still get a useful index).
func offsetStride(total, payloadBytes int) int {
	budget := payloadBytes / 256
	if budget < 64 {
		budget = 64
	}
	maxEntries := budget / indexBytesPerOffset
	if maxEntries < 1 {
		maxEntries = 1
	}
	s := (total + maxEntries - 1) / maxEntries
	if s < 1 {
		s = 1
	}
	return s
}

// BuildRegionIndex skims a zfp blob and returns its region index payload:
//
//	byte    mode (must match the blob's mode byte)
//	uvarint stride (0 = no offset table; fixed-rate offsets are arithmetic)
//	uvarint count  (number of offsets; ceil(blocks/stride))
//	count × uvarint delta-encoded bit offsets of blocks 0, stride, 2·stride, …
//
// The skim reuses skipBlock, so the offsets are exactly the positions the
// decoder's own bit consumption produces.
func BuildRegionIndex(blob []byte) ([]byte, error) {
	h, mode, sk, err := openStream(blob)
	if err != nil {
		return nil, err
	}
	out := []byte{mode}
	if mode == 1 {
		out = binary.AppendUvarint(out, 0)
		return binary.AppendUvarint(out, 0), nil
	}
	total := countBlocks(foldDims(h.Dims))
	stride := offsetStride(total, len(sk.payload))
	count := (total + stride - 1) / stride
	out = binary.AppendUvarint(out, uint64(stride))
	out = binary.AppendUvarint(out, uint64(count))
	prev := 0
	for p := 0; p < count; p++ {
		sk.seek(p * stride)
		out = binary.AppendUvarint(out, uint64(sk.bit-prev))
		prev = sk.bit
	}
	return out, nil
}

// openStream parses a zfp blob's header and mode byte and returns a seeker
// over its block payload, with no offset table yet.
func openStream(blob []byte) (compress.Header, byte, *blockSeeker, error) {
	h, payload, err := compress.ParseHeader(blob, compress.MagicZFP)
	if err != nil {
		return h, 0, nil, fmt.Errorf("zfp: %w", err)
	}
	if len(payload) < 1 {
		return h, 0, nil, fmt.Errorf("zfp: %w: missing mode", compress.ErrCorrupt)
	}
	mode, payload := payload[0], payload[1:]
	if _, err := compress.CheckElems(h.Dims, len(payload)); err != nil {
		return h, 0, nil, fmt.Errorf("zfp: %w", err)
	}
	nd := foldedNDims(h.Dims)
	sk := &blockSeeker{payload: payload, nd: nd, bs: 1 << (2 * nd)}
	switch mode {
	case 0:
		sk.minexp = minExp(h.Knob)
	case 1:
		sk.maxbits = blockBits(h.Knob, nd)
	default:
		return h, 0, nil, fmt.Errorf("zfp: %w: mode %d", compress.ErrCorrupt, mode)
	}
	return h, mode, sk, nil
}

// parseRegionIndex validates an index payload against the blob it claims to
// describe and returns the offset table (nil when the index carries none).
func parseRegionIndex(index []byte, mode byte, total, payloadBytes int) (stride int, offs []int, err error) {
	if len(index) == 0 {
		return 0, nil, nil
	}
	if index[0] != mode {
		return 0, nil, fmt.Errorf("zfp: %w: index mode mismatch", compress.ErrCorrupt)
	}
	rest := index[1:]
	s, k := binary.Uvarint(rest)
	if k <= 0 {
		return 0, nil, fmt.Errorf("zfp: %w: index stride", compress.ErrCorrupt)
	}
	rest = rest[k:]
	count, k := binary.Uvarint(rest)
	if k <= 0 {
		return 0, nil, fmt.Errorf("zfp: %w: index count", compress.ErrCorrupt)
	}
	rest = rest[k:]
	if s == 0 {
		if count != 0 || len(rest) != 0 {
			return 0, nil, fmt.Errorf("zfp: %w: index trailer", compress.ErrCorrupt)
		}
		return 0, nil, nil
	}
	want := uint64((total + int(s) - 1) / int(s))
	if count != want {
		return 0, nil, fmt.Errorf("zfp: %w: index has %d offsets, want %d", compress.ErrCorrupt, count, want)
	}
	offs = make([]int, count)
	bit := 0
	maxBit := 8 * payloadBytes
	for i := range offs {
		d, k := binary.Uvarint(rest)
		if k <= 0 {
			return 0, nil, fmt.Errorf("zfp: %w: index offset %d", compress.ErrCorrupt, i)
		}
		rest = rest[k:]
		bit += int(d)
		if bit < 0 || bit > maxBit {
			return 0, nil, fmt.Errorf("zfp: %w: index offset %d out of range", compress.ErrCorrupt, i)
		}
		offs[i] = bit
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("zfp: %w: index trailer", compress.ErrCorrupt)
	}
	return int(s), offs, nil
}

// blockSeeker positions one bit reader at the start of successive blocks,
// jumping via the offset table (or fixed-rate arithmetic) and replaying
// skipBlock for the remainder; a block it is already at costs one compare.
// Blocks must be requested in increasing order; after decoding block k in
// used bits the caller reports it with advanced(k, used).
type blockSeeker struct {
	payload                 []byte
	minexp, maxbits, nd, bs int
	stride                  int
	offs                    []int
	r                       *entropy.BitReader
	pos, bit                int // block r is positioned at, and its bit offset
}

func (sk *blockSeeker) seek(k int) *entropy.BitReader {
	switch {
	case sk.r != nil && sk.pos == k:
		return sk.r
	case sk.maxbits > 0:
		sk.skipTo(k, k*sk.maxbits)
	case sk.offs != nil && (sk.r == nil || k/sk.stride*sk.stride > sk.pos):
		// Jump only when it lands ahead of the current position; otherwise
		// skimming forward from here is cheaper.
		p := k / sk.stride
		sk.skipTo(p*sk.stride, sk.offs[p])
	case sk.r == nil:
		sk.r = entropy.NewBitReader(sk.payload) // a fresh seeker is at block 0
	}
	for sk.pos < k {
		sk.bit += skipBlock(sk.r, sk.minexp, 0, sk.nd, sk.bs)
		sk.pos++
	}
	return sk.r
}

// skipTo moves the reader to block k at the given bit offset: forward by
// consuming the bits in between, backward (only a corrupt index asks for
// that) with a new reader.
func (sk *blockSeeker) skipTo(k, bit int) {
	if sk.r == nil || bit < sk.bit {
		sk.r = entropy.NewBitReaderAt(sk.payload, bit)
	} else {
		sk.r.Consume(uint(bit - sk.bit))
	}
	sk.pos, sk.bit = k, bit
}

func (sk *blockSeeker) advanced(k, used int) { sk.pos, sk.bit = k+1, sk.bit+used }

// fork returns a seeker over the same stream with a reader of its own,
// starting at sk's current block and bit.
func (sk *blockSeeker) fork() *blockSeeker {
	c := *sk
	c.r = entropy.NewBitReaderAt(sk.payload, sk.bit)
	return &c
}

// RegionTile reports the region a zfp blob decodes most cheaply on its own:
// one 4^d block, for fields up to 3-D. A 4-D field decodes through its folded
// buffer and a blob that does not parse has no tile; both return nil.
func RegionTile(blob []byte) []int {
	h, _, err := compress.ParseHeader(blob, compress.MagicZFP)
	if err != nil || len(h.Dims) > 3 {
		return nil
	}
	tile := make([]int, len(h.Dims))
	for d := range tile {
		tile[d] = blockSide
	}
	return tile
}

// DecompressRegion decodes only the blocks of blob that intersect the
// half-open region [lo, hi) (original field coordinates) and returns a field
// of shape hi-lo. index may be nil or empty, in which case fixed-accuracy
// streams are skimmed from the start. workers bounds the fan-out exactly as
// in a full decode: a covering box of zfpParMinBlocks blocks or more splits
// into chunks that decode concurrently. The decoded samples are bit-identical
// to the corresponding slice of a full Decompress at every width.
func DecompressRegion(blob, index []byte, lo, hi []int, workers int) (*grid.Field, error) {
	defer obs.Span("decompress/zfp-region")()
	return decode(blob, index, lo, hi, workers)
}

// decode is the one zfp decode: the region [lo, hi) of blob, or the whole
// field when lo is nil, decoded by decodeBox over the blocks covering it.
//
// For 1–3D regions the box maps one-to-one and blocks scatter straight into
// the region-shaped result. For 4D fields the two leading dimensions fold
// into one, so a box in original coordinates becomes a (conservative)
// interval along the folded axis; those blocks decode into a full-size folded
// buffer and the exact box is sliced out afterwards — the folded row-major
// layout is the original layout, so the slice is a plain subvolume copy. A
// full decode is the box of every block, decoded into the field itself.
func decode(blob, index []byte, lo, hi []int, workers int) (*grid.Field, error) {
	h, mode, sk, err := openStream(blob)
	if err != nil {
		return nil, err
	}
	full := lo == nil
	if full {
		lo, hi = make([]int, len(h.Dims)), h.Dims
	} else if err := grid.CheckRegion(h.Dims, lo, hi); err != nil {
		return nil, fmt.Errorf("zfp: %w", err)
	}
	fdims := foldDims(h.Dims)
	total := countBlocks(fdims)
	if sk.stride, sk.offs, err = parseRegionIndex(index, mode, total, len(sk.payload)); err != nil {
		return nil, err
	}
	flo, fhi := lo, hi
	if len(h.Dims) == 4 {
		flo = []int{lo[0]*h.Dims[1] + lo[1], lo[2], lo[3]}
		fhi = []int{(hi[0]-1)*h.Dims[1] + hi[1], hi[2], hi[3]}
	}
	var bl, bh [3]int
	for d := range fdims {
		bl[d] = flo[d] / blockSide
		bh[d] = (fhi[d] - 1) / blockSide
	}

	var res, dst *grid.Field
	olo := flo
	if full || len(h.Dims) == 4 {
		if res, err = grid.New(h.Name, h.Dims...); err != nil {
			return nil, fmt.Errorf("zfp: %w", err)
		}
		if dst, err = grid.FromData(h.Name, res.Data, fdims...); err != nil {
			return nil, fmt.Errorf("zfp: fold: %w", err)
		}
		olo = make([]int, len(fdims))
	} else {
		shape := make([]int, len(hi))
		for d := range shape {
			shape[d] = hi[d] - lo[d]
		}
		if res, err = grid.New(h.Name, shape...); err != nil {
			return nil, fmt.Errorf("zfp: %w", err)
		}
		dst = res
	}
	decoded := decodeBox(dst, olo, fdims, sk, bl, bh, workers)
	if full {
		return res, nil
	}
	obs.Inc("zfp/region_decodes")
	obs.Add("zfp/region_blocks", int64(decoded))
	obs.Add("zfp/region_blocks_skipped", int64(total-decoded))
	if len(h.Dims) == 4 {
		return grid.SliceRegion(res, lo, hi)
	}
	return res, nil
}

// decodeBox is the one zfp decode walk. It decodes the inclusive block box
// [bl, bh] of a stream whose folded dims are dims, positioning each block
// with sk, and clips every block to out, which holds the samples
// [olo, olo+out.Dims) of the folded field. With workers > 1 and enough blocks
// (chunkCount) the box splits into contiguous chunks: a serial pass of sk
// finds each chunk's first block and bit — jumping through the index's
// offsets when the stream has them — and each chunk decodes from its own fork
// of the seeker there exactly as the serial walk would. Blocks scatter to
// disjoint samples, so no two workers touch the same output element. A full
// decode and a region decode fan out alike: the box is every block, or the
// blocks covering the region. It returns the number of blocks decoded.
func decodeBox(out *grid.Field, olo, dims []int, sk *blockSeeker, bl, bh [3]int, workers int) int {
	nd := len(dims)
	var ohi [3]int
	nbox := 1
	for d := 0; d < nd; d++ {
		ohi[d] = olo[d] + out.Dims[d]
		nbox *= bh[d] - bl[d] + 1
	}
	nchunks, per := chunkCount(nbox, workers, "zfp/par_decodes")
	var starts []blockSeeker
	if nchunks > 1 {
		stop := obs.Span("zfp/offset_scan")
		starts = make([]blockSeeker, nchunks)
		for ci := range starts {
			wk := walkBox(dims, bl, bh, ci*per)
			sk.seek(wk.index())
			starts[ci] = *sk
		}
		stop()
	}
	perm := perms[nd-1]
	pool.Run(workers, nchunks, func(ci int) {
		sk := sk
		if starts != nil {
			// The worker makes its chunk's reader itself: readers made back to
			// back by the scan would share cache lines across workers.
			sk = starts[ci].fork()
		}
		s := getBlockScratch(sk.bs)
		wk := walkBox(dims, bl, bh, ci*per)
		var o [3]int
		for n := min(per, nbox-ci*per); n > 0; n-- {
			k := wk.index()
			r := sk.seek(k)
			sk.advanced(k, decodeBlockVals(r, s, sk.minexp, sk.maxbits, nd, perm))
			scatterRegion(out, olo, ohi[:nd], wk.origin(o[:nd]), s.vals)
			wk.next()
		}
		putBlockScratch(s)
	})
	return nbox
}

// scatterRegion writes the part of a decoded block that intersects [lo, hi)
// into out, which holds exactly the samples [lo, hi) (out.Dims == hi-lo). A
// 3-D block wholly inside is 16 four-sample row copies.
func scatterRegion(out *grid.Field, lo, hi, origin []int, buf []float32) {
	nd := len(out.Dims)
	var a, b [3]int
	inside := true
	for d := 0; d < nd; d++ {
		a[d] = max(origin[d], lo[d])
		b[d] = min(origin[d]+blockSide, hi[d])
		inside = inside && a[d] == origin[d] && b[d] == origin[d]+blockSide
	}
	switch nd {
	case 1:
		copy(out.Data[a[0]-lo[0]:b[0]-lo[0]], buf[a[0]-origin[0]:])
	case 2:
		sy := out.Dims[1]
		for y := a[0]; y < b[0]; y++ {
			row := (y-lo[0])*sy - lo[1]
			brow := (y-origin[0])*blockSide - origin[1]
			copy(out.Data[row+a[1]:row+b[1]], buf[brow+a[1]:])
		}
	default:
		sy, sz := out.Dims[2], out.Dims[1]*out.Dims[2]
		if inside {
			base := (origin[0]-lo[0])*sz + (origin[1]-lo[1])*sy + origin[2] - lo[2]
			blk := (*[64]float32)(buf)
			for z := 0; z < 4; z++ {
				for y := 0; y < 4; y++ {
					*(*[4]float32)(out.Data[base+z*sz+y*sy:]) = *(*[4]float32)(blk[16*z+4*y:])
				}
			}
			return
		}
		for z := a[0]; z < b[0]; z++ {
			for y := a[1]; y < b[1]; y++ {
				row := (z-lo[0])*sz + (y-lo[1])*sy - lo[2]
				brow := (z-origin[0])*blockSide*blockSide + (y-origin[1])*blockSide - origin[2]
				copy(out.Data[row+a[2]:row+b[2]], buf[brow+a[2]:])
			}
		}
	}
}
