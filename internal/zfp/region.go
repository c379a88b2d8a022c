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
	h, payload, err := compress.ParseHeader(blob, compress.MagicZFP)
	if err != nil {
		return nil, fmt.Errorf("zfp: %w", err)
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("zfp: %w: missing mode", compress.ErrCorrupt)
	}
	mode, payload := payload[0], payload[1:]
	if _, err := compress.CheckElems(h.Dims, len(payload)); err != nil {
		return nil, fmt.Errorf("zfp: %w", err)
	}
	out := []byte{mode}
	switch mode {
	case 1:
		out = binary.AppendUvarint(out, 0)
		out = binary.AppendUvarint(out, 0)
	case 0:
		dims := foldDims(h.Dims)
		nd := len(dims)
		bs := 1
		for i := 0; i < nd; i++ {
			bs *= blockSide
		}
		minexp := minExp(h.Knob)
		total := countBlocks(dims)
		stride := offsetStride(total, len(payload))
		count := (total + stride - 1) / stride
		out = binary.AppendUvarint(out, uint64(stride))
		out = binary.AppendUvarint(out, uint64(count))
		r := entropy.NewBitReader(payload)
		bit, prev := 0, 0
		for k := 0; k < total; k++ {
			if k%stride == 0 {
				out = binary.AppendUvarint(out, uint64(bit-prev))
				prev = bit
			}
			bit += skipBlock(r, minexp, 0, nd, bs)
		}
	default:
		return nil, fmt.Errorf("zfp: %w: mode %d", compress.ErrCorrupt, mode)
	}
	return out, nil
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
// skipBlock for the remainder. Blocks must be requested in increasing order;
// after decoding block k in used bits the caller reports it with
// advanced(k, used).
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
	case sk.maxbits > 0:
		sk.skipTo(k, k*sk.maxbits)
	case sk.offs != nil && (sk.r == nil || k/sk.stride*sk.stride > sk.pos):
		// Jump only when it lands ahead of the current position; otherwise
		// skimming forward from here is cheaper.
		p := k / sk.stride
		sk.skipTo(p*sk.stride, sk.offs[p])
	case sk.r == nil:
		sk.skipTo(0, 0)
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

// DecompressRegion decodes only the blocks of blob that intersect the
// half-open region [lo, hi) (original field coordinates) and returns a field
// of shape hi-lo. index may be nil or empty, in which case fixed-accuracy
// streams are skimmed from the start. The decoded samples are bit-identical
// to the corresponding slice of a full Decompress.
func DecompressRegion(blob, index []byte, lo, hi []int) (*grid.Field, error) {
	defer obs.Span("decompress/zfp-region")()
	h, payload, err := compress.ParseHeader(blob, compress.MagicZFP)
	if err != nil {
		return nil, fmt.Errorf("zfp: %w", err)
	}
	if err := grid.CheckRegion(h.Dims, lo, hi); err != nil {
		return nil, fmt.Errorf("zfp: %w", err)
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("zfp: %w: missing mode", compress.ErrCorrupt)
	}
	mode, payload := payload[0], payload[1:]
	if _, err := compress.CheckElems(h.Dims, len(payload)); err != nil {
		return nil, fmt.Errorf("zfp: %w", err)
	}
	var minexp, maxbits int
	switch mode {
	case 0:
		minexp = minExp(h.Knob)
	case 1:
		maxbits = blockBits(h.Knob, foldedNDims(h.Dims))
	default:
		return nil, fmt.Errorf("zfp: %w: mode %d", compress.ErrCorrupt, mode)
	}
	fdims := foldDims(h.Dims)
	nd := len(fdims)
	bs := 1
	for i := 0; i < nd; i++ {
		bs *= blockSide
	}
	perm := perms[nd-1]
	total := countBlocks(fdims)
	stride, offs, err := parseRegionIndex(index, mode, total, len(payload))
	if err != nil {
		return nil, err
	}

	// Map the region onto the folded geometry. For 4D fields the two leading
	// dimensions fold into one, so a box in original coordinates becomes a
	// (conservative) interval along the folded axis; those blocks decode into
	// a full-size folded buffer and the exact box is sliced out afterwards —
	// the folded row-major layout is the original layout, so the slice is a
	// plain subvolume copy. For 1–3D the region maps one-to-one and blocks
	// scatter straight into the region-shaped output.
	flo, fhi := lo, hi
	var folded *grid.Field
	if len(h.Dims) == 4 {
		flo = []int{lo[0]*h.Dims[1] + lo[1], lo[2], lo[3]}
		fhi = []int{(hi[0]-1)*h.Dims[1] + hi[1], hi[2], hi[3]}
		folded, err = grid.New(h.Name, fdims...)
		if err != nil {
			return nil, fmt.Errorf("zfp: %w", err)
		}
	}
	var out *grid.Field
	if folded == nil {
		shape := make([]int, nd)
		for d := range shape {
			shape[d] = hi[d] - lo[d]
		}
		out, err = grid.New(h.Name, shape...)
		if err != nil {
			return nil, fmt.Errorf("zfp: %w", err)
		}
	}

	var bl, bh, nb [3]int
	for d := 0; d < nd; d++ {
		bl[d] = flo[d] / blockSide
		bh[d] = (fhi[d] - 1) / blockSide
		nb[d] = (fdims[d] + blockSide - 1) / blockSide
	}

	sk := &blockSeeker{payload: payload, minexp: minexp, maxbits: maxbits, nd: nd, bs: bs, stride: stride, offs: offs}
	s := getBlockScratch(bs)
	defer putBlockScratch(s)
	origin := make([]int, nd)
	decoded := 0
	bc := bl
	for {
		k := 0
		for d := 0; d < nd; d++ {
			k = k*nb[d] + bc[d]
			origin[d] = bc[d] * blockSide
		}
		r := sk.seek(k)
		sk.advanced(k, decodeBlockVals(r, s, minexp, maxbits, nd, perm))
		if folded != nil {
			scatterClipped(folded, origin, s.vals)
		} else {
			scatterRegion(out, lo, hi, origin, s.vals)
		}
		decoded++
		d := nd - 1
		for d >= 0 {
			bc[d]++
			if bc[d] <= bh[d] {
				break
			}
			bc[d] = bl[d]
			d--
		}
		if d < 0 {
			break
		}
	}
	obs.Inc("zfp/region_decodes")
	obs.Add("zfp/region_blocks", int64(decoded))
	obs.Add("zfp/region_blocks_skipped", int64(total-decoded))

	if folded != nil {
		view, err := grid.FromData(h.Name, folded.Data, h.Dims...)
		if err != nil {
			return nil, fmt.Errorf("zfp: %w", err)
		}
		return grid.SliceRegion(view, lo, hi)
	}
	return out, nil
}

// scatterRegion writes the part of a decoded block that intersects [lo, hi)
// into the region-shaped output field (out.Dims == hi-lo). Mirrors
// scatterClipped with the region box as the clip instead of the field bounds.
func scatterRegion(out *grid.Field, lo, hi, origin []int, buf []float32) {
	nd := len(out.Dims)
	var a, b [3]int
	for d := 0; d < nd; d++ {
		a[d] = origin[d]
		if lo[d] > a[d] {
			a[d] = lo[d]
		}
		b[d] = origin[d] + blockSide
		if hi[d] < b[d] {
			b[d] = hi[d]
		}
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
		for z := a[0]; z < b[0]; z++ {
			for y := a[1]; y < b[1]; y++ {
				row := (z-lo[0])*sz + (y-lo[1])*sy - lo[2]
				brow := (z-origin[0])*blockSide*blockSide + (y-origin[1])*blockSide - origin[2]
				copy(out.Data[row+a[2]:row+b[2]], buf[brow+a[2]:])
			}
		}
	}
}
