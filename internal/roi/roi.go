// Package roi implements region-of-interest partial decode on top of the
// codec streams: an indexed container format that carries a codec blob
// together with the per-block/per-tile offset index its codec needs to seek,
// and a DecodeRegion dispatcher that decodes only the part of a stream
// intersecting a requested subvolume.
//
// # Container format
//
//	byte    magic (compress.MagicIndexed, 0xC1)
//	byte    version (1)
//	uvarint inner length
//	inner   — the codec blob, byte-identical to what the codec wrote
//	uvarint index length
//	index   — codec-specific (see zfp.BuildRegionIndex, sz.BuildRegionIndex);
//	          empty for codecs that region-decode by full decode + slice
//	u32le   CRC-32C over inner then index
//
// Because the inner blob is untouched, full-field decode of an indexed
// container is exactly the pre-existing decode path, and blobs written
// before the index existed (raw codec magic) keep decoding unchanged. The
// checksum binds the index to the stream it was built from: the index is
// derived data the codecs trust for seeking (zfp block offsets, sz raw-pool
// cursors), so a container whose index no longer matches its inner blob must
// fail loudly rather than decode regions that silently diverge from the full
// decode.
package roi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"github.com/fxrz-go/fxrz/internal/brick"
	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// Version is the indexed-container format version.
const Version = 1

// castagnoli is the CRC-32C table for the container checksum (hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IsIndexed reports whether blob is an indexed container.
func IsIndexed(blob []byte) bool {
	return len(blob) >= 2 && blob[0] == compress.MagicIndexed
}

// Wrap frames an inner codec blob and its index payload as an indexed
// container.
func Wrap(inner, index []byte) []byte {
	out := make([]byte, 0, 2+binary.MaxVarintLen64*2+len(inner)+len(index)+4)
	out = append(out, compress.MagicIndexed, Version)
	out = binary.AppendUvarint(out, uint64(len(inner)))
	out = append(out, inner...)
	out = binary.AppendUvarint(out, uint64(len(index)))
	out = append(out, index...)
	sum := crc32.Update(crc32.Checksum(inner, castagnoli), castagnoli, index)
	return binary.LittleEndian.AppendUint32(out, sum)
}

// Unwrap splits an indexed container into the inner codec blob and the index
// payload.
func Unwrap(blob []byte) (inner, index []byte, err error) {
	if len(blob) < 2 || blob[0] != compress.MagicIndexed {
		return nil, nil, fmt.Errorf("roi: %w: not an indexed container", compress.ErrCorrupt)
	}
	if blob[1] != Version {
		return nil, nil, fmt.Errorf("roi: %w: container version %d, want %d", compress.ErrCorrupt, blob[1], Version)
	}
	rest := blob[2:]
	n, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) < n || n == 0 {
		return nil, nil, fmt.Errorf("roi: %w: inner length", compress.ErrCorrupt)
	}
	inner = rest[k : k+int(n) : k+int(n)]
	rest = rest[k+int(n):]
	m, k := binary.Uvarint(rest)
	if k <= 0 || len(rest)-k < 4 || uint64(len(rest)-k-4) != m {
		return nil, nil, fmt.Errorf("roi: %w: index length", compress.ErrCorrupt)
	}
	index = rest[k : k+int(m) : k+int(m)]
	want := binary.LittleEndian.Uint32(rest[k+int(m):])
	if got := crc32.Update(crc32.Checksum(inner, castagnoli), castagnoli, index); got != want {
		return nil, nil, fmt.Errorf("roi: %w: container checksum mismatch", compress.ErrCorrupt)
	}
	return inner, index, nil
}

// Build wraps a codec blob into an indexed container, constructing the
// codec's region index (one full skim/decode). Codecs without a seekable
// layout get an empty index — DecodeRegion then falls back to full decode +
// slice for them. Building is idempotent: an already-indexed container is
// returned unchanged.
func Build(blob []byte) ([]byte, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("roi: empty stream")
	}
	if IsIndexed(blob) {
		return blob, nil
	}
	defer obs.Span("roi/build_index")()
	c, err := codecs.ByMagic(blob[0])
	if err != nil {
		return nil, fmt.Errorf("roi: %w", err)
	}
	var index []byte
	if c.BuildRegionIndex != nil {
		if index, err = c.BuildRegionIndex(blob); err != nil {
			return nil, err
		}
	}
	return Wrap(blob, index), nil
}

// DecodeRegion decodes the half-open region [lo, hi) of any supported
// container: an indexed container, a raw codec blob (no-index fallback
// paths), or a marshaled brick store. workers bounds the fan-out with
// pool.Workers semantics (0 = all cores): the whole field and codecs without
// a seekable layout fan out as a full decode, and the seeking paths fan out
// over what the region covers — sz its chunked slabs, zfp its block box.
// Output samples are bit-identical to the corresponding slice of a full
// decode at any worker count.
func DecodeRegion(blob []byte, lo, hi []int, workers int) (*grid.Field, error) {
	src, err := open(blob)
	if err != nil {
		return nil, err
	}
	return src.region(lo, hi, workers)
}

// source is an opened container: a brick store, or a codec row with its
// inner blob, region index (nil when never indexed) and field dims.
type source struct {
	store        *brick.Store
	codec        codecs.Codec
	inner, index []byte
	dims         []int
}

// open parses an indexed container, a raw codec blob or a marshaled brick
// store without decoding any samples.
func open(blob []byte) (*source, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("roi: empty stream")
	}
	if brick.IsStore(blob) {
		st, err := brick.UnmarshalAuto(blob)
		if err != nil {
			return nil, err
		}
		return &source{store: st, dims: st.Dims()}, nil
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
	c, err := codecs.ByMagic(inner[0])
	if err != nil {
		return nil, fmt.Errorf("roi: %w", err)
	}
	h, _, err := compress.ParseHeader(inner, inner[0])
	if err != nil {
		return nil, fmt.Errorf("roi: %w", err)
	}
	return &source{codec: c, inner: inner, index: index, dims: h.Dims}, nil
}

// region decodes [lo, hi) of the source over workers. The whole field is the
// codec's full decode itself; a smaller region goes through the codec's
// region decode when it has one. Codecs without a seekable layout
// (sz2's per-block predictor selection shares sequential reconstruction
// state; fpzip and mgard are whole-stream transforms) full-decode and slice.
func (s *source) region(lo, hi []int, workers int) (*grid.Field, error) {
	if err := grid.CheckRegion(s.dims, lo, hi); err != nil {
		return nil, fmt.Errorf("roi: %w", err)
	}
	if s.store != nil {
		shape := make([]int, len(lo))
		for d := range shape {
			shape[d] = hi[d] - lo[d]
		}
		return s.store.ReadRegion(lo, shape)
	}
	whole := true
	for d := range s.dims {
		whole = whole && lo[d] == 0 && hi[d] == s.dims[d]
	}
	if !whole && s.codec.DecompressRegion != nil {
		return s.codec.DecompressRegion(s.inner, s.index, lo, hi, pool.Workers(workers))
	}
	f, err := compress.WithWorkers(s.codec.New(), workers).Decompress(s.inner)
	if err != nil || whole {
		return f, err
	}
	out, err := grid.SliceRegion(f, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("roi: %w", err)
	}
	return out, nil
}

// ParseRegion parses the textual region syntax shared by `fxrz unpack
// -region` and the serve layer's region parameter: comma-separated
// half-open per-dimension ranges "lo0:hi0,lo1:hi1,...", slowest dimension
// first, e.g. "0:64,128:192,32:48".
func ParseRegion(s string) (lo, hi []int, err error) {
	parts := strings.Split(s, ",")
	if len(parts) == 0 || len(parts) > grid.MaxDims {
		return nil, nil, fmt.Errorf("roi: region %q must have 1..%d ranges", s, grid.MaxDims)
	}
	for _, p := range parts {
		a, b, ok := strings.Cut(strings.TrimSpace(p), ":")
		if !ok {
			return nil, nil, fmt.Errorf("roi: range %q is not of the form lo:hi", p)
		}
		l, err := strconv.Atoi(strings.TrimSpace(a))
		if err != nil {
			return nil, nil, fmt.Errorf("roi: range %q: bad lower bound: %v", p, err)
		}
		h, err := strconv.Atoi(strings.TrimSpace(b))
		if err != nil {
			return nil, nil, fmt.Errorf("roi: range %q: bad upper bound: %v", p, err)
		}
		if l < 0 || h <= l {
			return nil, nil, fmt.Errorf("roi: range %q: need 0 <= lo < hi", p)
		}
		lo = append(lo, l)
		hi = append(hi, h)
	}
	return lo, hi, nil
}

// FormatRegion renders lo/hi in ParseRegion's syntax.
func FormatRegion(lo, hi []int) string {
	var b strings.Builder
	for d := range lo {
		if d > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", lo[d], hi[d])
	}
	return b.String()
}
