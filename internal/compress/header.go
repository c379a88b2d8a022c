package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// Header is the codec-independent stream prefix: a magic byte identifying
// the codec, the field geometry, and the knob the stream was encoded under.
// Codecs append their own payload after it.
type Header struct {
	Magic byte
	Name  string
	Dims  []int
	Knob  float64
}

// Codec magic bytes.
const (
	MagicSZ    byte = 0x5A
	MagicSZ2   byte = 0x5B
	MagicZFP   byte = 0x2F
	MagicFPZIP byte = 0xF2
	MagicMGARD byte = 0x4D
	// MagicIndexed marks the indexed container: a codec blob wrapped together
	// with a region-decode offset index (see internal/roi). The inner blob is
	// byte-identical to what the codec would have written on its own.
	MagicIndexed byte = 0xC1
)

// MaxNameLen is the longest field name a stream stores: its length is one
// byte, so a longer name is cut to its first MaxNameLen bytes.
const MaxNameLen = 255

// AppendHeader serialises h onto dst and returns the extended slice.
func AppendHeader(dst []byte, h Header) []byte {
	name := h.Name[:min(len(h.Name), MaxNameLen)]
	dst = append(dst, h.Magic, byte(len(name)))
	dst = append(dst, name...)
	dst = append(dst, byte(len(h.Dims)))
	for _, d := range h.Dims {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	var kb [8]byte
	binary.LittleEndian.PutUint64(kb[:], math.Float64bits(h.Knob))
	return append(dst, kb[:]...)
}

// ParseHeader decodes a header and returns it with the remaining payload.
func ParseHeader(blob []byte, wantMagic byte) (Header, []byte, error) {
	var h Header
	if len(blob) < 3 {
		return h, nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	h.Magic = blob[0]
	if h.Magic != wantMagic {
		return h, nil, fmt.Errorf("%w: magic 0x%02x, want 0x%02x", ErrCorrupt, h.Magic, wantMagic)
	}
	nameLen := int(blob[1])
	blob = blob[2:]
	if len(blob) < nameLen+1 {
		return h, nil, fmt.Errorf("%w: truncated name", ErrCorrupt)
	}
	h.Name = string(blob[:nameLen])
	blob = blob[nameLen:]
	nd := int(blob[0])
	blob = blob[1:]
	if nd == 0 || nd > grid.MaxDims {
		return h, nil, fmt.Errorf("%w: %d dims", ErrCorrupt, nd)
	}
	h.Dims = make([]int, nd)
	for i := 0; i < nd; i++ {
		d, k := binary.Uvarint(blob)
		if k <= 0 || d == 0 || d > 1<<32 {
			return h, nil, fmt.Errorf("%w: bad dim", ErrCorrupt)
		}
		h.Dims[i] = int(d)
		blob = blob[k:]
	}
	if len(blob) < 8 {
		return h, nil, fmt.Errorf("%w: truncated knob", ErrCorrupt)
	}
	h.Knob = math.Float64frombits(binary.LittleEndian.Uint64(blob[:8]))
	return h, blob[8:], nil
}
