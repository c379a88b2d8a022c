// Package codecs is the roster of built-in codecs: one row per codec, and
// every dispatcher — by name (fxrz.ByName, saved models, the experiment
// harness) or by stream magic (full decode, region decode, indexing, brick
// stores, the roi.Reader tile cache) — is a lookup in Table. Adding a codec,
// or giving an existing one a seekable layout, is one edit here: a seekable
// row carries its region index, its region decode (whose whole-field case is
// the codec's full decode) and the tile it decodes most cheaply alone.
package codecs

import (
	"fmt"
	"strings"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/fpzip"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/mgard"
	"github.com/fxrz-go/fxrz/internal/sz"
	"github.com/fxrz-go/fxrz/internal/zfp"
)

// Codec is one row of the roster.
type Codec struct {
	// Name is the codec's Compressor.Name(), the key saved models and the
	// CLIs resolve it by.
	Name string
	// Magic is the first byte of every stream the codec writes.
	Magic byte
	// New returns a fresh serial instance.
	New func() compress.Compressor
	// BuildRegionIndex and DecompressRegion are the hooks of a codec whose
	// stream layout can be seeked: the index payload an indexed container
	// carries, and the decode of [lo, hi) from the blob plus that index (nil
	// when the blob was never indexed) with at most workers goroutines — a
	// region fans out over its covering slabs or blocks as a full decode does
	// over all of them, and 1 is serial. Both are nil for sequential
	// shared-state streams, which get an empty index and region-decode by
	// full decode + slice.
	BuildRegionIndex func(blob []byte) ([]byte, error)
	DecompressRegion func(blob, index []byte, lo, hi []int, workers int) (*grid.Field, error)
	// RegionTile is the shape of the region a seekable blob decodes most
	// cheaply on its own — zfp's 4^d block, one sz slab — and the cache tile
	// of roi.Reader. A nil hook, or a nil result, means the whole field.
	RegionTile func(blob []byte) []int
}

// Table lists the built-in codecs. The two zfp modes share one magic (the
// mode is recorded in the stream and either instance decodes both); ByMagic
// resolves it to the first row.
var Table = []Codec{
	{"sz", compress.MagicSZ, func() compress.Compressor { return sz.New() }, sz.BuildRegionIndex, sz.DecompressRegion, sz.RegionTile},
	{"sz2", compress.MagicSZ2, func() compress.Compressor { return sz.NewV2() }, nil, nil, nil},
	{"zfp", compress.MagicZFP, func() compress.Compressor { return zfp.New() }, zfp.BuildRegionIndex, zfp.DecompressRegion, zfp.RegionTile},
	{"zfp-rate", compress.MagicZFP, func() compress.Compressor { return zfp.NewFixedRate() }, zfp.BuildRegionIndex, zfp.DecompressRegion, zfp.RegionTile},
	{"fpzip", compress.MagicFPZIP, func() compress.Compressor { return fpzip.New() }, nil, nil, nil},
	{"mgard", compress.MagicMGARD, func() compress.Compressor { return mgard.New() }, nil, nil, nil},
}

// Names returns the codec names in table order.
func Names() []string {
	names := make([]string, len(Table))
	for i, c := range Table {
		names[i] = c.Name
	}
	return names
}

// ByName returns a fresh instance of the named codec.
func ByName(name string) (compress.Compressor, error) {
	for _, c := range Table {
		if c.Name == name {
			return c.New(), nil
		}
	}
	return nil, fmt.Errorf("unknown compressor %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// ByMagic returns the row that decodes streams starting with magic.
func ByMagic(magic byte) (Codec, error) {
	for _, c := range Table {
		if c.Magic == magic {
			return c, nil
		}
	}
	return Codec{}, fmt.Errorf("unrecognised stream (magic 0x%02x)", magic)
}
