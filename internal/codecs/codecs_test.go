package codecs

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// tableShapes are the fields every row round-trips: a one-slab field and a
// 20×64×128 one that sz cuts into three slabs (8, 8 and 4 rows). Each comes
// with the regions the seekable rows decode: an interior box, the whole
// field, and one that ends mid-slab and mid-block.
var tableShapes = []struct {
	dims    []int
	regions [][2][]int
}{
	{[]int{9, 10, 11}, [][2][]int{
		{{2, 0, 3}, {7, 10, 9}},
		{{0, 0, 0}, {9, 10, 11}},
		{{1, 2, 1}, {6, 7, 9}},
	}},
	{[]int{20, 64, 128}, [][2][]int{
		{{2, 0, 3}, {7, 10, 9}},
		{{0, 0, 0}, {20, 64, 128}},
		{{5, 3, 7}, {13, 30, 70}},
	}},
}

func TestCodecTable(t *testing.T) {
	names := map[string]bool{}
	magics := map[byte]string{}
	for _, row := range Table {
		if names[row.Name] {
			t.Errorf("name %q appears twice", row.Name)
		}
		names[row.Name] = true
		// The two zfp modes write one stream format; nothing else shares a magic.
		if prev, dup := magics[row.Magic]; dup && !(prev == "zfp" && row.Name == "zfp-rate") {
			t.Errorf("magic 0x%02x shared by %s and %s", row.Magic, prev, row.Name)
		}
		magics[row.Magic] = row.Name
		if (row.BuildRegionIndex == nil) != (row.DecompressRegion == nil) {
			t.Errorf("%s: region hooks must come as a pair", row.Name)
		}
		if row.RegionTile != nil && row.DecompressRegion == nil {
			t.Errorf("%s: a region tile needs a region decode", row.Name)
		}

		c, err := ByName(row.Name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != row.Name || row.New().Name() != row.Name {
			t.Errorf("%s: New().Name() = %q, ByName = %q", row.Name, row.New().Name(), c.Name())
		}
		for _, shape := range tableShapes {
			f := grid.MustNew("codecs-test", shape.dims...)
			for i := range f.Data {
				f.Data[i] = float32(math.Sin(float64(i)*0.05) + 0.01*float64(i%17))
			}
			blob, err := c.Compress(f, c.Axis().Span(3)[1]) // the middle of the knob domain
			if err != nil {
				t.Fatalf("%s %v: %v", row.Name, shape.dims, err)
			}
			if blob[0] != row.Magic {
				t.Errorf("%s: stream starts 0x%02x, row says 0x%02x", row.Name, blob[0], row.Magic)
			}
			dec, err := ByMagic(blob[0])
			if err != nil {
				t.Fatal(err)
			}
			full, err := dec.New().Decompress(blob)
			if err != nil {
				t.Fatalf("%s %v: ByMagic row %s cannot decode it: %v", row.Name, shape.dims, dec.Name, err)
			}
			if !slices.Equal(full.Dims, f.Dims) {
				t.Fatalf("%s: decoded dims %v", row.Name, full.Dims)
			}
			if row.DecompressRegion == nil {
				continue
			}
			index, err := row.BuildRegionIndex(blob)
			if err != nil {
				t.Fatalf("%s %v: index: %v", row.Name, shape.dims, err)
			}
			for _, ix := range [][]byte{nil, index} {
				for _, r := range shape.regions {
					checkRegion(t, row, blob, ix, full, r[0], r[1])
				}
			}
			if row.RegionTile == nil {
				continue
			}
			// The tile divides the field into regions that each decode alone.
			tile := row.RegionTile(blob)
			if tile == nil {
				tile = f.Dims
			}
			if len(tile) != len(f.Dims) {
				t.Fatalf("%s %v: tile %v", row.Name, shape.dims, tile)
			}
			grid.VisitOrigins(tileGrid(f.Dims, tile), 1, func(tc []int) {
				lo, hi := make([]int, len(tc)), make([]int, len(tc))
				for d := range tc {
					lo[d] = tc[d] * tile[d]
					hi[d] = min(lo[d]+tile[d], f.Dims[d])
				}
				checkRegion(t, row, blob, index, full, lo, hi)
			})
		}
	}
	if len(Names()) != len(Table) {
		t.Errorf("Names() = %v", Names())
	}
	if _, err := ByName("gzip"); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := ByMagic(0x99); err == nil {
		t.Error("unknown magic accepted")
	}
}

// TestLongNamesRoundTrip pins that a field name too long for the stream's
// one-byte length is cut to compress.MaxNameLen bytes rather than wrapping
// the length and corrupting the header: every row decodes names of 255, 256
// and 300 bytes.
func TestLongNamesRoundTrip(t *testing.T) {
	for _, row := range Table {
		for _, n := range []int{255, 256, 300} {
			f := grid.MustNew(strings.Repeat("a", n), 6, 7, 9)
			for i := range f.Data {
				f.Data[i] = float32(math.Sin(float64(i) * 0.05))
			}
			c := row.New()
			blob, err := c.Compress(f, c.Axis().Span(3)[1])
			if err != nil {
				t.Fatalf("%s name %d bytes: %v", row.Name, n, err)
			}
			got, err := c.Decompress(blob)
			if err != nil {
				t.Fatalf("%s name %d bytes: %v", row.Name, n, err)
			}
			if got.Name != f.Name[:compress.MaxNameLen] || !slices.Equal(got.Dims, f.Dims) {
				t.Errorf("%s name %d bytes: decoded a %d-byte name, dims %v", row.Name, n, len(got.Name), got.Dims)
			}
		}
	}
}

// checkRegion decodes [lo, hi) through the row's region hook, serially and
// at width 2, and holds it bit for bit to the slice of the full decode.
func checkRegion(t *testing.T, row Codec, blob, index []byte, full *grid.Field, lo, hi []int) {
	t.Helper()
	want, err := grid.SliceRegion(full, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		got, err := row.DecompressRegion(blob, index, lo, hi, w)
		if err != nil {
			t.Fatalf("%s %v: region %v–%v w=%d (index %d bytes): %v", row.Name, full.Dims, lo, hi, w, len(index), err)
		}
		if !slices.Equal(got.Dims, want.Dims) {
			t.Fatalf("%s %v: region %v–%v w=%d has dims %v", row.Name, full.Dims, lo, hi, w, got.Dims)
		}
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s %v: region %v–%v w=%d sample %d differs from the full decode (index %d bytes)", row.Name, full.Dims, lo, hi, w, i, len(index))
			}
		}
	}
}

// tileGrid is the number of tiles along each dimension of dims.
func tileGrid(dims, tile []int) []int {
	n := make([]int, len(dims))
	for d := range dims {
		n[d] = (dims[d] + tile[d] - 1) / tile[d]
	}
	return n
}

// TestSpanParity pins that a full decode and a region decode are one walk
// each, not one inside the other: at widths 1 and 2, Decompress records
// exactly one decompress/* span and DecompressRegion exactly one
// decompress/*-region span (bench's compress.time_frac sums them). And a
// one-chunk zfp walk is no fan-out: zfp/par_encodes and zfp/par_decodes read
// 0 at width 1 and on a field under the fan-out gate, and 1 per call at width
// 2 on 32³ — for the region hook too, whose region there covers 512 blocks
// (4 on 8×8×4).
func TestSpanParity(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, name := range []string{"sz", "zfp", "zfp-rate"} {
		row := Table[slices.IndexFunc(Table, func(c Codec) bool { return c.Name == name })]
		for _, w := range []int{1, 2} {
			for _, dims := range [][]int{{32, 32, 32}, {8, 8, 4}} { // 512 zfp blocks; 4
				f := grid.MustNew("parity", dims...)
				for i := range f.Data {
					f.Data[i] = float32(math.Cos(float64(i) * 0.01))
				}
				c := compress.WithWorkers(row.New(), w)
				fanout := int64(0)
				if strings.HasPrefix(name, "zfp") && w == 2 && dims[0] == 32 {
					fanout = 1
				}
				obs.Reset()
				blob, err := c.Compress(f, c.Axis().Span(3)[1])
				if err != nil {
					t.Fatal(err)
				}
				if got := obs.TakeSnapshot().Counters["zfp/par_encodes"]; got != fanout {
					t.Errorf("%s w=%d %v: zfp/par_encodes = %d, want %d", name, w, dims, got, fanout)
				}
				obs.Reset()
				if _, err := c.Decompress(blob); err != nil {
					t.Fatal(err)
				}
				snap := obs.TakeSnapshot()
				checkOneDecodeSpan(t, snap, "decompress/"+strings.TrimSuffix(name, "-rate"), name, w, dims)
				if got := snap.Counters["zfp/par_decodes"]; got != fanout {
					t.Errorf("%s w=%d %v: zfp/par_decodes = %d, want %d", name, w, dims, got, fanout)
				}
				obs.Reset()
				lo, hi := []int{1, 1, 1}, []int{dims[0] - 1, dims[1] - 1, dims[2] - 1}
				if _, err := row.DecompressRegion(blob, nil, lo, hi, w); err != nil {
					t.Fatal(err)
				}
				snap = obs.TakeSnapshot()
				checkOneDecodeSpan(t, snap, "decompress/"+strings.TrimSuffix(name, "-rate")+"-region", name, w, dims)
				if got := snap.Counters["zfp/par_decodes"]; got != fanout {
					t.Errorf("%s w=%d %v: region zfp/par_decodes = %d, want %d", name, w, dims, got, fanout)
				}
			}
		}
	}
}

// checkOneDecodeSpan fails unless want is the only decompress/* span in snap
// and it was recorded once.
func checkOneDecodeSpan(t *testing.T, snap *obs.Snapshot, want, name string, w int, dims []int) {
	t.Helper()
	for span, st := range snap.Spans {
		if strings.HasPrefix(span, "decompress/") && (span != want || st.Count != 1) {
			t.Errorf("%s w=%d %v: span %s recorded %d times, want only %s once", name, w, dims, span, st.Count, want)
		}
	}
	if snap.Spans[want].Count != 1 {
		t.Errorf("%s w=%d %v: span %s recorded %d times, want 1", name, w, dims, want, snap.Spans[want].Count)
	}
}
