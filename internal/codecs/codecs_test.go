package codecs

import (
	"math"
	"slices"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

func TestCodecTable(t *testing.T) {
	f := grid.MustNew("codecs-test", 9, 10, 11)
	for i := range f.Data {
		f.Data[i] = float32(math.Sin(float64(i)*0.05) + 0.01*float64(i%17))
	}
	lo, hi := []int{2, 0, 3}, []int{7, 10, 9}

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

		c, err := ByName(row.Name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != row.Name || row.New().Name() != row.Name {
			t.Errorf("%s: New().Name() = %q, ByName = %q", row.Name, row.New().Name(), c.Name())
		}
		blob, err := c.Compress(f, c.Axis().Span(3)[1]) // the middle of the knob domain
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
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
			t.Fatalf("%s: ByMagic row %s cannot decode it: %v", row.Name, dec.Name, err)
		}
		if !slices.Equal(full.Dims, f.Dims) {
			t.Fatalf("%s: decoded dims %v", row.Name, full.Dims)
		}
		if row.DecompressRegion == nil {
			continue
		}
		want, err := grid.SliceRegion(full, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		index, err := row.BuildRegionIndex(blob)
		if err != nil {
			t.Fatalf("%s: index: %v", row.Name, err)
		}
		for _, ix := range [][]byte{nil, index} {
			got, err := row.DecompressRegion(blob, ix, lo, hi)
			if err != nil {
				t.Fatalf("%s: region (index %d bytes): %v", row.Name, len(ix), err)
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s: region sample %d differs from the full decode (index %d bytes)", row.Name, i, len(ix))
				}
			}
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
