package fxrz_test

import (
	"fmt"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/datagen"
)

// BenchmarkRegionDecode measures what the region index buys: decoding a
// centered 32³ subvolume (1/8 of the volume) out of an indexed 64³ stream
// versus what a caller without region decode pays for the same samples — a
// full Decompress of the same stream, not a whole-field region request, which
// would put the region path on both sides of the ratio. The full/eighth pair
// is measured within one run, so the ratio gates on any machine: `make
// bench-gate` fails when either falls under its floor in cmd/benchguard's
// zfp_eighth and sz_eighth rows. zfp seeks its own 4³ blocks, and sz
// entropy-decodes only the chunks covering the region's slabs and runs the
// full-decode Lorenzo kernels on the region's prefix box alone.
func BenchmarkRegionDecode(b *testing.B) {
	f, err := datagen.NyxField("baryon_density", 1, 2, 64)
	if err != nil {
		b.Fatal(err)
	}
	knob := 1e-3 * f.ValueRange()
	lo, hi := []int{16, 16, 16}, []int{48, 48, 48}
	for _, codec := range []struct {
		name string
		c    fxrz.Compressor
	}{
		{"zfp", fxrz.NewZFP()},
		{"sz", fxrz.NewSZ()},
	} {
		blob, err := codec.c.Compress(f, knob)
		if err != nil {
			b.Fatal(err)
		}
		indexed, err := fxrz.IndexBlob(blob)
		if err != nil {
			b.Fatal(err)
		}
		overhead := float64(len(indexed)-len(blob)) / float64(len(blob))
		for _, leg := range []struct {
			name   string
			decode func() (*fxrz.Field, error)
		}{
			{"full", func() (*fxrz.Field, error) { return fxrz.Decompress(indexed) }},
			{"eighth", func() (*fxrz.Field, error) { return fxrz.DecompressRegion(indexed, lo, hi) }},
		} {
			b.Run(fmt.Sprintf("%s/%s", codec.name, leg.name), func(b *testing.B) {
				b.ReportMetric(overhead, "idx-frac")
				for i := 0; i < b.N; i++ {
					if _, err := leg.decode(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
