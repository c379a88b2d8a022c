package fxrz_test

import (
	"math"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/codecs"
)

// FuzzDecompress drives the top-level container dispatch — the exact path
// the fxrzd serve layer feeds attacker-controlled request bodies into — with
// arbitrary byte streams across every codec magic. The contract is strict:
// truncated, bit-flipped or absurd-dims inputs must come back as errors,
// never panics or implausibly large allocations, and the parallel decoders —
// full and region — must agree with the serial ones on both the verdict and
// every bit of the reconstruction.
func FuzzDecompress(f *testing.F) {
	// One valid stream per row of the codec table and seed shape, so mutations
	// explore each decoder's near-valid neighborhood through the shared
	// dispatch. The 12×13×14 field is 48 zfp blocks, enough for a region's
	// covering box to fan out at width 2.
	for _, dims := range [][]int{{6, 7, 5}, {12, 13, 14}} {
		fld, err := fxrz.NewField("seed", dims...)
		if err != nil {
			f.Fatal(err)
		}
		for i := range fld.Data {
			fld.Data[i] = float32(i%13)*0.5 - float32(i%7)*0.25
		}
		for _, row := range codecs.Table {
			c := row.New()
			if blob, err := c.Compress(fld, c.Axis().Span(3)[1]); err == nil {
				f.Add(blob)
				// The indexed-container neighborhood: same inner stream
				// wrapped with a region index, so mutations also explore
				// index parsing.
				if ix, err := fxrz.IndexBlob(blob); err == nil {
					f.Add(ix)
				}
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x5A})
	// Headers claiming absurd geometry: dims whose product overflows int64
	// and dims far beyond any plausible payload budget.
	f.Add([]byte{0x5A, 0x01, 's', 0x04,
		0xff, 0xff, 0xff, 0xff, 0x1f, 0xff, 0xff, 0xff, 0xff, 0x1f,
		0xff, 0xff, 0xff, 0xff, 0x1f, 0xff, 0xff, 0xff, 0xff, 0x1f})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := fxrz.Decompress(data)
		if err == nil && g != nil && g.Size() > 1<<24 {
			t.Skip("oversized but well-formed header")
		}
		for _, w := range []int{2, 3} {
			pg, perr := fxrz.DecompressParallel(data, w)
			if (err == nil) != (perr == nil) {
				t.Fatalf("w=%d: serial err=%v, parallel err=%v", w, err, perr)
			}
			if err != nil {
				continue
			}
			for i := range g.Data {
				if math.Float32bits(g.Data[i]) != math.Float32bits(pg.Data[i]) {
					t.Fatalf("w=%d sample %d: serial %x, parallel %x",
						w, i, math.Float32bits(g.Data[i]), math.Float32bits(pg.Data[i]))
				}
			}
		}
		if err != nil {
			return
		}
		// Region cross-check: a deterministic in-bounds subvolume derived
		// from the input bytes must decode to exactly the matching slice of
		// the full reconstruction — on mutated-but-valid streams too.
		dims := g.Dims
		lo := make([]int, len(dims))
		hi := make([]int, len(dims))
		h := 0
		for _, b := range data {
			h = h*131 + int(b)&0xFF
		}
		if h < 0 {
			h = -h
		}
		for d, n := range dims {
			a := (h >> (3 * d)) % n
			b := (h >> (3*d + 7)) % n
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b+1
		}
		rg, rerr := fxrz.DecompressRegion(data, lo, hi)
		prg, perr := fxrz.DecompressRegionParallel(data, lo, hi, 2)
		if (rerr == nil) != (perr == nil) {
			t.Fatalf("region %v:%v: serial err=%v, w=2 err=%v", lo, hi, rerr, perr)
		}
		if rerr != nil {
			t.Fatalf("region %v:%v failed on decodable stream: %v", lo, hi, rerr)
		}
		for i := range rg.Data {
			if math.Float32bits(rg.Data[i]) != math.Float32bits(prg.Data[i]) {
				t.Fatalf("region %v:%v sample %d: serial %x, w=2 %x",
					lo, hi, i, math.Float32bits(rg.Data[i]), math.Float32bits(prg.Data[i]))
			}
		}
		i := 0
		coord := append([]int(nil), lo...)
		for {
			if want := g.Data[g.Index(coord...)]; math.Float32bits(rg.Data[i]) != math.Float32bits(want) {
				t.Fatalf("region %v:%v sample %d: %x != %x",
					lo, hi, i, math.Float32bits(rg.Data[i]), math.Float32bits(want))
			}
			i++
			d := len(coord) - 1
			for ; d >= 0; d-- {
				coord[d]++
				if coord[d] < hi[d] {
					break
				}
				coord[d] = lo[d]
			}
			if d < 0 {
				break
			}
		}
	})
}
