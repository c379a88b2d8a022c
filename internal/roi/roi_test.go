package roi

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/fxrz-go/fxrz/internal/brick"
	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/fpzip"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/mgard"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/sz"
	"github.com/fxrz-go/fxrz/internal/zfp"
)

func testField(t testing.TB, dims ...int) *grid.Field {
	t.Helper()
	f := grid.MustNew("roi-test", dims...)
	rng := rand.New(rand.NewSource(5))
	for i := range f.Data {
		f.Data[i] = float32(math.Cos(float64(i)*0.03)) + 0.1*rng.Float32()
	}
	return f
}

// fullDecode is the reference the region paths are compared against: the
// codec's own full decode of the (unwrapped) stream.
func fullDecode(t *testing.T, blob []byte) *grid.Field {
	t.Helper()
	inner := blob
	if IsIndexed(blob) {
		var err error
		if inner, _, err = Unwrap(blob); err != nil {
			t.Fatal(err)
		}
	}
	c, err := codecs.ByMagic(inner[0])
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.New().Decompress(inner)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

func TestWrapUnwrapRoundTrip(t *testing.T) {
	inner := []byte{0x2F, 1, 2, 3}
	index := []byte{9, 9}
	blob := Wrap(inner, index)
	if !IsIndexed(blob) {
		t.Fatal("wrapped blob not recognised as indexed")
	}
	gi, gx, err := Unwrap(blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(gi) != string(inner) || string(gx) != string(index) {
		t.Fatalf("round trip mismatch: %v %v", gi, gx)
	}
	// Corrupt variants must error, not panic.
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0xFF
		_, _, _ = Unwrap(mut)
	}
	if _, _, err := Unwrap(blob[:len(blob)-1]); err == nil {
		t.Error("truncated container accepted")
	}
	if _, _, err := Unwrap(append(append([]byte(nil), blob...), 1)); err == nil {
		t.Error("container with trailer accepted")
	}
}

func TestBuildIdempotent(t *testing.T) {
	f := testField(t, 12, 10, 8)
	blob, err := zfp.New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	once, err := Build(blob)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Build(once)
	if err != nil {
		t.Fatal(err)
	}
	if &twice[0] != &once[0] || len(twice) != len(once) {
		t.Fatal("Build of an indexed container is not a no-op")
	}
	inner, _, err := Unwrap(once)
	if err != nil {
		t.Fatal(err)
	}
	if string(inner) != string(blob) {
		t.Fatal("inner blob altered by indexing")
	}
}

func TestDecodeRegionAllContainers(t *testing.T) {
	f := testField(t, 16, 12, 10)
	lo, hi := []int{5, 3, 2}, []int{13, 9, 8}
	blobs := map[string][]byte{}
	szBlob, err := sz.New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	zfpBlob, err := zfp.New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	sz2Blob, err := sz.NewV2().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	blobs["sz-raw"] = szBlob
	blobs["zfp-raw"] = zfpBlob
	blobs["sz2-raw"] = sz2Blob
	for _, name := range []string{"sz", "zfp", "sz2"} {
		ix, err := Build(blobs[name+"-raw"])
		if err != nil {
			t.Fatalf("index %s: %v", name, err)
		}
		blobs[name+"-indexed"] = ix
	}
	st, err := brick.Build(sz.New(), f, 8, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	blobs["brick"] = st.Marshal()

	for name, blob := range blobs {
		got, err := DecodeRegion(blob, lo, hi, 2)
		if err != nil {
			t.Fatalf("%s: DecodeRegion: %v", name, err)
		}
		var full *grid.Field
		if name == "brick" {
			if full, err = st.ReadAll(); err != nil {
				t.Fatalf("%s: full decode: %v", name, err)
			}
		} else {
			full = fullDecode(t, blob)
		}
		want, err := grid.SliceRegion(full, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: sample %d: %v != %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestDecodeRegionRejectsBadRegion(t *testing.T) {
	f := testField(t, 8, 8)
	blob, err := zfp.New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRegion(blob, []int{0}, []int{8}, 1); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := DecodeRegion(blob, []int{0, 0}, []int{9, 8}, 1); err == nil {
		t.Error("out-of-bounds region accepted")
	}
}

func TestParseRegion(t *testing.T) {
	lo, hi, err := ParseRegion("0:64, 128:192,32:48")
	if err != nil {
		t.Fatal(err)
	}
	wantLo, wantHi := []int{0, 128, 32}, []int{64, 192, 48}
	for d := range wantLo {
		if lo[d] != wantLo[d] || hi[d] != wantHi[d] {
			t.Fatalf("parsed %v:%v, want %v:%v", lo, hi, wantLo, wantHi)
		}
	}
	if got := FormatRegion(lo, hi); got != "0:64,128:192,32:48" {
		t.Fatalf("FormatRegion = %q", got)
	}
	for _, bad := range []string{"", "5", "5:", ":5", "a:b", "3:3", "-1:4", "1:2,3:4,5:6,7:8,9:10"} {
		if _, _, err := ParseRegion(bad); err == nil {
			t.Errorf("ParseRegion(%q) accepted", bad)
		}
	}
}

// TestReaderAtMatchesDecode runs the Reader over every container kind: each
// codec row (sz one-slab and chunked, sz2, zfp in both modes, 4-D zfp, fpzip,
// mgard) and a brick store. For each, At must match the full decode bit for
// bit, every touched tile must decode exactly once — the cache holds one
// entry per distinct tile touched, of the tile shape the codec's RegionTile
// hook names (the whole field without one) — and a warm At must allocate
// nothing. Tiles load serially: with two or more cores available, no tile
// decode fans out (zfp/par_decodes stays 0, though the 4-D zfp field's
// whole-field tile has enough blocks to).
func TestReaderAtMatchesDecode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	obs.Enable()
	defer obs.Disable()
	small := testField(t, 11, 9, 13)
	chunked := testField(t, 48, 64, 64) // three 16-row sz slabs
	field4 := testField(t, 3, 5, 9, 7)
	compressed := func(c compress.Compressor, f *grid.Field, knob float64) []byte {
		b, err := c.Compress(f, knob)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	indexed := func(b []byte) []byte {
		ix, err := Build(b)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	st, err := brick.Build(sz.New(), small, 8, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		blob []byte
		tile []int
	}{
		{"zfp-indexed", indexed(compressed(zfp.New(), small, 1e-3)), []int{4, 4, 4}},
		{"zfp-rate", compressed(zfp.NewFixedRate(), small, 12), []int{4, 4, 4}},
		{"zfp-4d", indexed(compressed(zfp.New(), field4, 1e-3)), field4.Dims},
		{"sz-raw", compressed(sz.New(), small, 1e-3), small.Dims},
		{"sz-slab-indexed", indexed(compressed(sz.New(), chunked, 1e-3)), []int{16, 64, 64}},
		{"sz-slab-raw", compressed(sz.New(), chunked, 1e-3), []int{16, 64, 64}},
		{"sz2", compressed(sz.NewV2(), small, 1e-3), small.Dims},
		{"fpzip", compressed(fpzip.New(), small, 16), small.Dims},
		{"mgard", compressed(mgard.New(), small, 1e-3), small.Dims},
		{"brick", st.Marshal(), small.Dims},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(tc.blob)
			if err != nil {
				t.Fatal(err)
			}
			var full *grid.Field
			if tc.name == "brick" {
				if full, err = st.ReadAll(); err != nil {
					t.Fatal(err)
				}
			} else {
				full = fullDecode(t, tc.blob)
			}
			dims := full.Dims
			rng := rand.New(rand.NewSource(3))
			coord := make([]int, len(dims))
			touched := map[int]bool{}
			obs.Reset()
			for q := 0; q < 300; q++ {
				key := 0
				for d := range coord {
					coord[d] = rng.Intn(dims[d])
					key = key*dims[d] + coord[d]/tc.tile[d]
				}
				touched[key] = true
				got, err := r.At(coord...)
				if err != nil {
					t.Fatalf("At(%v): %v", coord, err)
				}
				if want := full.Data[full.Index(coord...)]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("At(%v) = %v, want %v", coord, got, want)
				}
				if len(r.tiles) != len(touched) {
					t.Fatalf("after %d queries: %d tiles cached, %d distinct tiles touched", q+1, len(r.tiles), len(touched))
				}
			}
			if got := obs.TakeSnapshot().Counters["zfp/par_decodes"]; got != 0 {
				t.Errorf("tile loads fanned out %d times", got)
			}
			var sink float32
			allocs := testing.AllocsPerRun(200, func() {
				v, err := r.At(coord...)
				if err != nil {
					t.Fatal(err)
				}
				sink += v
			})
			if allocs != 0 {
				t.Fatalf("warm At allocates %v per run, want 0", allocs)
			}
			_ = sink
			coord[0] = dims[0]
			if _, err := r.At(coord...); err == nil {
				t.Error("out-of-range At accepted")
			}
			if _, err := r.At(1, 1); err == nil {
				t.Error("rank-mismatched At accepted")
			}
		})
	}
}

// TestReaderAtZeroAlloc pins the acceptance criterion: once the blocks under
// a query region are warm, At performs zero heap allocations per call.
func TestReaderAtZeroAlloc(t *testing.T) {
	f := testField(t, 16, 16, 16)
	blob, err := zfp.New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := Build(blob)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(indexed)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the blocks covering the query region.
	for z := 4; z < 12; z++ {
		for y := 4; y < 12; y++ {
			for x := 4; x < 12; x++ {
				if _, err := r.At(z, y, x); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var sink float32
	allocs := testing.AllocsPerRun(200, func() {
		for z := 4; z < 12; z++ {
			v, err := r.At(z, 7, z)
			if err != nil {
				t.Fatal(err)
			}
			sink += v
		}
	})
	if allocs != 0 {
		t.Fatalf("Reader.At allocates %v per warm run, want 0", allocs)
	}
	_ = sink
}
