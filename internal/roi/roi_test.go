package roi

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fxrz-go/fxrz/internal/brick"
	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/grid"
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

func TestReaderAtMatchesDecode(t *testing.T) {
	f := testField(t, 11, 9, 13)
	for _, mk := range []struct {
		name string
		blob func() []byte
	}{
		{"zfp-indexed", func() []byte {
			b, err := zfp.New().Compress(f, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Build(b)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}},
		{"sz-raw", func() []byte {
			b, err := sz.New().Compress(f, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	} {
		blob := mk.blob()
		r, err := NewReader(blob)
		if err != nil {
			t.Fatalf("%s: %v", mk.name, err)
		}
		full := fullDecode(t, blob)
		rng := rand.New(rand.NewSource(3))
		for q := 0; q < 200; q++ {
			z, y, x := rng.Intn(11), rng.Intn(9), rng.Intn(13)
			got, err := r.At(z, y, x)
			if err != nil {
				t.Fatalf("%s: At(%d,%d,%d): %v", mk.name, z, y, x, err)
			}
			if want := full.Data[full.Index(z, y, x)]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s: At(%d,%d,%d) = %v, want %v", mk.name, z, y, x, got, want)
			}
		}
		if _, err := r.At(11, 0, 0); err == nil {
			t.Errorf("%s: out-of-range At accepted", mk.name)
		}
		if _, err := r.At(1, 1); err == nil {
			t.Errorf("%s: rank-mismatched At accepted", mk.name)
		}
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
