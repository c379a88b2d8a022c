package roi

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fxrz-go/fxrz/internal/sz"
)

// TestReaderSZSlabMode exercises the reader's per-slab lazy path: a chunked
// sz stream (48×64×64 → 16-row slabs) must serve point queries bit-identical
// to the full decode, decoding one slab per cold query, for both indexed
// containers and raw blobs. A one-slab stream (16³) is the same path: its
// one slab decodes on the cold query and a warm At allocates nothing.
func TestReaderSZSlabMode(t *testing.T) {
	f := testField(t, 48, 64, 64)
	blob, err := sz.New().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if sz.RegionTile(blob)[0] >= 48 {
		t.Fatal("48×64×64 sz blob is not chunked; slab mode untested")
	}
	indexed, err := Build(blob)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sz.New().Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"indexed", indexed},
		{"raw", blob},
	} {
		r, err := NewReader(tc.blob)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rng := rand.New(rand.NewSource(29))
		for q := 0; q < 300; q++ {
			z, y, x := rng.Intn(48), rng.Intn(64), rng.Intn(64)
			got, err := r.At(z, y, x)
			if err != nil {
				t.Fatalf("%s: At(%d,%d,%d): %v", tc.name, z, y, x, err)
			}
			if want := full.Data[full.Index(z, y, x)]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s: At(%d,%d,%d) = %v, want %v", tc.name, z, y, x, got, want)
			}
		}
	}

	small := testField(t, 16, 16, 16)
	oneSlab, err := sz.New().Compress(small, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	smallFull, err := sz.New().Decompress(oneSlab)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(oneSlab)
	if err != nil {
		t.Fatal(err)
	}
	if r.tile[0] != 16 {
		t.Fatalf("one-slab 16³ reader has tile height %d, want 16", r.tile[0])
	}
	for i := range smallFull.Data {
		z, y, x := i/256, i/16%16, i%16
		got, err := r.At(z, y, x)
		if err != nil {
			t.Fatalf("one slab: At(%d,%d,%d): %v", z, y, x, err)
		}
		if math.Float32bits(got) != math.Float32bits(smallFull.Data[i]) {
			t.Fatalf("one slab: At(%d,%d,%d) = %v, want %v", z, y, x, got, smallFull.Data[i])
		}
		if len(r.tiles) != 1 {
			t.Fatalf("one slab: %d tiles cached after %d queries, want the one slab decoded once", len(r.tiles), i+1)
		}
	}
	var sink float32
	allocs := testing.AllocsPerRun(200, func() {
		v, err := r.At(15, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		sink += v
	})
	if allocs != 0 {
		t.Fatalf("one-slab Reader.At allocates %v per warm run, want 0", allocs)
	}
	_ = sink
}
