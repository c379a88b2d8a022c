package fxrz_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/fieldio"
)

// The golden fixtures under testdata/golden pin the on-disk formats: every
// codec's stream layout, the fxrzfield container, and the brick-store
// archive. These tests fail when a change alters either the bytes a codec
// emits or the field it reconstructs from old bytes — both of which orphan
// archives users have already written. If the change is intentional (a
// format revision), regenerate with `go run ./cmd/genfixtures` and say so in
// the commit; if not, it is a compatibility bug this test just caught.

// goldenField reproduces the exact field cmd/genfixtures compressed.
func goldenField(t *testing.T) *fxrz.Field {
	t.Helper()
	f, err := datagen.NyxField("baryon_density", 1, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatalf("golden fixture missing (run `go run ./cmd/genfixtures`): %v", err)
	}
	return b
}

// sameBits requires two fields to agree on every sample bit for bit.
func sameBits(t *testing.T, label string, want, got *fxrz.Field) {
	t.Helper()
	if len(want.Data) != len(got.Data) {
		t.Fatalf("%s: %d samples, want %d", label, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: sample %d = %x, want %x (reconstruction drift)",
				label, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

func TestGoldenFieldContainer(t *testing.T) {
	blob := readGolden(t, "field.fxrzfield")
	// Old container bytes must still parse to the exact source field...
	got, err := fieldio.Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "container", goldenField(t), got)
	// ...and today's writer must still emit the same bytes.
	var buf bytes.Buffer
	if err := fieldio.Write(&buf, goldenField(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Error("fxrzfield container writer drifted from the golden bytes")
	}
}

func TestGoldenStreams(t *testing.T) {
	knobs := map[string]float64{
		"sz": 1e-3, "sz2": 1e-3, "zfp": 1e-3, "zfp-rate": 8, "fpzip": 16, "mgard": 1e-3,
	}
	f := goldenField(t)
	for name, knob := range knobs {
		t.Run(name, func(t *testing.T) {
			blob := readGolden(t, name+".blob")
			reconBytes := readGolden(t, name+".recon")
			want, err := fieldio.Read(bytes.NewReader(reconBytes))
			if err != nil {
				t.Fatal(err)
			}

			// Decode compatibility: the committed stream must reconstruct the
			// committed field, through both the magic-byte dispatcher and the
			// parallel decoder.
			got, err := fxrz.Decompress(blob)
			if err != nil {
				t.Fatalf("golden stream no longer decodes: %v", err)
			}
			sameBits(t, "serial decode", want, got)
			got, err = fxrz.DecompressParallel(blob, 3)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "parallel decode", want, got)

			// Encode stability: today's encoder must reproduce the committed
			// stream byte for byte from the same field and knob.
			c, err := fxrz.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := c.Compress(f, knob)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh, blob) {
				t.Errorf("%s encoder drifted: emits %d bytes differing from the %d-byte golden stream",
					name, len(fresh), len(blob))
			}
		})
	}
}

// TestGoldenIndexedStreams pins the indexed-container format: committed
// indexed blobs must full-decode to the same reconstruction as their raw
// counterparts, region decode out of them must match the corresponding slice,
// and re-indexing today must reproduce the committed bytes. It also pins the
// compatibility promise in the other direction: pre-index blobs (the raw
// golden streams) must region-decode through the no-index fallback paths.
//
// sz-indexed-seeded.blob is frozen, decode-only: the same sz stream indexed by
// an older build, which stored seed planes for one-slab blobs (its [4,12)³
// region restarted at row 4's seed plane). Today's decoder never reads a
// one-slab index, and that container must keep decoding bit-identically.
func TestGoldenIndexedStreams(t *testing.T) {
	lo, hi := []int{4, 4, 4}, []int{12, 12, 12}
	for _, c := range []struct {
		name, codec, file string
		frozen            bool
	}{
		{"sz", "sz", "sz-indexed.blob", false},
		{"zfp", "zfp", "zfp-indexed.blob", false},
		{"sz-seeded", "sz", "sz-indexed-seeded.blob", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			indexed := readGolden(t, c.file)
			raw := readGolden(t, c.codec+".blob")
			reconBytes := readGolden(t, c.codec+".recon")
			want, err := fieldio.Read(bytes.NewReader(reconBytes))
			if err != nil {
				t.Fatal(err)
			}

			// Full decode of the indexed container, serial and parallel, must
			// be bit-identical to the raw stream's pinned reconstruction.
			got, err := fxrz.Decompress(indexed)
			if err != nil {
				t.Fatalf("golden indexed stream no longer decodes: %v", err)
			}
			sameBits(t, "indexed serial decode", want, got)
			got, err = fxrz.DecompressParallel(indexed, 3)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "indexed parallel decode", want, got)

			// Region decode — from the indexed container (seeking path) and
			// from the raw pre-index blob (fallback path) — must both match
			// the slice of the pinned reconstruction.
			for _, src := range []struct {
				kind string
				blob []byte
			}{{"indexed", indexed}, {"pre-index", raw}} {
				region, err := fxrz.DecompressRegion(src.blob, lo, hi)
				if err != nil {
					t.Fatalf("%s region decode: %v", src.kind, err)
				}
				i := 0
				for z := lo[0]; z < hi[0]; z++ {
					for y := lo[1]; y < hi[1]; y++ {
						for x := lo[2]; x < hi[2]; x++ {
							wantV := want.Data[want.Index(z, y, x)]
							if math.Float32bits(region.Data[i]) != math.Float32bits(wantV) {
								t.Fatalf("%s region sample (%d,%d,%d) = %x, want %x", src.kind,
									z, y, x, math.Float32bits(region.Data[i]), math.Float32bits(wantV))
							}
							i++
						}
					}
				}
			}

			// Index-build stability: re-indexing the committed raw stream must
			// reproduce the committed indexed container byte for byte.
			if c.frozen {
				return
			}
			fresh, err := fxrz.IndexBlob(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh, indexed) {
				t.Errorf("%s index build drifted: emits %d bytes differing from the %d-byte golden container",
					c.name, len(fresh), len(indexed))
			}
		})
	}
}

func TestGoldenBrickStore(t *testing.T) {
	blob := readGolden(t, "sz-bricks.store")
	reconBytes := readGolden(t, "sz-bricks.recon")
	want, err := fieldio.Read(bytes.NewReader(reconBytes))
	if err != nil {
		t.Fatal(err)
	}
	st, err := fxrz.LoadBricks(fxrz.NewSZ(), blob)
	if err != nil {
		t.Fatalf("golden brick store no longer loads: %v", err)
	}
	got, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "brick store", want, got)

	// A region read out of the old archive must match the same region of
	// the full reconstruction — random access is part of the pinned format.
	region, err := st.ReadRegion([]int{4, 4, 4}, []int{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for z := 0; z < 8; z++ {
				wantV := want.Data[(x+4)*16*16+(y+4)*16+(z+4)]
				gotV := region.Data[x*8*8+y*8+z]
				if math.Float32bits(wantV) != math.Float32bits(gotV) {
					t.Fatalf("region sample (%d,%d,%d) = %x, want %x", x, y, z,
						math.Float32bits(gotV), math.Float32bits(wantV))
				}
			}
		}
	}

	fresh, err := fxrz.BuildBricks(fxrz.NewSZ(), goldenField(t), 8, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Marshal(), blob) {
		t.Error("brick-store marshal drifted from the golden bytes")
	}
}
