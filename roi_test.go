package fxrz_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
)

// regionField builds a field with the value mix that has historically broken
// predictors: smooth structure, noise, and (when hostile) NaN/Inf/huge values
// that force the sz escape path.
func regionField(t testing.TB, hostile bool, dims ...int) *fxrz.Field {
	t.Helper()
	f, err := fxrz.NewField("roi-prop", dims...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(len(dims))*31 + int64(f.Size())))
	for i := range f.Data {
		f.Data[i] = float32(math.Sin(float64(i)*0.021)) + 0.05*rng.Float32()
		if hostile {
			switch i % 97 {
			case 0:
				f.Data[i] = float32(math.NaN())
			case 13:
				f.Data[i] = float32(math.Inf(1))
			case 31:
				f.Data[i] = 1e30
			}
		}
	}
	return f
}

// sliceRegion extracts [lo,hi) from a full field sample by sample — an
// independent oracle for the region decoders.
func sliceRegion(t testing.TB, f *fxrz.Field, lo, hi []int) []float32 {
	t.Helper()
	shape := make([]int, len(lo))
	n := 1
	for d := range lo {
		shape[d] = hi[d] - lo[d]
		n *= shape[d]
	}
	out := make([]float32, 0, n)
	coord := append([]int(nil), lo...)
	for {
		out = append(out, f.Data[f.Index(coord...)])
		d := len(coord) - 1
		for ; d >= 0; d-- {
			coord[d]++
			if coord[d] < hi[d] {
				break
			}
			coord[d] = lo[d]
		}
		if d < 0 {
			return out
		}
	}
}

func randomRegion(rng *rand.Rand, dims []int) (lo, hi []int) {
	lo = make([]int, len(dims))
	hi = make([]int, len(dims))
	for d, n := range dims {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		lo[d], hi[d] = a, b+1
	}
	return lo, hi
}

// TestDecompressRegionProperty is the end-to-end property pin: for every
// codec, rank 1..4, hostile and benign data, raw and indexed blobs, and every
// worker width, DecompressRegionParallel of a random subvolume is bit-equal
// to the corresponding slice of the full decode. The 20×64×128 field is three
// 8-row sz slabs, and its two fixed regions make the region decoders fan out:
// each covers two or three slabs and a zfp box of over 300 blocks, one ending
// mid-slab and mid-block, the other on a slab boundary.
func TestDecompressRegionProperty(t *testing.T) {
	shapes := []struct {
		dims    []int
		regions [][2][]int // [lo, hi) pairs; nil draws eight random regions
	}{
		{dims: []int{41}},
		{dims: []int{17, 21}},
		{dims: []int{9, 11, 13}},
		{dims: []int{4, 5, 6, 7}},
		{[]int{20, 64, 128}, [][2][]int{
			{{3, 5, 9}, {19, 45, 30}},
			{{2, 7, 60}, {16, 33, 101}},
		}},
	}
	codecs := []struct {
		name string
		c    fxrz.Compressor
	}{
		{"sz", fxrz.NewSZ()},
		{"sz2", fxrz.NewSZ2()},
		{"zfp", fxrz.NewZFP()},
	}
	widths := []int{1, 2, runtime.NumCPU()}
	rng := rand.New(rand.NewSource(11))
	for _, shape := range shapes {
		dims := shape.dims
		for _, hostile := range []bool{false, true} {
			f := regionField(t, hostile, dims...)
			for _, cd := range codecs {
				blob, err := cd.c.Compress(f, 1e-3)
				if err != nil {
					t.Fatalf("%s dims=%v: %v", cd.name, dims, err)
				}
				indexed, err := fxrz.IndexBlob(blob)
				if err != nil {
					t.Fatalf("%s dims=%v: IndexBlob: %v", cd.name, dims, err)
				}
				full, err := fxrz.Decompress(blob)
				if err != nil {
					t.Fatal(err)
				}
				// Indexed full decode must match raw full decode bit for bit.
				ifull, err := fxrz.Decompress(indexed)
				if err != nil {
					t.Fatalf("%s dims=%v: indexed full decode: %v", cd.name, dims, err)
				}
				for i := range full.Data {
					if math.Float32bits(full.Data[i]) != math.Float32bits(ifull.Data[i]) {
						t.Fatalf("%s dims=%v: indexed full decode diverges at %d", cd.name, dims, i)
					}
				}
				regions := shape.regions
				if regions == nil {
					for range 8 {
						lo, hi := randomRegion(rng, dims)
						regions = append(regions, [2][]int{lo, hi})
					}
				}
				for _, r := range regions {
					lo, hi := r[0], r[1]
					want := sliceRegion(t, full, lo, hi)
					for _, blobKind := range []struct {
						kind string
						b    []byte
					}{{"raw", blob}, {"indexed", indexed}} {
						for _, w := range widths {
							got, err := fxrz.DecompressRegionParallel(blobKind.b, lo, hi, w)
							if err != nil {
								t.Fatalf("%s/%s dims=%v region=%v:%v w=%d: %v",
									cd.name, blobKind.kind, dims, lo, hi, w, err)
							}
							if len(got.Data) != len(want) {
								t.Fatalf("%s/%s dims=%v: region size %d, want %d",
									cd.name, blobKind.kind, dims, len(got.Data), len(want))
							}
							for i := range want {
								if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
									t.Fatalf("%s/%s dims=%v region=%v:%v w=%d sample %d: %x != %x",
										cd.name, blobKind.kind, dims, lo, hi, w, i,
										math.Float32bits(got.Data[i]), math.Float32bits(want[i]))
								}
							}
						}
					}
				}
			}
		}
	}
}
