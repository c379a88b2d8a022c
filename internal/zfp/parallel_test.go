package zfp

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/grid"
)

func zfpParWidths() []int {
	ws := []int{2, 3}
	if n := runtime.NumCPU(); n > 3 {
		ws = append(ws, n)
	}
	return ws
}

// Shapes with enough blocks to clear zfpParMinBlocks, plus clipped extents
// (non-multiples of 4) and shapes below the gate.
var zfpParShapes = [][]int{
	{64},         // 16 blocks in 1D
	{7},          // below the gate: serial either way
	{12, 20},     // 15 blocks (3×5) — just below the gate
	{24, 24},     // 36 blocks
	{9, 13},      // clipped extents
	{8, 12, 16},  // 3D, 24 blocks
	{6, 7, 5},    // 3D clipped
	{3, 6, 7, 5}, // 4D folds into 3D blocks
}

func zfpParField(shape []int, kind string) *grid.Field {
	f := grid.MustNew(kind, shape...)
	rng := rand.New(rand.NewSource(int64(len(f.Data)) + int64(len(kind))))
	for i := range f.Data {
		switch kind {
		case "smooth":
			f.Data[i] = float32(math.Cos(float64(i) / 9))
		case "noisy":
			f.Data[i] = rng.Float32()*2e3 - 1e3
		case "spiky":
			// Mixed magnitudes: zero blocks next to huge ones stress the
			// per-block emax header and the zero-block flag.
			switch i % 5 {
			case 0:
				f.Data[i] = 0
			case 1:
				f.Data[i] = 1e30
			default:
				f.Data[i] = float32(i%3) * 1e-6
			}
		}
	}
	return f
}

// Both ZFP modes must emit byte-identical streams and bit-identical
// reconstructions at every worker count.
func TestZFPParallelIdentity(t *testing.T) {
	for _, shape := range zfpParShapes {
		for _, kind := range []string{"smooth", "noisy", "spiky"} {
			f := zfpParField(shape, kind)

			serialAcc := &Compressor{Workers: 1}
			accBlob, err := serialAcc.Compress(f, 1e-3)
			if err != nil {
				t.Fatalf("%v/%s: serial fixed-accuracy compress: %v", shape, kind, err)
			}
			accRec, err := serialAcc.Decompress(accBlob)
			if err != nil {
				t.Fatalf("%v/%s: serial fixed-accuracy decompress: %v", shape, kind, err)
			}

			serialRate := &FixedRate{Workers: 1}
			rateBlob, err := serialRate.Compress(f, 8)
			if err != nil {
				t.Fatalf("%v/%s: serial fixed-rate compress: %v", shape, kind, err)
			}
			rateRec, err := serialRate.Decompress(rateBlob)
			if err != nil {
				t.Fatalf("%v/%s: serial fixed-rate decompress: %v", shape, kind, err)
			}

			for _, w := range zfpParWidths() {
				acc := &Compressor{Workers: w}
				blob, err := acc.Compress(f, 1e-3)
				if err != nil {
					t.Fatalf("%v/%s w=%d: fixed-accuracy compress: %v", shape, kind, w, err)
				}
				if !bytes.Equal(blob, accBlob) {
					t.Fatalf("%v/%s w=%d: fixed-accuracy blob differs from serial", shape, kind, w)
				}
				rec, err := acc.Decompress(accBlob)
				if err != nil {
					t.Fatalf("%v/%s w=%d: fixed-accuracy decompress: %v", shape, kind, w, err)
				}
				if !zfpBitsEqual(rec.Data, accRec.Data) {
					t.Fatalf("%v/%s w=%d: fixed-accuracy reconstruction differs", shape, kind, w)
				}

				rate := &FixedRate{Workers: w}
				rblob, err := rate.Compress(f, 8)
				if err != nil {
					t.Fatalf("%v/%s w=%d: fixed-rate compress: %v", shape, kind, w, err)
				}
				if !bytes.Equal(rblob, rateBlob) {
					t.Fatalf("%v/%s w=%d: fixed-rate blob differs from serial", shape, kind, w)
				}
				rrec, err := rate.Decompress(rateBlob)
				if err != nil {
					t.Fatalf("%v/%s w=%d: fixed-rate decompress: %v", shape, kind, w, err)
				}
				if !zfpBitsEqual(rrec.Data, rateRec.Data) {
					t.Fatalf("%v/%s w=%d: fixed-rate reconstruction differs", shape, kind, w)
				}
			}
		}
	}
}

func zfpBitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// skipBlock must consume exactly the bits decodeBlockVals consumes, block by
// block, across a whole fixed-accuracy stream — the property the parallel
// decoder's offset skim rests on. Proven by decoding every block twice: once
// sequentially and once from a fresh reader positioned at the skim's
// accumulated offset; any skim drift desynchronises all later blocks.
func TestSkipBlockMatchesDecodeConsumption(t *testing.T) {
	for _, shape := range [][]int{{24, 24}, {6, 7, 5}, {8, 12, 16}} {
		for _, kind := range []string{"smooth", "spiky"} {
			f := zfpParField(shape, kind)
			c := &Compressor{Workers: 1}
			blob, err := c.Compress(f, 1e-4)
			if err != nil {
				t.Fatal(err)
			}
			h, payload, err := compress.ParseHeader(blob, compress.MagicZFP)
			if err != nil {
				t.Fatal(err)
			}
			folded := foldDims(h.Dims)
			nd := len(folded)
			bs := 1
			for i := 0; i < nd; i++ {
				bs *= blockSide
			}
			minexp := minExp(h.Knob)
			perm := perms[nd-1]

			seqOut := grid.MustNew("seq", folded...)
			atOut := grid.MustNew("at", folded...)
			dec := entropy.NewBitReader(payload)
			skim := entropy.NewBitReader(payload)
			s := getBlockScratch(bs)
			s2 := getBlockScratch(bs)
			defer putBlockScratch(s)
			defer putBlockScratch(s2)
			total := countBlocks(folded)
			zero := make([]int, nd)
			origin := make([]int, nd)
			bitPos := 0
			for k := 0; k < total; k++ {
				wk := walkField(folded, k)
				wk.origin(origin)
				r := entropy.NewBitReaderAt(payload, bitPos)
				decodeBlockVals(r, s2, minexp, 0, nd, perm)
				scatterRegion(atOut, zero, folded, origin, s2.vals)
				decodeBlockVals(dec, s, minexp, 0, nd, perm)
				scatterRegion(seqOut, zero, folded, origin, s.vals)
				bitPos += skipBlock(skim, minexp, 0, nd, bs)
			}
			if !zfpBitsEqual(atOut.Data, seqOut.Data) {
				t.Fatalf("%v/%s: offset-skim decode drifted from sequential decode", shape, kind)
			}
		}
	}
}

// A shared FixedRate value used from many goroutines must stay race-free and
// deterministic: scratch comes from the pool per chunk, never per codec.
func TestZFPSharedCompressorConcurrent(t *testing.T) {
	f := zfpParField([]int{8, 12, 16}, "noisy")
	c := &FixedRate{Workers: 2}
	want, err := c.Compress(f, 12)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				blob, err := c.Compress(f, 12)
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(blob, want) {
					errs[g] = errConcurrentMismatch{}
					return
				}
				if _, err := c.Decompress(blob); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

type errConcurrentMismatch struct{}

func (errConcurrentMismatch) Error() string { return "concurrent blob differs from reference" }
