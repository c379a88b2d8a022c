package zfp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress/compresstest"
	"github.com/fxrz-go/fxrz/internal/entropy"
)

func BenchmarkCompress(b *testing.B)          { compresstest.BenchCompress(b, New(), 1e-3) }
func BenchmarkDecompress(b *testing.B)        { compresstest.BenchDecompress(b, New(), 1e-3) }
func BenchmarkFixedRateCompress(b *testing.B) { compresstest.BenchCompress(b, NewFixedRate(), 8) }

// kernelPrec is the plane count of the kernel benchmarks' block: the median
// maxprec of the fixed-accuracy blocks lib_large_w1 codes.
const kernelPrec = 10

// kernelBlock returns the transform coefficients of one 4³ block of a
// smooth field with a little noise, as encodeBlock hands them to encodeInts.
func kernelBlock() []int32 {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float32, 64)
	for i := range vals {
		x, y, z := float64(i%4), float64(i/4%4), float64(i/16)
		vals[i] = float32(3+math.Sin(0.4*x+0.3*y)*math.Cos(0.2*z)) + 0.01*rng.Float32()
	}
	emax, _ := blockEmax(vals)
	q := make([]int32, 64)
	quantize(vals, emax, q)
	fwdTransform(q, 3)
	return q
}

// BenchmarkKernelEncodeInts times the embedded coder on one 3-D block in
// fixed-accuracy mode (unbounded budget), from transform coefficients to
// bits: the sequency reorder and bitwise oracle with its per-plane gather
// against the word-level coder. cmd/benchguard's zfp_encode_ints row reads
// the perplane and transposed legs.
func BenchmarkKernelEncodeInts(b *testing.B) {
	q, perm := kernelBlock(), perms[2]
	b.Run("perplane", func(b *testing.B) {
		ub := make([]uint32, len(q))
		for i := 0; i < b.N; i++ {
			w := entropy.NewPooledBitWriter()
			for i, p := range perm {
				ub[i] = int32ToNegabinary(q[p])
			}
			encodeIntsPerPlane(w, unbounded, kernelPrec, ub)
			entropy.RecycleBuffer(w.Bytes())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(q)), "ns/elem")
	})
	b.Run("transposed", func(b *testing.B) {
		var planes [32]uint64
		for i := 0; i < b.N; i++ {
			w := entropy.NewPooledBitWriter()
			encodeInts(w, unbounded, kernelPrec, q, perm, &planes)
			entropy.RecycleBuffer(w.Bytes())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(q)), "ns/elem")
	})
}

// BenchmarkKernelDecodeInts decodes the same block back to ordered
// negabinary coefficients: the bitwise oracle against the word-level walk.
// cmd/benchguard's zfp_decode_ints row reads both legs.
func BenchmarkKernelDecodeInts(b *testing.B) {
	q, perm := kernelBlock(), perms[2]
	w := &entropy.BitWriter{}
	var planes [32]uint64
	encodeInts(w, unbounded, kernelPrec, q, perm, &planes)
	stream := w.Bytes()
	out := make([]uint32, len(q))
	b.Run("bitwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decodeIntsBitwise(entropy.NewBitReader(stream), unbounded, kernelPrec, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(out)), "ns/elem")
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decodeInts(entropy.NewBitReader(stream), unbounded, kernelPrec, len(out), out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(out)), "ns/elem")
	})
}
