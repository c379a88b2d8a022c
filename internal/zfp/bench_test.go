package zfp

import (
	"math/rand"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress/compresstest"
	"github.com/fxrz-go/fxrz/internal/entropy"
)

func BenchmarkCompress(b *testing.B)          { compresstest.BenchCompress(b, New(), 1e-3) }
func BenchmarkDecompress(b *testing.B)        { compresstest.BenchDecompress(b, New(), 1e-3) }
func BenchmarkFixedRateCompress(b *testing.B) { compresstest.BenchCompress(b, NewFixedRate(), 8) }

// BenchmarkKernelEncodeInts compares the historical per-plane gather (64
// coefficient scans per block) against the one-pass bit-matrix transpose on a
// dense 4³ block at full precision. cmd/benchguard's zfp_encode_ints row
// reads the perplane and transposed legs.
func BenchmarkKernelEncodeInts(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]uint32, 64)
	for i := range data {
		data[i] = rng.Uint32()
	}
	const maxbits = 1 << 12
	b.Run("perplane", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := entropy.NewPooledBitWriter()
			encodeIntsPerPlane(w, maxbits, intPrec, data)
			entropy.RecycleBuffer(w.Bytes())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/elem")
	})
	b.Run("transposed", func(b *testing.B) {
		var planes [64]uint64
		for i := 0; i < b.N; i++ {
			w := entropy.NewPooledBitWriter()
			encodeInts(w, maxbits, intPrec, data, &planes)
			entropy.RecycleBuffer(w.Bytes())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/elem")
	})
}
