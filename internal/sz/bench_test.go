package sz

import (
	"math"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress/compresstest"
	"github.com/fxrz-go/fxrz/internal/grid"
)

func BenchmarkCompress(b *testing.B)   { compresstest.BenchCompress(b, New(), 1e-3) }
func BenchmarkDecompress(b *testing.B) { compresstest.BenchDecompress(b, New(), 1e-3) }

// BenchmarkKernelQuantize3D compares the generic odometer Lorenzo pass
// against the dimension-specialized 3D kernel on a smooth 64³ field — the
// hot loop of every Compress call. cmd/benchguard's sz_quantize_3d row reads
// the generic and fast legs.
func BenchmarkKernelQuantize3D(b *testing.B) {
	f := grid.MustNew("bench", 64, 64, 64)
	for z := 0; z < 64; z++ {
		for y := 0; y < 64; y++ {
			for x := 0; x < 64; x++ {
				f.Set(float32(math.Sin(float64(z)/16)+math.Cos(float64(y)/16)+math.Sin(float64(x)/16)), z, y, x)
			}
		}
	}
	n := f.Size()
	codes := make([]uint16, n)
	recon := make([]float32, n)
	raw := make([]float32, 0, n)
	for _, v := range []struct {
		name    string
		generic bool
	}{{"generic", true}, {"fast", false}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(f.Bytes()))
			for i := 0; i < b.N; i++ {
				raw = quantizeField(f, 1e-3, codes, recon, raw[:0], v.generic)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}
