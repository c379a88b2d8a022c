package sz

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress/compresstest"
	"github.com/fxrz-go/fxrz/internal/grid"
)

func BenchmarkCompress(b *testing.B)   { compresstest.BenchCompress(b, New(), 1e-3) }
func BenchmarkDecompress(b *testing.B) { compresstest.BenchDecompress(b, New(), 1e-3) }

// kernelField is the smooth 64³ field both kernel benchmarks run on.
func kernelField() *grid.Field {
	f := grid.MustNew("bench", 64, 64, 64)
	for z := 0; z < 64; z++ {
		for y := 0; y < 64; y++ {
			for x := 0; x < 64; x++ {
				f.Set(float32(math.Sin(float64(z)/16)+math.Cos(float64(y)/16)+math.Sin(float64(x)/16)), z, y, x)
			}
		}
	}
	return f
}

// kernelLegs are the two legs cmd/benchguard reads: the generic odometer
// oracle against the row-group kernel.
var kernelLegs = []struct {
	name    string
	generic bool
}{{"generic", true}, {"fast", false}}

// BenchmarkKernelQuantize3D compares the generic odometer Lorenzo pass
// against the 3D row-group kernel — the hot loop of every Compress call.
// cmd/benchguard's sz_quantize_3d row reads the generic and fast legs.
func BenchmarkKernelQuantize3D(b *testing.B) {
	f := kernelField()
	n := f.Size()
	codes := make([]uint16, n)
	recon := make([]float32, n)
	for _, v := range kernelLegs {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(f.Bytes()))
			for i := 0; i < b.N; i++ {
				quantizeField(f, 1e-3, codes, recon, v.generic)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}

// BenchmarkKernelReconstruct3D is the decode twin of BenchmarkKernelQuantize3D
// on the same field's codes: the hot loop of every Decompress call.
// cmd/benchguard's sz_reconstruct_3d row reads the generic and fast legs.
func BenchmarkKernelReconstruct3D(b *testing.B) {
	f := kernelField()
	n := f.Size()
	codes := make([]uint16, n)
	recon := make([]float32, n)
	quantizeField(f, 1e-3, codes, recon, false)
	codeBytes := make([]byte, 2*n)
	var rawPayload []byte
	for i, c := range codes {
		binary.LittleEndian.PutUint16(codeBytes[2*i:], c)
		if c == 0 {
			rawPayload = binary.LittleEndian.AppendUint32(rawPayload, math.Float32bits(f.Data[i]))
		}
	}
	out := grid.MustNew("bench", f.Dims...)
	for _, v := range kernelLegs {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(f.Bytes()))
			for i := 0; i < b.N; i++ {
				if _, err := reconstructBox(out.Data, out.Dims, out.Dims[1:], 1e-3, codeBytes, rawPayload, uint64(len(rawPayload)/4), 0, v.generic); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}
