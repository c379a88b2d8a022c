package entropy

import (
	"bytes"
	"math/rand"
	"testing"
)

func benchData() []byte {
	// Quantization-code-like bytes: long runs with sparse disturbances.
	rng := rand.New(rand.NewSource(1))
	data := bytes.Repeat([]byte{0, 0x80}, 1<<18)
	for i := 0; i < len(data)/100; i++ {
		data[rng.Intn(len(data))] = byte(rng.Intn(256))
	}
	return data
}

func BenchmarkLZCompress(b *testing.B) {
	data := benchData()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		LZCompress(data)
	}
}

func BenchmarkLZDecompress(b *testing.B) {
	data := benchData()
	blob := LZCompress(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LZDecompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHuffmanEncode(b *testing.B) {
	data := benchData()
	syms := make([]uint32, len(data))
	for i, v := range data {
		syms[i] = uint32(v)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HuffmanEncode(syms, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelHuffmanDecode compares the bit-at-a-time canonical walk
// against the first-level-table decoder on a quantization-code-like stream.
// cmd/benchguard's huffman_decode row reads the bitwise and table legs.
func BenchmarkKernelHuffmanDecode(b *testing.B) {
	data := benchData()
	syms := make([]uint32, len(data))
	for i, v := range data {
		syms[i] = uint32(v)
	}
	blob, err := HuffmanEncode(syms, 256)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name     string
		useTable bool
	}{{"bitwise", false}, {"table", true}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := huffmanDecode(blob, v.useTable); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(syms)), "ns/elem")
		})
	}
}

// BenchmarkKernelLZCompress compares the frozen byte-wise match search
// (lz_ref_test.go) against LZCompress on a quantization-code-like stream;
// both emit the same tokens. cmd/benchguard's lz_compress row reads the ref
// and fast legs.
func BenchmarkKernelLZCompress(b *testing.B) {
	data := benchData()
	for _, v := range []struct {
		name string
		fn   func([]byte) []byte
	}{{"ref", lzCompressRef}, {"fast", LZCompress}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				byteScratch.Put(v.fn(data))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/elem")
		})
	}
}

func BenchmarkRangeCoder(b *testing.B) {
	n := 1 << 18
	b.SetBytes(int64(n / 8))
	for i := 0; i < b.N; i++ {
		enc := NewRangeEncoder()
		m := NewBitModels(4)
		for j := 0; j < n; j++ {
			enc.EncodeBit(&m[j&3], uint(j>>5)&1)
		}
		enc.Finish()
	}
}
