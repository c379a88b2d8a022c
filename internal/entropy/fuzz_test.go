package entropy

import (
	"bytes"
	"testing"
)

// FuzzLZDecompress ensures the dictionary decoder never panics or
// over-allocates on arbitrary input.
func FuzzLZDecompress(f *testing.F) {
	f.Add(LZCompress([]byte("hello hello hello")))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := LZDecompress(data)
		if err == nil && len(out) > 1<<28 {
			t.Fatalf("implausible expansion to %d bytes accepted", len(out))
		}
	})
}

// FuzzHuffmanDecode ensures the canonical Huffman decoder is panic-free and
// that the table-driven and bit-at-a-time paths agree on arbitrary blobs.
func FuzzHuffmanDecode(f *testing.F) {
	blob, _ := HuffmanEncode([]uint32{1, 2, 3, 1, 1, 2}, 8)
	f.Add(blob)
	long := make([]uint32, 512)
	for i := range long {
		long[i] = uint32(i % 200)
	}
	if blob, err := HuffmanEncode(long, 200); err == nil {
		f.Add(blob) // long enough to engage the decode table
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, errT := huffmanDecode(data, true)
		bit, errB := huffmanDecode(data, false)
		if (errT == nil) != (errB == nil) {
			t.Fatalf("table err=%v, bitwise err=%v", errT, errB)
		}
		if errT == nil {
			if len(tab) != len(bit) {
				t.Fatalf("table %d symbols, bitwise %d", len(tab), len(bit))
			}
			for i := range tab {
				if tab[i] != bit[i] {
					t.Fatalf("symbol %d: table %d, bitwise %d", i, tab[i], bit[i])
				}
			}
		}
	})
}

// FuzzChunkedEntropy drives the chunked-container byte decoder with arbitrary
// blobs (it must reject or decode, never panic or over-allocate), checks
// that serial and parallel decodes of whatever parses agree byte for byte,
// and round-trips the raw input through a forced-small-block encode so every
// mutation also exercises chunk-boundary bookkeeping and range decode.
func FuzzChunkedEntropy(f *testing.F) {
	sample := bytes.Repeat([]byte("chunked entropy \x00\x01\xfe\xff"), 40)
	if blob, err := CompressBytesBlocks(sample, 64, 1); err == nil {
		f.Add(blob)
	}
	if blob, err := CompressBytes(sample); err == nil {
		f.Add(blob) // legacy container through the same dispatch
	}
	f.Add(oneChunkContainer(f, sample, 1024)) // valid, though no encoder emits it
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xCB, 0x01})
	f.Add([]byte{0x00, 0xC5, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if out, err := DecompressBytes(data, 3); err == nil {
			if len(out) > 1<<28 {
				t.Fatalf("implausible expansion to %d bytes accepted", len(out))
			}
			serial, err := DecompressBytes(data, 1)
			if err != nil {
				t.Fatalf("parallel decoded %d bytes, serial errored: %v", len(out), err)
			}
			if !bytes.Equal(out, serial) {
				t.Fatal("serial and parallel decodes disagree")
			}
		}
		if syms, err := HuffmanDecodeChunked(data, 2); err == nil && len(syms) > 1<<28 {
			t.Fatalf("implausible expansion to %d symbols accepted", len(syms))
		}
		if len(data) == 0 {
			return
		}
		// Round-trip with a hostile block size so most inputs span several
		// chunks. Cap the encoded prefix: per-chunk bookkeeping makes
		// thousands-of-tiny-chunks encodes slow (they are valid, just not a
		// layout any caller produces), and throughput matters more here.
		if len(data) > 1<<13 {
			data = data[:1<<13]
		}
		blockBytes := 16 + int(data[0])%113
		blob, err := CompressBytesBlocks(data, blockBytes, 2)
		if err != nil {
			t.Fatalf("encode (block %d): %v", blockBytes, err)
		}
		back, err := DecompressBytes(blob, 2)
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("round trip mismatch")
		}
		off := int(data[len(data)-1]) % len(data)
		end := off + 1 + int(data[0])%(len(data)-off)
		got, err := DecompressBytesRange(blob, off, end, len(data), 2)
		if err != nil {
			t.Fatalf("range [%d,%d): %v", off, end, err)
		}
		if !bytes.Equal(got, data[off:end]) {
			t.Fatalf("range [%d,%d) mismatch", off, end)
		}
	})
}
