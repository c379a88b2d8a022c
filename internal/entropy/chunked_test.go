package entropy

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// workerWidths are the widths every chunked-vs-whole identity property is
// checked at: serial, the smallest real fan-out, and whatever the host has.
func workerWidths() []int {
	w := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		w = append(w, n)
	}
	return w
}

// chunkedByteInputs returns the byte-pattern corpus for the byte-container
// properties: constant runs (maximal LZ collapse), uniform noise
// (incompressible), a skewed alphabet (Huffman-friendly), sz-like escape-heavy
// little-endian code words, and the raw bit patterns of NaN/Inf float32
// streams — plus lengths that straddle chunk boundaries by ±1.
func chunkedByteInputs(block int) map[string][]byte {
	rng := rand.New(rand.NewSource(9))
	in := map[string][]byte{}

	constant := make([]byte, 3*block+block/2)
	for i := range constant {
		constant[i] = 0x42
	}
	in["constant"] = constant

	noise := make([]byte, 2*block+1)
	rng.Read(noise)
	in["noise"] = noise

	skew := make([]byte, 4*block-1)
	for i := range skew {
		if rng.Intn(10) == 0 {
			skew[i] = byte(rng.Intn(256))
		} else {
			skew[i] = byte(rng.Intn(4))
		}
	}
	in["skewed"] = skew

	// sz-like codes: mostly near the radius (0x8000) with escape zeros.
	codes := make([]byte, 2*block)
	for i := 0; i+1 < len(codes); i += 2 {
		if rng.Intn(20) == 0 {
			codes[i], codes[i+1] = 0, 0 // escape
		} else {
			v := 0x8000 + rng.Intn(7) - 3
			codes[i], codes[i+1] = byte(v), byte(v>>8)
		}
	}
	in["escape-heavy"] = codes

	// NaN/Inf payloads as they appear in a raw float32 pool.
	special := make([]byte, 0, 3*block)
	for len(special) < 3*block {
		var bits uint32
		switch rng.Intn(3) {
		case 0:
			bits = math.Float32bits(float32(math.NaN()))
		case 1:
			bits = math.Float32bits(float32(math.Inf(1)))
		default:
			bits = math.Float32bits(float32(math.Inf(-1)))
		}
		special = append(special, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	in["nan-inf"] = special

	// Boundary-straddling lengths around exact multiples of the block size.
	for _, d := range []int{-1, 0, 1} {
		n := 2*block + d
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		in[map[int]string{-1: "straddle-minus", 0: "straddle-exact", 1: "straddle-plus"}[d]] = b
	}
	return in
}

// TestChunkedBytesIdentity: the chunked byte container must encode
// byte-identically at every worker width, decode back to the source at every
// width through every entry point, and the legacy coder's blobs must pass
// through the chunk-aware entry points untouched.
func TestChunkedBytesIdentity(t *testing.T) {
	const block = 512
	for name, src := range chunkedByteInputs(block) {
		t.Run(name, func(t *testing.T) {
			var ref []byte
			for _, w := range workerWidths() {
				blob, err := CompressBytesBlocks(src, block, w)
				if err != nil {
					t.Fatalf("encode w=%d: %v", w, err)
				}
				if ref == nil {
					ref = blob
					if !isChunked(blob, chunkedMagicBytes) {
						t.Fatalf("expected a chunked container for %d bytes in %d-byte blocks", len(src), block)
					}
					if got := ChunkedBlockSize(blob); got != block {
						t.Fatalf("ChunkedBlockSize = %d, want %d", got, block)
					}
				} else if !bytes.Equal(blob, ref) {
					t.Fatalf("encode at w=%d differs from w=1", w)
				}
			}
			for _, w := range workerWidths() {
				got, err := DecompressBytes(ref, w)
				if err != nil {
					t.Fatalf("decode w=%d: %v", w, err)
				}
				if !bytes.Equal(got, src) {
					t.Fatalf("decode w=%d round-trip mismatch", w)
				}
			}
			// Legacy blobs flow through the chunk-aware decoder unchanged.
			legacy, err := CompressBytes(src)
			if err != nil {
				t.Fatalf("legacy encode: %v", err)
			}
			if isChunked(legacy, chunkedMagicBytes) {
				t.Fatalf("whole-stream encoder emitted a chunked container")
			}
			got, err := DecompressBytes(legacy, 4)
			if err != nil || !bytes.Equal(got, src) {
				t.Fatalf("legacy blob through DecompressBytes: %v", err)
			}
		})
	}
}

// TestSizeBytesBlocksMatchesCompress: the size path is the encoder stopped
// before emission, so its count is len(CompressBytesBlocks) for every input
// of the corpus, the empty and one-byte inputs, and one-block inputs (the
// whole-stream format), at every width; an invalid block size fails alike.
func TestSizeBytesBlocksMatchesCompress(t *testing.T) {
	const block = 512
	in := chunkedByteInputs(block)
	in["empty"], in["one-byte"], in["one-block"] = nil, []byte{7}, in["skewed"][:block]
	for name, src := range in {
		for _, w := range workerWidths() {
			blob, err := CompressBytesBlocks(src, block, w)
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, w, err)
			}
			if n, err := SizeBytesBlocks(src, block, w); err != nil || n != len(blob) {
				t.Errorf("%s w=%d: size %d (%v), len(CompressBytesBlocks) %d", name, w, n, err, len(blob))
			}
		}
	}
	_, cerr := CompressBytesBlocks([]byte{1}, 0, 1)
	if _, err := SizeBytesBlocks([]byte{1}, 0, 1); err == nil || cerr == nil || err.Error() != cerr.Error() {
		t.Errorf("block size 0: size error %v, compress error %v", err, cerr)
	}
}

// TestChunkedBytesFallback: input that fits in one block must take the legacy
// whole-stream format byte-identically, one byte more must not, and a
// one-chunk container — valid input no encoder emits — must still decode.
func TestChunkedBytesFallback(t *testing.T) {
	src := make([]byte, ChunkTargetBytes+1)
	for i := range src {
		src[i] = byte(i)
	}
	for _, n := range []int{ChunkTargetBytes - 1, ChunkTargetBytes} {
		chunked, err := CompressBytesBlocks(src[:n], ChunkTargetBytes, 2)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := CompressBytes(src[:n])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(chunked, legacy) {
			t.Fatalf("%d bytes: below-cutoff chunked encode is not byte-identical to the legacy format", n)
		}
	}
	if blob, err := CompressBytesBlocks(src, ChunkTargetBytes, 2); err != nil || !isChunked(blob, chunkedMagicBytes) {
		t.Fatalf("two-block input not chunked (err %v)", err)
	}
	one := oneChunkContainer(t, src[:1000], 4096)
	for _, w := range workerWidths() {
		if got, err := DecompressBytes(one, w); err != nil || !bytes.Equal(got, src[:1000]) {
			t.Fatalf("one-chunk container at w=%d: %v", w, err)
		}
	}
	if got, err := DecompressBytesRange(one, 10, 900, 1000, 2); err != nil || !bytes.Equal(got, src[10:900]) {
		t.Fatalf("one-chunk container range: %v", err)
	}
}

// oneChunkContainer builds the 0xCB container of src as a single chunk of a
// blockBytes-wide block (blockBytes >= len(src)).
func oneChunkContainer(t testing.TB, src []byte, blockBytes int) []byte {
	lz := LZCompress(src)
	syms := make([]uint32, len(lz))
	for i, b := range lz {
		syms[i] = uint32(b)
	}
	p, err := planChunks([][]uint32{syms}, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.prefix = []byte{chunkedSentinel, chunkedMagicBytes, chunkedVersion}
	p.prefix = binary.AppendUvarint(p.prefix, uint64(len(src)))
	p.prefix = binary.AppendUvarint(p.prefix, uint64(blockBytes))
	return p.encode(1)
}

// TestChunkedBytesRange: DecompressBytesRange must return exactly src[off:end]
// for ranges inside, straddling, and exactly on chunk boundaries — for both
// chunked and legacy containers.
func TestChunkedBytesRange(t *testing.T) {
	const block = 512
	rng := rand.New(rand.NewSource(11))
	src := make([]byte, 5*block+block/3)
	for i := range src {
		src[i] = byte(rng.Intn(8) * 31)
	}
	chunked, err := CompressBytesBlocks(src, block, 2)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := CompressBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int{
		{0, len(src)},              // everything
		{0, 0},                     // empty at the front
		{len(src), len(src)},       // empty at the back
		{block, 2 * block},         // exactly one chunk
		{block - 1, block + 1},     // straddles a boundary
		{3*block + 7, 5 * block},   // tail across the ragged last chunk
		{block / 2, block/2 + 100}, // interior of one chunk
	}
	for i := 0; i < 32; i++ {
		a := rng.Intn(len(src) + 1)
		b := a + rng.Intn(len(src)+1-a)
		ranges = append(ranges, [2]int{a, b})
	}
	for _, r := range ranges {
		off, end := r[0], r[1]
		for _, blob := range [][]byte{chunked, legacy} {
			got, err := DecompressBytesRange(blob, off, end, len(src), 2)
			if err != nil {
				t.Fatalf("range [%d,%d): %v", off, end, err)
			}
			if !bytes.Equal(got, src[off:end]) {
				t.Fatalf("range [%d,%d): content mismatch", off, end)
			}
		}
	}
	// Invalid ranges and a wrong totalLen must error, not panic.
	if _, err := DecompressBytesRange(chunked, -1, 4, len(src), 1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := DecompressBytesRange(chunked, 4, 2, len(src), 1); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := DecompressBytesRange(chunked, 0, 4, len(src)+1, 1); err == nil {
		t.Fatal("wrong totalLen accepted")
	}
}

// TestChunkedHuffmanIdentity: the symbol container must be deterministic
// across widths, decode back to the input at every width, and fall back to
// the legacy format below the two-chunk cutoff.
func TestChunkedHuffmanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 2*ChunkTargetBytes + 513 // three chunks, last one ragged
	syms := make([]uint32, n)
	for i := range syms {
		if rng.Intn(16) == 0 {
			syms[i] = 0
		} else {
			syms[i] = uint32(0x8000 + rng.Intn(9) - 4)
		}
	}
	const alphabet = 1 << 16
	var ref []byte
	for _, w := range workerWidths() {
		blob, err := HuffmanEncodeChunked(syms, alphabet, w)
		if err != nil {
			t.Fatalf("encode w=%d: %v", w, err)
		}
		if ref == nil {
			ref = blob
			if !isChunked(blob, chunkedMagicHuffman) {
				t.Fatalf("expected a chunked container for %d symbols", n)
			}
		} else if !bytes.Equal(blob, ref) {
			t.Fatalf("encode at w=%d differs from w=1", w)
		}
	}
	for _, w := range workerWidths() {
		got, err := HuffmanDecodeChunked(ref, w)
		if err != nil {
			t.Fatalf("decode w=%d: %v", w, err)
		}
		if len(got) != len(syms) {
			t.Fatalf("decode w=%d: %d symbols, want %d", w, len(got), len(syms))
		}
		for i := range got {
			if got[i] != syms[i] {
				t.Fatalf("decode w=%d: symbol %d = %d, want %d", w, i, got[i], syms[i])
			}
		}
	}
	// Legacy blobs pass through the chunk-aware decoder; short inputs fall
	// back to the legacy format byte-identically.
	short := syms[:ChunkTargetBytes-1]
	chunked, err := HuffmanEncodeChunked(short, alphabet, 2)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := HuffmanEncode(short, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chunked, legacy) {
		t.Fatalf("below-cutoff chunked encode is not byte-identical to the legacy format")
	}
	got, err := HuffmanDecodeChunked(legacy, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != short[i] {
			t.Fatalf("legacy fallback decode mismatch at %d", i)
		}
	}
	// Out-of-alphabet symbols must be rejected with the same shape of error
	// as the whole-stream encoder.
	bad := make([]uint32, 3*ChunkTargetBytes)
	bad[len(bad)-1] = alphabet
	if _, err := HuffmanEncodeChunked(bad, alphabet, 2); err == nil {
		t.Fatal("out-of-alphabet symbol accepted")
	}
}

// TestChunkedConstantInput: a single-symbol alphabet exercises the 1-bit
// degenerate code path across chunks.
func TestChunkedConstantInput(t *testing.T) {
	syms := make([]uint32, 2*ChunkTargetBytes+3)
	blob, err := HuffmanEncodeChunked(syms, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := HuffmanDecodeChunked(blob, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(syms) {
		t.Fatalf("decoded %d symbols, want %d", len(got), len(syms))
	}
	for i, s := range got {
		if s != 0 {
			t.Fatalf("symbol %d = %d, want 0", i, s)
		}
	}
}

// TestChunkedOverhead: the chunked container's bookkeeping (shared table is
// amortized; per-chunk counts, offsets, and LZ window resets are not) must
// stay under 1% of the legacy whole-stream size on a realistic code stream.
func TestChunkedOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 1<<20) // 8 chunks at the default target
	for i := 0; i+1 < len(src); i += 2 {
		var v int
		if rng.Intn(30) == 0 {
			v = 0
		} else {
			v = 0x8000 + rng.Intn(5) - 2
		}
		src[i], src[i+1] = byte(v), byte(v>>8)
	}
	legacy, err := CompressBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := CompressBytesBlocks(src, ChunkTargetBytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	overhead := float64(len(chunked)-len(legacy)) / float64(len(legacy))
	t.Logf("legacy %d bytes, chunked %d bytes, overhead %.4f%%", len(legacy), len(chunked), 100*overhead)
	if overhead > 0.01 {
		t.Fatalf("chunk bookkeeping overhead %.4f%% exceeds the 1%% budget", 100*overhead)
	}
}

// TestLZDecodeRejectsHostileStreams feeds corrupt token streams to both
// entries of the one LZ token loop — grow-on-demand (LZDecompress) and a
// fixed destination (the chunk path) — and both must refuse every one. The
// fixed destination has the declared size as capacity, capped at 1 MiB: past
// that it is refused for the mismatch before the size checks run.
func TestLZDecodeRejectsHostileStreams(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	lit := []byte("abcd")
	cases := []struct {
		name string
		size uint64 // the size the stream declares
		blob []byte
	}{
		{"no header", 0, nil},
		{"truncated header", 0, []byte{0x80}},
		{"implausible size", 1<<36 + 1, uv(1<<36+1, 0, 0)},
		{"impossible expansion", 1 << 20, uv(1<<20, 0, 0)},
		{"literals overflow", 2, cat(uv(2, 4), lit, uv(0))},
		{"truncated literals", 4, cat(uv(4, 4), lit[:2])},
		{"missing terminator", 4, cat(uv(4, 4), lit)},
		{"match over lzMaxMatch", lzMaxMatch + 5, cat(uv(lzMaxMatch+5, 4), lit, uv(lzMaxMatch+1, 1, 0))},
		{"match overflows size", 6, cat(uv(6, 4), lit, uv(4, 1, 0))},
		{"zero distance", 8, cat(uv(8, 4), lit, uv(4, 0, 0))},
		{"distance past output", 8, cat(uv(8, 4), lit, uv(4, 5, 0))},
		{"truncated distance", 8, cat(uv(8, 4), lit, uv(4))},
		{"short of declared size", 5, cat(uv(5, 4), lit, uv(0))},
	}
	for _, c := range cases {
		if out, err := LZDecompress(c.blob); err == nil {
			t.Errorf("%s: grow-on-demand accepted it (%d bytes)", c.name, len(out))
		}
		if out, err := lzDecode(make([]byte, 0, min(c.size, 1<<20)), c.blob); err == nil {
			t.Errorf("%s: fixed destination accepted it (%d bytes)", c.name, len(out))
		}
	}
}

// TestChunkedHostileHeaders: malformed containers must error cleanly.
func TestChunkedHostileHeaders(t *testing.T) {
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i % 5)
	}
	good, err := CompressBytesBlocks(src, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"sentinel only":  {0x00},
		"bad magic":      {0x00, 0xEE, 0x01, 0x01},
		"bad version":    {0x00, 0xCB, 0x09, 0x01},
		"truncated half": good[:len(good)/2],
		"truncated tail": good[:len(good)-1],
	}
	// Flipped-byte corpus over the header region.
	for i := 3; i < 24 && i < len(good); i++ {
		b := bytes.Clone(good)
		b[i] ^= 0xFF
		cases["flip"] = b
		if out, err := DecompressBytes(b, 2); err == nil && !bytes.Equal(out, src) {
			t.Fatalf("flip at %d: silent corruption", i)
		}
	}
	for name, b := range cases {
		if out, err := DecompressBytes(b, 2); err == nil && !bytes.Equal(out, src) {
			t.Fatalf("%s: silent corruption", name)
		}
	}
}
