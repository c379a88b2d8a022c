package entropy

// Chunked, seekable entropy containers.
//
// The whole-stream Huffman and LZ+Huffman coders are serial by construction:
// one bit stream, one dictionary window, decodable only front to back. The
// chunked containers below keep a single shared canonical code-length table
// (so the ratio cost of chunking stays in the per-chunk bookkeeping, not in
// duplicated tables) and split the payload into N independently decodable
// chunks with per-chunk symbol counts and byte-offset deltas. That buys two
// things: decode fans chunks across a worker pool, and a reader that only
// needs a byte range of the original stream entropy-decodes only the chunks
// covering it (DecompressBytesRange) — the primitive the SZ region decoder
// uses to go from O(stream) to O(region).
//
// Container layout (all integers uvarint unless noted):
//
//	byte 0x00        sentinel — a legacy stream starts with uvarint(alphabet)
//	                 and the decoder rejects alphabet 0, so no legacy blob
//	                 ever begins with a zero byte
//	byte magic       0xC5 chunked Huffman symbols | 0xCB chunked LZ bytes
//	byte version     1
//	[0xCB only] srcLen      total uncompressed byte count
//	[0xCB only] blockBytes  source bytes per chunk (last chunk ragged)
//	alphabet
//	n                total symbol count across chunks
//	nchunks
//	nchunks × count  per-chunk symbol counts (sum = n)
//	length table     shared canonical code lengths (same RLE as legacy)
//	nchunks × plen   per-chunk payload byte lengths (byte-offset deltas;
//	                 chunks are byte-aligned, costing < 1 byte per chunk)
//	payloads         concatenated per-chunk bit streams
//
// For the 0xCB byte container, chunk i's symbols are the LZ compression of
// source block i = src[i*blockBytes : min((i+1)*blockBytes, srcLen)] — each
// block is dictionary-coded independently, so a chunk decodes without any
// bytes from its neighbours.
//
// Encoding is deterministic at every worker width: chunk boundaries depend
// only on the input length, the shared frequency table is summed in chunk
// order (integer sums are order-independent), and per-chunk payloads are
// assembled serially. The whole-stream blobs are the one-chunk case under a
// shorter header: they encode through the same plan, header and emission
// stages (huffPlan), parse into the same chunkedCore (parseHuffmanHeader),
// and decode through the same symbol and LZ loops. Every decode entry point
// here sniffs the sentinel, so any blob either encoder produced decodes
// through any of them.

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

const (
	chunkedSentinel     = 0x00
	chunkedMagicHuffman = 0xC5
	chunkedMagicBytes   = 0xCB
	chunkedVersion      = 1

	// ChunkTargetBytes is the target source bytes per chunk of the byte
	// container and the symbols per chunk of the symbol container: large
	// enough that the per-chunk uvarint bookkeeping and LZ window reset stay
	// far under 1% of the payload, small enough that a handful of chunks cover
	// a typical field and region reads skip most of them. Inputs shorter than
	// two chunks encode in the whole-stream format: below that the fan-out
	// costs more than it buys. Exported so callers aligning chunk boundaries
	// to their own structure (sz rows) can derive a block size near this
	// target.
	ChunkTargetBytes = 1 << 17

	// maxChunksCap bounds hostile chunk counts before any per-chunk
	// allocation happens.
	maxChunksCap = 1 << 20
)

// isChunked reports whether blob starts a chunked container with the given
// magic.
func isChunked(blob []byte, magic byte) bool {
	return len(blob) >= 3 && blob[0] == chunkedSentinel && blob[1] == magic && blob[2] == chunkedVersion
}

// ChunkedBlockSize returns the source block size of a chunked byte container
// (the byte span each chunk decodes independently), or 0 when blob is not
// one. Callers use it to map their own structure onto chunk boundaries
// without decoding anything.
func ChunkedBlockSize(blob []byte) int {
	if !isChunked(blob, chunkedMagicBytes) {
		return 0
	}
	rest := blob[3:]
	if _, k := binary.Uvarint(rest); k > 0 {
		rest = rest[k:]
		if b, k := binary.Uvarint(rest); k > 0 && b > 0 && b <= 1<<36 {
			return int(b)
		}
	}
	return 0
}

// HuffmanEncodeChunked encodes symbols like HuffmanEncode but into the
// chunked container, splitting the stream into ChunkTargetBytes-symbol
// chunks that HuffmanDecodeChunked can decode in parallel. Inputs shorter
// than two chunks produce the legacy whole-stream format byte-identically.
// Output is identical at every worker count.
func HuffmanEncodeChunked(symbols []uint32, alphabet, workers int) ([]byte, error) {
	nchunks := (len(symbols) + ChunkTargetBytes - 1) / ChunkTargetBytes
	if nchunks < 2 {
		return HuffmanEncode(symbols, alphabet)
	}
	chunks := make([][]uint32, nchunks)
	for i := range chunks {
		chunks[i] = symbols[i*ChunkTargetBytes : min((i+1)*ChunkTargetBytes, len(symbols))]
	}
	p, err := planChunks(chunks, alphabet, workers)
	if err != nil {
		return nil, err
	}
	p.prefix = []byte{chunkedSentinel, chunkedMagicHuffman, chunkedVersion}
	return p.encode(workers), nil
}

// HuffmanDecodeChunked reverses HuffmanEncodeChunked with up to `workers`
// chunks decoding concurrently. Legacy whole-stream blobs are dispatched to
// HuffmanDecode, so any blob either encoder produced decodes here.
func HuffmanDecodeChunked(blob []byte, workers int) ([]uint32, error) {
	if !isChunked(blob, chunkedMagicHuffman) {
		obs.Inc("entropy/legacy_decode")
		return HuffmanDecode(blob)
	}
	h, err := parseChunkedCore(blob[3:])
	if err != nil {
		return nil, err
	}
	recordChunkedDecode(len(h.counts))
	return h.decodeAll(workers, true)
}

// CompressBytesBlocks is CompressBytes in the chunked container: src is cut
// into blocks of blockBytes, each LZ-coded independently, with one shared
// Huffman table over all chunks. Callers pass ChunkTargetBytes, or align
// chunk boundaries to their own structure (sz uses a multiple of its row
// size so slab boundaries land on chunk boundaries). Input that fits in one
// block takes the whole-stream format, byte-identical to CompressBytes.
// Output is identical at every worker count.
func CompressBytesBlocks(src []byte, blockBytes, workers int) ([]byte, error) {
	p, err := planBytes(src, blockBytes, workers)
	if err != nil {
		return nil, err
	}
	defer p.release()
	return p.encode(workers), nil
}

// SizeBytesBlocks returns len(CompressBytesBlocks(src, blockBytes, workers))
// without writing the blob: the same LZ stage and Huffman plan, stopped
// before emission.
func SizeBytesBlocks(src []byte, blockBytes, workers int) (int, error) {
	p, err := planBytes(src, blockBytes, workers)
	if err != nil {
		return 0, err
	}
	defer p.release()
	return p.size(), nil
}

// planBytes runs CompressBytesBlocks up to emission: the blocks' LZ coding
// and the Huffman plan over their token bytes, one chunk per block. The
// caller releases the plan.
func planBytes(src []byte, blockBytes, workers int) (*huffPlan, error) {
	if blockBytes <= 0 {
		return nil, fmt.Errorf("entropy: invalid chunk block size %d", blockBytes)
	}
	nblocks := max(1, (len(src)+blockBytes-1)/blockBytes)
	if nblocks > maxChunksCap {
		return nil, fmt.Errorf("entropy: %d chunks exceed cap (block size %d for %d bytes)", nblocks, blockBytes, len(src))
	}
	// Each block is dictionary-coded independently so its chunk decodes
	// without neighbours; the match search inside a block is the serial
	// LZCompress, so per-block output is deterministic and the fan-out is
	// over blocks only.
	lz := make([][]byte, nblocks)
	pool.Run(workers, nblocks, func(i int) {
		lz[i] = LZCompress(src[i*blockBytes : min((i+1)*blockBytes, len(src))])
	})
	chunks := make([][]uint32, nblocks)
	total := 0
	for _, b := range lz {
		total += len(b)
	}
	syms := u32Scratch.Get(total)
	pos := 0
	for i, b := range lz {
		chunk := syms[pos : pos+len(b)]
		for j, v := range b {
			chunk[j] = uint32(v)
		}
		chunks[i] = chunk
		pos += len(b)
		byteScratch.Put(b)
	}
	p, err := planChunks(chunks, 256, workers)
	if err != nil {
		u32Scratch.Put(syms)
		return nil, err
	}
	p.syms = syms
	if nblocks > 1 {
		p.prefix = []byte{chunkedSentinel, chunkedMagicBytes, chunkedVersion}
		p.prefix = binary.AppendUvarint(p.prefix, uint64(len(src)))
		p.prefix = binary.AppendUvarint(p.prefix, uint64(blockBytes))
	}
	return p, nil
}

// DecompressBytes reverses CompressBytes and CompressBytesBlocks: it sniffs
// the container and decodes the chunks of a chunked one across up to
// `workers` goroutines. Legacy whole-stream blobs take the serial path.
func DecompressBytes(blob []byte, workers int) ([]byte, error) {
	if !isChunked(blob, chunkedMagicBytes) {
		obs.Inc("entropy/legacy_decode")
		return decompressBytesLegacy(blob)
	}
	h, srcLen, blockBytes, err := parseChunkedBytes(blob)
	if err != nil {
		return nil, err
	}
	recordChunkedDecode(len(h.counts))
	out := make([]byte, srcLen)
	if err := h.decodeBlocksInto(out, 0, len(h.counts), blockBytes, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressBytesRange returns bytes [off, end) of the stream a CompressBytes
// variant encoded. totalLen is the caller's expected uncompressed length and
// is validated against the container. For a chunked container only the chunks
// covering [off, end) are entropy-decoded — cost O(range), not O(stream);
// legacy blobs decode in full and slice.
func DecompressBytesRange(blob []byte, off, end, totalLen, workers int) ([]byte, error) {
	if off < 0 || end < off || end > totalLen {
		return nil, fmt.Errorf("entropy: invalid byte range [%d, %d) of %d", off, end, totalLen)
	}
	if !isChunked(blob, chunkedMagicBytes) {
		obs.Inc("entropy/legacy_decode")
		all, err := decompressBytesLegacy(blob)
		if err != nil {
			return nil, err
		}
		if len(all) != totalLen {
			return nil, fmt.Errorf("entropy: stream decodes to %d bytes, caller expected %d", len(all), totalLen)
		}
		return all[off:end], nil
	}
	h, srcLen, blockBytes, err := parseChunkedBytes(blob)
	if err != nil {
		return nil, err
	}
	if srcLen != totalLen {
		return nil, fmt.Errorf("entropy: chunked stream holds %d bytes, caller expected %d", srcLen, totalLen)
	}
	c0 := off / blockBytes
	c1 := (end + blockBytes - 1) / blockBytes
	if c1 > len(h.counts) {
		c1 = len(h.counts)
	}
	if c0 >= c1 {
		c0, c1 = 0, 0
	}
	recordChunkedDecode(c1 - c0)
	buf := make([]byte, min(c1*blockBytes, srcLen)-c0*blockBytes)
	if err := h.decodeBlocksInto(buf, c0, c1, blockBytes, workers); err != nil {
		return nil, err
	}
	return buf[off-c0*blockBytes : end-c0*blockBytes], nil
}

// decompressBytesLegacy decodes a whole-stream blob (Huffman then LZ) as the
// one chunk it is: symbols and LZ bytes stage in pooled scratch, and the LZ
// output grows on demand from a capped first allocation.
func decompressBytesLegacy(blob []byte) ([]byte, error) {
	h, err := parseHuffmanHeader(blob)
	if err != nil {
		return nil, err
	}
	dec, err := h.newDecoder(true)
	if err != nil {
		return nil, err
	}
	defer dec.release()
	return h.decodeLZChunk(dec, 0, nil)
}

// recordChunkedDecode bumps the chunked-traffic counters: serve-time adoption
// of the new container is observable as chunked vs legacy decode counts plus
// a chunks-per-blob histogram (obs histograms bucket int64 durations, so the
// chunk count rides in as a Duration — the power-of-two buckets and quantiles
// read directly as chunk counts).
func recordChunkedDecode(nchunks int) {
	obs.Inc("entropy/chunked_decode")
	obs.Observe("entropy/chunks_per_blob", time.Duration(nchunks))
}

// chunkedCore is a parsed chunked container from the alphabet field onward.
type chunkedCore struct {
	alphabet int
	n        int
	counts   []int
	lengths  []uint8
	payloads [][]byte
}

// parseChunkedCore parses and validates everything after the 3-byte
// container prefix. Payload slices are views into blob.
func parseChunkedCore(body []byte) (*chunkedCore, error) {
	a, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, ErrTruncated
	}
	body = body[k:]
	n, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, ErrTruncated
	}
	body = body[k:]
	nchunks, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, ErrTruncated
	}
	body = body[k:]
	if a == 0 || a > 1<<24 || n > 1<<34 || nchunks == 0 || nchunks > maxChunksCap {
		return nil, fmt.Errorf("entropy: implausible chunked header (alphabet %d, count %d, chunks %d)", a, n, nchunks)
	}
	h := &chunkedCore{alphabet: int(a), n: int(n), counts: make([]int, nchunks)}
	var sum uint64
	for i := range h.counts {
		c, k := binary.Uvarint(body)
		if k <= 0 {
			return nil, ErrTruncated
		}
		body = body[k:]
		sum += c
		if c > n || sum > n {
			return nil, fmt.Errorf("entropy: chunk symbol counts overflow total %d", n)
		}
		h.counts[i] = int(c)
	}
	if sum != n {
		return nil, fmt.Errorf("entropy: chunk symbol counts sum to %d, header says %d", sum, n)
	}
	var err error
	h.lengths, body, err = readLengthTable(body, h.alphabet)
	if err != nil {
		return nil, err
	}
	plens := make([]uint64, nchunks)
	var psum uint64
	for i := range plens {
		p, k := binary.Uvarint(body)
		if k <= 0 {
			return nil, ErrTruncated
		}
		body = body[k:]
		psum += p
		if psum > uint64(len(body)) {
			return nil, ErrTruncated
		}
		plens[i] = p
	}
	if psum != uint64(len(body)) {
		return nil, fmt.Errorf("entropy: %d payload bytes for %d declared", len(body), psum)
	}
	// Every symbol costs at least one bit, so a chunk's count cannot exceed
	// its payload bit length (the legacy decoder's fit check, per chunk).
	// This also bounds the output allocation by the input size.
	h.payloads = make([][]byte, nchunks)
	for i, p := range plens {
		h.payloads[i] = body[:p]
		body = body[p:]
		if uint64(h.counts[i]) > 8*p {
			return nil, fmt.Errorf("entropy: chunk %d: %d symbols cannot fit in %d payload bytes", i, h.counts[i], p)
		}
	}
	return h, nil
}

// parseChunkedBytes parses a chunked byte container's prefix and core and
// cross-checks the block structure.
func parseChunkedBytes(blob []byte) (h *chunkedCore, srcLen, blockBytes int, err error) {
	body := blob[3:]
	s, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, 0, 0, ErrTruncated
	}
	body = body[k:]
	b, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, 0, 0, ErrTruncated
	}
	body = body[k:]
	if s > 1<<36 || b == 0 || b > 1<<36 {
		return nil, 0, 0, fmt.Errorf("entropy: implausible chunked byte header (size %d, block %d)", s, b)
	}
	if h, err = parseChunkedCore(body); err != nil {
		return nil, 0, 0, err
	}
	want := int((s + b - 1) / b)
	if want < 1 {
		want = 1
	}
	if len(h.counts) != want {
		return nil, 0, 0, fmt.Errorf("entropy: %d chunks for %d bytes in %d-byte blocks (want %d)", len(h.counts), s, b, want)
	}
	return h, int(s), int(b), nil
}

// forChunks runs fn over n chunks: a lone chunk runs inline, several fan
// out over pool.RunErr, which reports the lowest-indexed chunk's error.
func forChunks(workers, n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	return pool.RunErr(workers, n, fn)
}

// decodeAll decodes every chunk, up to workers at a time, into one slice;
// useTable is huffmanDecode's seam.
func (h *chunkedCore) decodeAll(workers int, useTable bool) ([]uint32, error) {
	dec, err := h.newDecoder(useTable)
	if err != nil {
		return nil, err
	}
	defer dec.release()
	out := make([]uint32, h.n)
	offs := make([]int, len(h.counts)+1)
	for i, c := range h.counts {
		offs[i+1] = offs[i] + c
	}
	err = forChunks(workers, len(h.counts), func(i int) error {
		return h.decodeChunk(dec, i, out[offs[i]:offs[i+1]])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// decodeChunk decodes chunk i's symbols into out (len counts[i]).
func (h *chunkedCore) decodeChunk(dec *canonicalDecoder, i int, out []uint32) error {
	r := BitReader{buf: h.payloads[i]}
	return dec.decode(&r, out)
}

// decodeLZChunk Huffman-decodes chunk i's LZ token bytes into pooled scratch
// and LZ-decodes them onto dst as lzDecode does.
func (h *chunkedCore) decodeLZChunk(dec *canonicalDecoder, i int, dst []byte) ([]byte, error) {
	syms := u32Scratch.Get(h.counts[i])
	defer u32Scratch.Put(syms)
	if err := h.decodeChunk(dec, i, syms); err != nil {
		return nil, err
	}
	lz := byteScratch.Get(len(syms))
	defer byteScratch.Put(lz)
	for j, s := range syms {
		lz[j] = byte(s)
	}
	return lzDecode(dst, lz)
}

// decodeBlocksInto decodes byte-container chunks [c0, c1) into out, which
// must hold exactly the source bytes those blocks cover (the last block may
// be ragged). Each chunk LZ-decodes in place into its disjoint segment of out.
func (h *chunkedCore) decodeBlocksInto(out []byte, c0, c1, blockBytes, workers int) error {
	if h.alphabet != 256 {
		return fmt.Errorf("entropy: chunked byte stream has alphabet %d, want 256", h.alphabet)
	}
	dec, err := h.newDecoder(true)
	if err != nil {
		return err
	}
	defer dec.release()
	return forChunks(workers, c1-c0, func(t int) error {
		lo := t * blockBytes
		_, err := h.decodeLZChunk(dec, c0+t, out[lo:lo:min(lo+blockBytes, len(out))])
		return err
	})
}
