package entropy

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"github.com/fxrz-go/fxrz/internal/obs"
)

// maxHuffmanLen caps code lengths so the decoder can use fixed-width tables.
// Lengths are limited with a simple push-down rebalance (sufficient for the
// ≤ 2^16-symbol alphabets the SZ quantizer produces).
const maxHuffmanLen = 32

// HuffmanEncode entropy-codes a sequence of symbols drawn from the alphabet
// [0, alphabet). The output embeds a canonical code-length table followed by
// the bit stream, so HuffmanDecode needs no side information beyond the blob.
// It is the one-chunk case of the chunked container's coder (encodeChunks)
// under the whole-stream header.
func HuffmanEncode(symbols []uint32, alphabet int) ([]byte, error) {
	lengths, payloads, err := encodeChunks([][]uint32{symbols}, alphabet, 1)
	if err != nil {
		return nil, err
	}
	payload := payloads[0]
	// Stage the header through the scratch pool like the payload: only the
	// final exact-size blob is freshly allocated (callers keep it, so it can
	// never be recycled).
	hdr := byteScratch.Get(0)
	hdr = binary.AppendUvarint(hdr, uint64(alphabet))
	hdr = binary.AppendUvarint(hdr, uint64(len(symbols)))
	// Length table: run-length encode zeros since most alphabets are sparse.
	hdr = appendLengthTable(hdr, lengths)
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	out := make([]byte, 0, len(hdr)+len(payload))
	out = append(out, hdr...)
	out = append(out, payload...)
	byteScratch.Put(hdr)
	byteScratch.Put(payload)
	return out, nil
}

// encodeChunks is the one Huffman code builder: it counts every chunk's
// symbol frequencies, sums them in chunk order into one canonical code, and
// emits each chunk's bit stream with that code. Counting and emission fan out
// per chunk; integer sums and per-chunk streams make the result identical at
// every worker count. The payloads come from the byte scratch pool.
func encodeChunks(chunks [][]uint32, alphabet, workers int) (lengths []uint8, payloads [][]byte, err error) {
	if alphabet <= 0 {
		return nil, nil, fmt.Errorf("entropy: invalid alphabet size %d", alphabet)
	}
	freqs := make([][]int, len(chunks))
	defer func() {
		for _, f := range freqs {
			intScratch.Put(f)
		}
	}()
	// pool.RunErr's lowest-index error is the first bad symbol of the first
	// chunk holding one, the one a serial scan would report.
	err = forChunks(workers, len(chunks), func(i int) error {
		f := intScratch.Get(alphabet)
		clear(f)
		freqs[i] = f
		for _, s := range chunks[i] {
			if int(s) >= alphabet {
				return fmt.Errorf("entropy: symbol %d outside alphabet %d", s, alphabet)
			}
			f[s]++
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	freq := freqs[0]
	for _, f := range freqs[1:] {
		for s, c := range f {
			freq[s] += c
		}
	}
	lengths = huffmanLengths(freq)
	codes := canonicalCodes(lengths)
	defer codeScratch.Put(codes)
	payloads = make([][]byte, len(chunks))
	_ = forChunks(workers, len(chunks), func(i int) error { // emission cannot fail
		w := NewPooledBitWriter()
		for _, s := range chunks[i] {
			c := codes[s]
			w.WriteBits(uint64(c.code), uint(c.len))
		}
		payloads[i] = w.Bytes()
		return nil
	})
	return lengths, payloads, nil
}

// HuffmanDecode reverses HuffmanEncode.
func HuffmanDecode(blob []byte) ([]uint32, error) {
	return huffmanDecode(blob, true)
}

// huffmanDecode is the implementation behind HuffmanDecode. useTable selects
// the table-driven fast path; tests pass false to pin the table decoder to
// the bit-at-a-time oracle.
func huffmanDecode(blob []byte, useTable bool) ([]uint32, error) {
	h, err := parseHuffmanHeader(blob)
	if err != nil {
		return nil, err
	}
	return h.decodeAll(1, useTable)
}

// parseHuffmanHeader parses a whole-stream blob as the one-chunk container it
// is, so both formats decode through the same chunk loop.
func parseHuffmanHeader(blob []byte) (*chunkedCore, error) {
	a, k := binary.Uvarint(blob)
	if k <= 0 {
		return nil, ErrTruncated
	}
	blob = blob[k:]
	cnt, k := binary.Uvarint(blob)
	if k <= 0 {
		return nil, ErrTruncated
	}
	blob = blob[k:]
	if a > 1<<24 || cnt > 1<<34 {
		return nil, fmt.Errorf("entropy: implausible header (alphabet %d, count %d)", a, cnt)
	}
	lengths, blob, err := readLengthTable(blob, int(a))
	if err != nil {
		return nil, err
	}
	plen, k := binary.Uvarint(blob)
	if k <= 0 {
		return nil, ErrTruncated
	}
	blob = blob[k:]
	if uint64(len(blob)) < plen {
		return nil, ErrTruncated
	}
	if a == 0 {
		return nil, fmt.Errorf("entropy: zero alphabet")
	}
	// Every code is at least one bit long, so the count cannot exceed the
	// payload's bit length; this also bounds the output allocation.
	n, payload := int(cnt), blob[:plen]
	if n > 8*len(payload) {
		return nil, fmt.Errorf("entropy: %d symbols cannot fit in %d payload bytes", n, len(payload))
	}
	return &chunkedCore{alphabet: int(a), n: n, counts: []int{n}, lengths: lengths, payloads: [][]byte{payload}}, nil
}

// huffmanLengths computes code lengths from frequencies via the classic
// two-queue/heap construction, then limits lengths to maxHuffmanLen.
func huffmanLengths(freq []int) []uint8 {
	type node struct {
		w           int
		sym         int // >= 0 for leaves
		left, right int // indices into pool for internal nodes
	}
	pool := make([]node, 0, 2*len(freq))
	h := &intHeap{}
	for s, f := range freq {
		if f > 0 {
			pool = append(pool, node{w: f, sym: s, left: -1, right: -1})
			heap.Push(h, heapItem{w: f, idx: len(pool) - 1})
		}
	}
	lengths := make([]uint8, len(freq))
	switch h.Len() {
	case 0:
		return lengths
	case 1:
		// A single distinct symbol still needs a 1-bit code.
		lengths[pool[0].sym] = 1
		return lengths
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(heapItem)
		b := heap.Pop(h).(heapItem)
		pool = append(pool, node{w: a.w + b.w, sym: -1, left: a.idx, right: b.idx})
		heap.Push(h, heapItem{w: a.w + b.w, idx: len(pool) - 1})
	}
	root := heap.Pop(h).(heapItem).idx
	// Iterative depth-first traversal to assign depths.
	type frame struct{ idx, depth int }
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := pool[f.idx]
		if nd.sym >= 0 {
			d := f.depth
			if d == 0 {
				d = 1
			}
			if d > maxHuffmanLen {
				d = maxHuffmanLen
			}
			lengths[nd.sym] = uint8(d)
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	fixKraft(lengths)
	return lengths
}

// fixKraft repairs any Kraft-inequality violation introduced by clamping
// lengths, by lengthening the shortest over-short codes.
func fixKraft(lengths []uint8) {
	for {
		var sum uint64
		for _, l := range lengths {
			if l > 0 {
				sum += 1 << (maxHuffmanLen - l)
			}
		}
		if sum <= 1<<maxHuffmanLen {
			return
		}
		// Find the longest code shorter than the cap and lengthen it.
		best := -1
		for s, l := range lengths {
			if l > 0 && l < maxHuffmanLen && (best < 0 || l > lengths[best]) {
				best = s
			}
		}
		if best < 0 {
			return // cannot repair; should be impossible for sane alphabets
		}
		lengths[best]++
	}
}

type heapItem struct{ w, idx int }

type intHeap []heapItem

func (h intHeap) Len() int { return len(h) }
func (h intHeap) Less(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w < h[j].w
	}
	return h[i].idx < h[j].idx
}
func (h intHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)   { *h = append(*h, x.(heapItem)) }
func (h *intHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

type huffCode struct {
	code uint32
	len  uint8
}

// canonicalCodes assigns canonical codes (shorter codes first, then by
// symbol), stored bit-reversed so they can be emitted LSB-first. The table
// comes from the scratch pool; callers return it with codeScratch.Put.
// Entries for zero-length symbols are left stale: encoders only index the
// table with symbols whose frequency is non-zero, which always have a
// freshly assigned code.
func canonicalCodes(lengths []uint8) []huffCode {
	type symLen struct {
		sym int
		l   uint8
	}
	var syms []symLen
	for s, l := range lengths {
		if l > 0 {
			syms = append(syms, symLen{s, l})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].l != syms[j].l {
			return syms[i].l < syms[j].l
		}
		return syms[i].sym < syms[j].sym
	})
	codes := codeScratch.Get(len(lengths))
	var code uint32
	var prevLen uint8
	for _, sl := range syms {
		code <<= (sl.l - prevLen)
		prevLen = sl.l
		codes[sl.sym] = huffCode{code: bits.Reverse32(code) >> (32 - sl.l), len: sl.l}
		code++
	}
	return codes
}

// First-level decode table parameters. A code of length l ≤ decTableBits
// occupies 2^(decTableBits-l) table slots (one per padding combination), so a
// single masked peek at the bit reader resolves it without the per-bit
// canonical walk. Codes longer than decTableBits, invalid prefixes, and
// end-of-stream tails all fall through to the bit-at-a-time path, which keeps
// the original error semantics exactly.
const (
	decTableBits = 12
	decTableSize = 1 << decTableBits
	// decTableMinSymbols gates table construction: filling 4096 entries only
	// pays off when the stream is long enough to amortise it.
	decTableMinSymbols = 128
)

// decEntry packs a first-level table hit as symbol<<6 | codeLen. Zero means
// "no code of length ≤ decTableBits has this prefix". Symbols fit in 24 bits
// (both header parsers cap the alphabet at 2^24) and lengths in 6.
type decEntry uint32

// noTable is the first-level table of a decoder built without one: every
// entry misses, so every symbol takes the canonical walk.
var noTable = new([decTableSize]decEntry)

// canonicalDecoder resolves short codes through a fixed-width first-level
// table and walks the remainder bit by bit using first-code/offset tables.
type canonicalDecoder struct {
	// firstCode[l] is the canonical value of the first code of length l,
	// and symAt maps (l, code-firstCode[l]) to the symbol.
	count   [maxHuffmanLen + 1]int
	first   [maxHuffmanLen + 1]uint32
	offset  [maxHuffmanLen + 1]int
	symbols []uint32
	// table is the pooled first-level lookup table, or nil when the caller
	// declined it or the length table over-subscribes the code space.
	table []decEntry
}

// newDecoder builds the canonical decoder for the container's length table,
// with the first-level table when useTable is set and the stream is long
// enough to amortise it. The decoder is read-only after construction, so
// every chunk worker shares it; the caller must release() it once all
// workers are done.
func (h *chunkedCore) newDecoder(useTable bool) (*canonicalDecoder, error) {
	d := &canonicalDecoder{}
	var kraft uint64
	for _, l := range h.lengths {
		if l > maxHuffmanLen {
			return nil, fmt.Errorf("entropy: code length %d exceeds cap", l)
		}
		if l > 0 {
			d.count[l]++
			kraft += 1 << (maxHuffmanLen - l)
		}
	}
	var code uint32
	idx := 0
	for l := 1; l <= maxHuffmanLen; l++ {
		code <<= 1
		d.first[l] = code
		d.offset[l] = idx
		code += uint32(d.count[l])
		idx += d.count[l]
	}
	d.symbols = make([]uint32, idx)
	var next [maxHuffmanLen + 1]int
	for s, l := range h.lengths {
		if l > 0 {
			d.symbols[d.offset[l]+next[l]] = uint32(s)
			next[l]++
		}
	}
	// An over-subscribed length table (Kraft sum > 1) assigns overlapping
	// codes; reversed indices would collide, so leave the table off and let
	// the bit-wise walk reproduce the historical behaviour for such blobs.
	if useTable && h.n >= decTableMinSymbols && kraft <= 1<<maxHuffmanLen {
		d.buildTable()
		obs.Inc("entropy/huffdec_table")
	} else {
		obs.Inc("entropy/huffdec_bitwise")
	}
	return d, nil
}

// buildTable fills the first-level table: each code of length l ≤ decTableBits
// lands at its bit-reversed value (codes are emitted LSB-first, so the low
// bits of the reader's accumulator hold the code's leading bits reversed) and
// is replicated across every high-bit padding.
func (d *canonicalDecoder) buildTable() {
	d.table = decScratch.Get(decTableSize)
	clear(d.table)
	for l := 1; l <= decTableBits; l++ {
		e := decEntry(l)
		for j := 0; j < d.count[l]; j++ {
			rev := int(bits.Reverse32(d.first[l]+uint32(j)) >> (32 - uint(l)))
			sym := d.symbols[d.offset[l]+j]
			for idx := rev; idx < decTableSize; idx += 1 << l {
				d.table[idx] = e | decEntry(sym)<<6
			}
		}
	}
}

// release returns the pooled decode table, if any. The decoder must not be
// used afterwards.
func (d *canonicalDecoder) release() {
	decScratch.Put(d.table)
	d.table = nil
}

// decode is the one Huffman symbol loop: it fills out with the next len(out)
// symbols of r through the first-level table, shadowing the bit-reader state
// in locals so the hot loop keeps it in registers (per-symbol method calls
// would spill it on every iteration). Long codes, invalid prefixes, stream
// tails and every symbol of a table-less decoder sync the reader and take the
// canonical walk, so error behaviour is the bit-wise walk's.
func (d *canonicalDecoder) decode(r *BitReader, out []uint32) error {
	table := noTable
	if d.table != nil {
		table = (*[decTableSize]decEntry)(d.table)
	}
	buf := r.buf
	acc, nbits, pos := r.acc, r.nbits, r.pos
	for i := range out {
		if nbits < decTableBits {
			for nbits <= 56 && pos < len(buf) {
				acc |= uint64(buf[pos]) << nbits
				pos++
				nbits += 8
			}
		}
		e := table[acc&(decTableSize-1)]
		// Bits above nbits in the accumulator are zero padding; the entry is
		// only trusted when its whole code is real bits.
		if l := uint(e) & 63; l != 0 && l <= nbits {
			acc >>= l
			nbits -= l
			out[i] = uint32(e >> 6)
			continue
		}
		r.acc, r.nbits, r.pos = acc, nbits, pos
		s, err := d.decodeSlow(r)
		if err != nil {
			return fmt.Errorf("entropy: symbol %d/%d: %w", i, len(out), err)
		}
		out[i] = s
		acc, nbits, pos = r.acc, r.nbits, r.pos
	}
	r.acc, r.nbits, r.pos = acc, nbits, pos
	return nil
}

// decodeSlow is the canonical bit-at-a-time walk: the oracle the table path
// is property-tested against, and the fallback for long codes, invalid
// prefixes and stream tails.
func (d *canonicalDecoder) decodeSlow(r *BitReader) (uint32, error) {
	var code uint32
	for l := 1; l <= maxHuffmanLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		if d.count[l] > 0 && code-d.first[l] < uint32(d.count[l]) {
			return d.symbols[d.offset[l]+int(code-d.first[l])], nil
		}
	}
	return 0, fmt.Errorf("entropy: invalid Huffman code")
}

// appendLengthTable serialises the code-length table with zero-run
// compression: (0, runLen) pairs for gaps, raw lengths otherwise.
func appendLengthTable(out []byte, lengths []uint8) []byte {
	i := 0
	for i < len(lengths) {
		if lengths[i] == 0 {
			j := i
			for j < len(lengths) && lengths[j] == 0 {
				j++
			}
			out = append(out, 0)
			out = binary.AppendUvarint(out, uint64(j-i))
			i = j
			continue
		}
		out = append(out, lengths[i])
		i++
	}
	return out
}

func readLengthTable(blob []byte, alphabet int) ([]uint8, []byte, error) {
	lengths := make([]uint8, alphabet)
	i := 0
	for i < alphabet {
		if len(blob) == 0 {
			return nil, nil, ErrTruncated
		}
		l := blob[0]
		blob = blob[1:]
		if l == 0 {
			run, k := binary.Uvarint(blob)
			if k <= 0 {
				return nil, nil, ErrTruncated
			}
			blob = blob[k:]
			if run == 0 || uint64(i)+run > uint64(alphabet) {
				return nil, nil, fmt.Errorf("entropy: bad zero run %d at symbol %d", run, i)
			}
			i += int(run)
			continue
		}
		lengths[i] = l
		i++
	}
	return lengths, blob, nil
}
