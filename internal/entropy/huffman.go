package entropy

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"github.com/fxrz-go/fxrz/internal/obs"
)

// maxHuffmanLen caps code lengths so the decoder can use fixed-width tables.
// Lengths are limited with a simple push-down rebalance (sufficient for the
// ≤ 2^16-symbol alphabets the SZ quantizer produces).
const maxHuffmanLen = 32

// HuffmanEncode entropy-codes a sequence of symbols drawn from the alphabet
// [0, alphabet). The output embeds a canonical code-length table followed by
// the bit stream, so HuffmanDecode needs no side information beyond the blob.
// It is the one-chunk case of the chunked container's coder (planChunks)
// under the whole-stream header.
func HuffmanEncode(symbols []uint32, alphabet int) ([]byte, error) {
	p, err := planChunks([][]uint32{symbols}, alphabet, 1)
	if err != nil {
		return nil, err
	}
	return p.encode(1), nil
}

// huffPlan is a Huffman coding decided but not yet written. Every Huffman
// encoder runs the same three stages: the plan (each chunk's symbol
// frequencies, summed in chunk order into one canonical code, and each
// chunk's payload bits under that code), the header built from the plan, and
// the emission of the bits. A size query is the same encoder stopped before
// emission (size).
type huffPlan struct {
	// prefix is a chunked container's own leading bytes (the sentinel,
	// magic and version, and for the byte container its source and block
	// lengths); nil selects the whole-stream format, which has one chunk.
	prefix   []byte
	chunks   [][]uint32
	alphabet int
	lengths  []uint8
	bits     []int // payload bits per chunk
	// syms is the pooled buffer the chunks view, when the plan owns it.
	syms []uint32
}

// planChunks makes the plan for chunks. Counting fans out per chunk; integer
// sums make the plan identical at every worker count.
func planChunks(chunks [][]uint32, alphabet, workers int) (*huffPlan, error) {
	if alphabet <= 0 {
		return nil, fmt.Errorf("entropy: invalid alphabet size %d", alphabet)
	}
	freqs := make([][]int, len(chunks))
	defer func() {
		for _, f := range freqs {
			intScratch.Put(f)
		}
	}()
	// pool.RunErr's lowest-index error is the first bad symbol of the first
	// chunk holding one, the one a serial scan would report.
	err := forChunks(workers, len(chunks), func(i int) error {
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
		return nil, err
	}
	p := &huffPlan{chunks: chunks, alphabet: alphabet, bits: make([]int, len(chunks))}
	if len(chunks) > 1 {
		// The sum lands in a fresh table: the per-chunk counts still price
		// each chunk's payload below.
		sum := intScratch.Get(alphabet)
		copy(sum, freqs[0])
		for _, f := range freqs[1:] {
			for s, c := range f {
				sum[s] += c
			}
		}
		freqs = append(freqs, sum)
		p.lengths = huffmanLengths(sum)
	} else {
		p.lengths = huffmanLengths(freqs[0])
	}
	for i := range chunks {
		for s, c := range freqs[i] {
			p.bits[i] += c * int(p.lengths[s])
		}
	}
	return p, nil
}

// payloadLen is chunk i's payload length in bytes: its bits, padded to a
// whole byte as BitWriter.Bytes pads them.
func (p *huffPlan) payloadLen(i int) int { return (p.bits[i] + 7) / 8 }

// appendHeader appends everything before the payloads: without a prefix the
// whole-stream header of the plan's one chunk (alphabet, count, length
// table, payload length), with one the prefix and the chunked core (alphabet,
// total count, chunk count, per-chunk counts, length table, per-chunk
// payload lengths).
func (p *huffPlan) appendHeader(out []byte) []byte {
	out = append(out, p.prefix...)
	total := 0
	for _, c := range p.chunks {
		total += len(c)
	}
	out = binary.AppendUvarint(out, uint64(p.alphabet))
	out = binary.AppendUvarint(out, uint64(total))
	if p.prefix == nil {
		// Length table: run-length encode zeros since most alphabets are
		// sparse.
		out = appendLengthTable(out, p.lengths)
		return binary.AppendUvarint(out, uint64(p.payloadLen(0)))
	}
	out = binary.AppendUvarint(out, uint64(len(p.chunks)))
	for _, c := range p.chunks {
		out = binary.AppendUvarint(out, uint64(len(c)))
	}
	out = appendLengthTable(out, p.lengths)
	for i := range p.chunks {
		out = binary.AppendUvarint(out, uint64(p.payloadLen(i)))
	}
	return out
}

// payloadBytes is the payloads' total length.
func (p *huffPlan) payloadBytes() int {
	n := 0
	for i := range p.chunks {
		n += p.payloadLen(i)
	}
	return n
}

// size is the length of the blob encode would return. The header is staged
// in scratch.
func (p *huffPlan) size() int {
	hdr := p.appendHeader(byteScratch.Get(0))
	n := len(hdr) + p.payloadBytes()
	byteScratch.Put(hdr)
	return n
}

// encode writes the blob: the header, then every chunk's bit stream emitted
// with the plan's code (fanned out per chunk) in chunk order. The header is
// staged in scratch, so the blob is the one allocation, at its planned size.
func (p *huffPlan) encode(workers int) []byte {
	hdr := p.appendHeader(byteScratch.Get(0))
	out := append(make([]byte, 0, len(hdr)+p.payloadBytes()), hdr...)
	byteScratch.Put(hdr)
	codes := canonicalCodes(p.lengths)
	defer codeScratch.Put(codes)
	payloads := make([][]byte, len(p.chunks))
	_ = forChunks(workers, len(p.chunks), func(i int) error { // emission cannot fail
		w := NewPooledBitWriter()
		for _, s := range p.chunks[i] {
			c := codes[s]
			w.WriteBits(uint64(c.code), uint(c.len))
		}
		payloads[i] = w.Bytes()
		return nil
	})
	for i, b := range payloads {
		if len(b) != p.payloadLen(i) {
			panic(fmt.Sprintf("entropy: chunk %d emitted %d bytes, planned %d", i, len(b), p.payloadLen(i)))
		}
		out = append(out, b...)
		byteScratch.Put(b)
	}
	return out
}

// release returns the plan's pooled symbol buffer, if it owns one.
func (p *huffPlan) release() {
	if p.syms != nil {
		u32Scratch.Put(p.syms)
		p.syms = nil
	}
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

// huffmanLengths computes code lengths from frequencies with the two-queue
// construction, then limits lengths to maxHuffmanLen. The leaves, sorted by
// (weight, symbol), are one queue; the internal nodes, appended after them
// in creation order, are the other, and their weights never decrease. Each
// merge pops the lighter head, the leaf on a tie. That is the pop order of a
// min-heap keyed on (weight, pool index) with leaves pooled in symbol order
// before any internal node, so every length is that heap's.
func huffmanLengths(freq []int) []uint8 {
	type node struct {
		w           int
		sym         int // >= 0 for leaves
		left, right int // indices into pool for internal nodes
	}
	pool := make([]node, 0, 2*len(freq))
	for s, f := range freq {
		if f > 0 {
			pool = append(pool, node{w: f, sym: s, left: -1, right: -1})
		}
	}
	lengths := make([]uint8, len(freq))
	switch len(pool) {
	case 0:
		return lengths
	case 1:
		// A single distinct symbol still needs a 1-bit code.
		lengths[pool[0].sym] = 1
		return lengths
	}
	slices.SortFunc(pool, func(a, b node) int {
		return cmp.Or(cmp.Compare(a.w, b.w), cmp.Compare(a.sym, b.sym))
	})
	leaves := len(pool)
	leaf, inner := 0, leaves
	pop := func() int {
		if leaf < leaves && (inner == len(pool) || pool[leaf].w <= pool[inner].w) {
			leaf++
			return leaf - 1
		}
		inner++
		return inner - 1
	}
	for range leaves - 1 {
		a, b := pop(), pop()
		pool = append(pool, node{w: pool[a].w + pool[b].w, sym: -1, left: a, right: b})
	}
	root := len(pool) - 1
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

type huffCode struct {
	code uint32
	len  uint8
}

// canonicalCodes assigns canonical codes (shorter codes first, then by
// symbol), stored bit-reversed so they can be emitted LSB-first. Counting
// codes per length gives each length's first code (DEFLATE's bl_count and
// next_code), and a pass in symbol order numbers each length's codes, which
// is that order without a sort. The table comes from the scratch pool;
// callers return it with codeScratch.Put. Entries for zero-length symbols
// are left stale: encoders only index the table with symbols whose
// frequency is non-zero, which always have a freshly assigned code.
func canonicalCodes(lengths []uint8) []huffCode {
	var count, next [maxHuffmanLen + 1]uint32
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxHuffmanLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := codeScratch.Get(len(lengths))
	for s, l := range lengths {
		if l > 0 {
			codes[s] = huffCode{code: bits.Reverse32(next[l]) >> (32 - l), len: l}
			next[l]++
		}
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
