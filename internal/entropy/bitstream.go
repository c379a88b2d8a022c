// Package entropy implements the lossless coding substrate shared by the
// lossy compressors in this repository: an LSB-first bit stream, a canonical
// Huffman coder (SZ's entropy stage), an adaptive binary range coder (FPZIP's
// residual coder), and a byte-oriented LZ dictionary coder standing in for
// the Zstd stage SZ applies after Huffman coding.
package entropy

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports a read past the end of an encoded stream.
var ErrTruncated = errors.New("entropy: truncated stream")

// BitWriter writes bits LSB-first into 64-bit words, matching the layout ZFP
// uses. The zero value is ready to use.
type BitWriter struct {
	buf    []byte
	acc    uint64
	nbits  uint
	padded bool
}

// WriteBit appends a single bit (the low bit of b).
func (w *BitWriter) WriteBit(b uint) {
	w.acc |= uint64(b&1) << w.nbits
	w.nbits++
	if w.nbits == 64 {
		w.flushWord()
	}
}

// WriteBits appends the low n bits of v, least-significant first. n must be
// in [0, 64].
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	w.acc |= v << w.nbits
	written := 64 - w.nbits
	if n < written {
		written = n
	}
	w.nbits += written
	if w.nbits == 64 {
		w.flushWord()
		if rem := n - written; rem > 0 {
			w.acc = v >> written
			w.nbits = rem
		}
	}
}

func (w *BitWriter) flushWord() {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.acc)
	w.acc = 0
	w.nbits = 0
}

// BitLen returns the number of bits written so far.
func (w *BitWriter) BitLen() int { return len(w.buf)*8 + int(w.nbits) }

// Bytes flushes any partial word and returns the encoded stream. The writer
// must not be used after Bytes is called.
func (w *BitWriter) Bytes() []byte {
	if w.nbits > 0 {
		n := (w.nbits + 7) / 8
		for i := uint(0); i < n; i++ {
			w.buf = append(w.buf, byte(w.acc>>(8*i)))
		}
		w.acc = 0
		w.nbits = 0
	}
	w.padded = true
	return w.buf
}

// AppendBits splices the first nbits bits of src — a stream produced by
// Bytes, LSB-first — onto this writer at its current bit position. Writing
// a stream's chunks through AppendBits in order reproduces, bit for bit, the
// stream a single writer would have produced, which is what lets parallel
// encoders stitch per-chunk payloads back into the serial blob.
func (w *BitWriter) AppendBits(src []byte, nbits int) {
	i := 0
	for ; nbits >= 64; nbits -= 64 {
		w.WriteBits(binary.LittleEndian.Uint64(src[i:]), 64)
		i += 8
	}
	if nbits > 0 {
		var v uint64
		for j := 0; j < (nbits+7)/8; j++ {
			v |= uint64(src[i+j]) << (8 * j)
		}
		w.WriteBits(v, uint(nbits))
	}
}

// NewPooledBitWriter returns a BitWriter whose backing buffer is recycled
// through the package scratch pool. Once the slice returned by Bytes has been
// copied out (e.g. appended to an output blob), hand it back with
// RecycleBuffer so the next writer starts with warmed capacity.
func NewPooledBitWriter() *BitWriter { return &BitWriter{buf: byteScratch.Get(0)} }

// RecycleBuffer returns a byte buffer (typically a BitWriter payload obtained
// via Bytes) to the scratch pool. The caller must not touch b afterwards.
func RecycleBuffer(b []byte) { byteScratch.Put(b) }

// BitReader reads bits LSB-first from a byte slice produced by BitWriter.
type BitReader struct {
	buf   []byte
	pos   int // byte position
	acc   uint64
	nbits uint
}

// NewBitReader wraps an encoded stream for reading.
func NewBitReader(b []byte) *BitReader { return &BitReader{buf: b} }

// NewBitReaderAt wraps b for reading starting at the given bit offset, as if
// a fresh reader had already consumed bitOff bits. Offsets at or past the end
// of the stream are valid: reads there see the usual zero padding. Parallel
// decoders use this to start workers at precomputed block offsets.
func NewBitReaderAt(b []byte, bitOff int) *BitReader {
	r := &BitReader{buf: b, pos: bitOff / 8}
	if r.pos > len(b) {
		r.pos = len(b)
	}
	if rem := uint(bitOff % 8); rem > 0 {
		r.TryReadBits(rem)
	}
	return r
}

func (r *BitReader) fill() {
	for r.nbits <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << r.nbits
		r.pos++
		r.nbits += 8
	}
}

// ReadBit reads one bit. Reading past the end returns ErrTruncated.
func (r *BitReader) ReadBit() (uint, error) {
	if r.nbits == 0 {
		r.fill()
		if r.nbits == 0 {
			return 0, ErrTruncated
		}
	}
	b := uint(r.acc & 1)
	r.acc >>= 1
	r.nbits--
	return b, nil
}

// ReadBits reads n bits (n in [0, 64]) least-significant first.
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	var v uint64
	var got uint
	for got < n {
		if r.nbits == 0 {
			r.fill()
			if r.nbits == 0 {
				// Return the bits read so far; callers that tolerate zero
				// padding (TryReadBits) keep the partial value.
				return v, fmt.Errorf("%w: wanted %d more bits", ErrTruncated, n-got)
			}
		}
		take := n - got
		if take > r.nbits {
			take = r.nbits
		}
		v |= (r.acc & ((1 << take) - 1)) << got
		r.acc >>= take
		r.nbits -= take
		got += take
	}
	return v, nil
}

// TryReadBits is ReadBits with zero padding past the end of the stream.
func (r *BitReader) TryReadBits(n uint) uint64 {
	v, _ := r.ReadBits(n)
	return v
}

// Peek returns the next 64 bits of the stream, least-significant first,
// without consuming them. Bits past the end of the stream read as zero, as
// with TryReadBits, so a caller can decode a whole window and Consume only
// the bits it used. ZFP's decoder relies on that zero padding past the
// encoded tail. Peek leaves the reader's state alone: the window is the
// accumulator topped up straight from the buffer.
func (r *BitReader) Peek() uint64 {
	if r.pos+8 <= len(r.buf) {
		return r.acc | binary.LittleEndian.Uint64(r.buf[r.pos:])<<r.nbits
	}
	return r.peekTail()
}

// peekTail is Peek within eight bytes of the end of the stream.
func (r *BitReader) peekTail() uint64 {
	v := r.acc
	for i, s := r.pos, r.nbits; i < len(r.buf) && s < 64; i, s = i+1, s+8 {
		v |= uint64(r.buf[i]) << s
	}
	return v
}

// Consume discards the next n bits, leaving the reader where TryReadBits
// would for n up to 64; larger n skip whole bytes without reading them.
// Consuming past the end of the stream leaves the reader at its end.
func (r *BitReader) Consume(n uint) {
	if n <= r.nbits {
		r.acc >>= n
		r.nbits -= n
		return
	}
	r.consumeBytes(n - r.nbits)
}

// consumeBytes is Consume past the accumulator: it skips whole bytes and
// keeps the unread high bits of the byte it stops in.
func (r *BitReader) consumeBytes(n uint) {
	r.pos += int(n / 8)
	r.acc, r.nbits = 0, 0
	if r.pos >= len(r.buf) {
		r.pos = len(r.buf)
		return
	}
	if rem := n % 8; rem > 0 {
		r.acc = uint64(r.buf[r.pos]) >> rem
		r.nbits = 8 - rem
		r.pos++
	}
}
