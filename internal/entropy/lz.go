package entropy

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// A byte-oriented LZ77 dictionary coder with greedy hash-chain matching. It
// stands in for the Zstd stage SZ runs after Huffman coding: on the highly
// repetitive byte streams produced by quantization codes of smooth scientific
// data it collapses long runs and repeated motifs, which is what lets SZ-like
// compressors exceed the ~32× ceiling pure symbol entropy coding imposes on
// float32 data.
//
// Token format (all varint-coded):
//
//	litLen  — number of literal bytes to copy
//	<literals>
//	matchLen — 0 terminates the stream, otherwise length ≥ lzMinMatch
//	distance — backwards offset ≥ 1
const (
	lzMinMatch   = 4
	lzMaxMatch   = 1 << 16
	lzWindowSize = 1 << 20
	lzHashBits   = 17
	lzMaxChain   = 32
)

func lzHash(b []byte) uint32 {
	// Multiplicative hash of 4 bytes (Fibonacci hashing).
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> (32 - lzHashBits)
}

// LZCompress compresses src. The output always starts with the uncompressed
// length so the decoder can allocate exactly once. The result comes from the
// byte scratch pool; in-package callers hand it back with byteScratch.Put.
//
// The match search does far less work than comparing every chain candidate
// byte by byte, but chooses exactly the (length, distance) pairs that would:
// lz_ref_test.go pins the token stream to the frozen byte-wise encoder, and
// DESIGN.md ("LZ match search") lists the invariants that make it so.
func LZCompress(src []byte) []byte {
	out := binary.AppendUvarint(byteScratch.Get(0), uint64(len(src)))
	// Hash-chain state comes from the scratch pool. Both tables store
	// position+1 so that 0 means "empty" and head re-arms with one clear;
	// prev entries are only ever read through chains written during this
	// run, so prev needs no initialisation.
	head := int32Scratch.Get(1 << lzHashBits)
	clear(head)
	prev := int32Scratch.Get(len(src))

	litStart := 0
	i := 0
	emit := func(litEnd, matchLen, dist int) {
		out = binary.AppendUvarint(out, uint64(litEnd-litStart))
		out = append(out, src[litStart:litEnd]...)
		out = binary.AppendUvarint(out, uint64(matchLen))
		if matchLen > 0 {
			out = binary.AppendUvarint(out, uint64(dist))
		}
	}
	for i+lzMinMatch <= len(src) {
		cur := binary.LittleEndian.Uint32(src[i:])
		h := lzHash(src[i:])
		maxLen := min(len(src)-i, lzMaxMatch)
		bestLen, bestDist := 0, 0
		cand := int(head[h]) - 1
		// Skipped candidates still spend chain budget: the walk visits the
		// same candidates in the same order as the byte-wise search.
		for chain := 0; cand >= 0 && chain < lzMaxChain; chain, cand = chain+1, int(prev[cand])-1 {
			if i-cand > lzWindowSize {
				break
			}
			// Only a strictly longer match replaces the best, so a candidate
			// that differs in its first lzMinMatch bytes (a hash collision,
			// never emitted) or at offset bestLen cannot win. bestLen < maxLen
			// here, so i+bestLen is in range.
			if binary.LittleEndian.Uint32(src[cand:]) != cur || src[cand+bestLen] != src[i+bestLen] {
				continue
			}
			if l := matchLength(src, cand, i, maxLen); l > bestLen {
				bestLen, bestDist = l, i-cand
				if l == maxLen {
					break // nothing the input still allows is longer
				}
			}
		}
		if bestLen >= lzMinMatch {
			emit(i, bestLen, bestDist)
			// Insert hash entries across the match so future matches can
			// refer into it, then continue after it. Only the match's live
			// tail is inserted. The match makes src d-periodic over
			// [i-d, end) for d = bestDist, so the 4-byte window at any
			// q in [i-d, end-4-d] equals the one at q+d. Take a skipped
			// position p in [i, end-3-lzMaxChain·d): its progression p+d,
			// p+2d, … crosses the lzMaxChain·d positions
			// [end-3-lzMaxChain·d, end-4] exactly lzMaxChain times, and each
			// crossing has p's window, hence p's bucket, and is inserted
			// here. Positions enter the tables in increasing order, so those
			// lzMaxChain entries sit ahead of p in its chain for every later
			// walk, which visits at most lzMaxChain candidates: p is never
			// reached, and leaving it out changes no walk and no token.
			end := i + bestLen
			i = max(i, end-3-lzMaxChain*bestDist)
			for ; i < end && i+lzMinMatch <= len(src); i++ {
				hh := lzHash(src[i:])
				prev[i] = head[hh]
				head[hh] = int32(i + 1)
			}
			i = end
			litStart = i
			continue
		}
		prev[i] = head[h]
		head[h] = int32(i + 1)
		i++
	}
	// Trailing literals and terminator.
	emit(len(src), 0, 0)
	int32Scratch.Put(head)
	int32Scratch.Put(prev)
	return out
}

// matchLength returns how many bytes src[a:] and src[b:] share, up to max,
// for a < b whose first lzMinMatch bytes are known equal. It compares eight
// bytes per step; the first differing byte is the lowest set byte of the XOR.
func matchLength(src []byte, a, b, max int) int {
	n := lzMinMatch
	for ; n+8 <= max; n += 8 {
		if x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < max && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// LZDecompress reverses LZCompress.
func LZDecompress(blob []byte) ([]byte, error) {
	return lzDecode(nil, blob)
}

// lzDecode is the one LZ token loop: it decodes blob onto dst[:0], appending
// up to the size the stream declares. A nil dst starts from min(size, 1 MiB)
// capacity and grows on demand, so a corrupt header cannot demand a huge
// buffer up front. Any other dst is a fixed destination: the declared size
// must be exactly cap(dst), so every byte lands in place and nothing
// reallocates.
func lzDecode(dst, blob []byte) ([]byte, error) {
	size, k := binary.Uvarint(blob)
	if k <= 0 {
		return nil, ErrTruncated
	}
	blob = blob[k:]
	if dst != nil && size != uint64(cap(dst)) {
		return nil, fmt.Errorf("entropy: chunk holds %d bytes, block expects %d", size, cap(dst))
	}
	if size > 1<<36 {
		return nil, fmt.Errorf("entropy: implausible uncompressed size %d", size)
	}
	// A valid stream cannot expand a byte into more than lzMaxMatch output
	// bytes; reject early so corrupt headers cannot demand huge buffers.
	if size > uint64(len(blob))*lzMaxMatch+64 {
		return nil, fmt.Errorf("entropy: claimed size %d impossible for %d input bytes", size, len(blob))
	}
	if dst == nil {
		dst = make([]byte, 0, min(size, 1<<20))
	}
	out := dst[:0]
	for {
		litLen, k := binary.Uvarint(blob)
		if k <= 0 {
			return nil, ErrTruncated
		}
		blob = blob[k:]
		if uint64(len(blob)) < litLen {
			return nil, ErrTruncated
		}
		if uint64(len(out))+litLen > size {
			return nil, fmt.Errorf("entropy: literals overflow declared size %d", size)
		}
		out = append(out, blob[:litLen]...)
		blob = blob[litLen:]
		matchLen, k := binary.Uvarint(blob)
		if k <= 0 {
			return nil, ErrTruncated
		}
		blob = blob[k:]
		if matchLen == 0 {
			break
		}
		// The encoder never emits matches longer than lzMaxMatch, and the
		// output may never exceed the declared size — both checks keep a
		// corrupt varint from driving an unbounded copy loop.
		if matchLen > lzMaxMatch || uint64(len(out))+matchLen > size {
			return nil, fmt.Errorf("entropy: invalid match length %d at output offset %d", matchLen, len(out))
		}
		dist, k := binary.Uvarint(blob)
		if k <= 0 {
			return nil, ErrTruncated
		}
		blob = blob[k:]
		if dist == 0 || dist > uint64(len(out)) {
			return nil, fmt.Errorf("entropy: invalid match distance %d at output offset %d", dist, len(out))
		}
		pos, n := len(out), int(matchLen)
		out = slices.Grow(out, n)[:pos+n]
		lzCopyMatch(out, pos, int(dist), n)
	}
	if uint64(len(out)) != size {
		return nil, fmt.Errorf("entropy: decoded %d bytes, header said %d", len(out), size)
	}
	return out, nil
}

// lzCopyMatch writes dst[pos:pos+n] from the bytes dist back. An overlapping
// match (dist < n) replicates the run — the core RLE-like behaviour — so each
// pass copies from everything written since pos-dist, doubling its reach.
func lzCopyMatch(dst []byte, pos, dist, n int) {
	start := pos - dist
	for end := pos + n; pos < end; {
		pos += copy(dst[pos:end], dst[start:pos])
	}
}

// CompressBytes runs the full lossless pipeline used by the SZ-like and
// MGARD-like compressors: LZ dictionary coding followed by Huffman coding of
// the LZ output bytes. On incompressible input the overhead is a few bytes.
func CompressBytes(src []byte) ([]byte, error) {
	lz := LZCompress(src)
	syms := u32Scratch.Get(len(lz))
	for i, b := range lz {
		syms[i] = uint32(b)
	}
	byteScratch.Put(lz)
	blob, err := HuffmanEncode(syms, 256)
	u32Scratch.Put(syms)
	return blob, err
}
