package zfp

import (
	"math"
	"math/bits"

	"github.com/fxrz-go/fxrz/internal/entropy"
)

// Embedded bit-plane coding of a block of negabinary coefficients with
// group testing, following zfp's encode_ints/decode_ints. Bit planes are
// visited from most to least significant; within a plane, coefficients
// already known to be significant are coded verbatim and the remainder is
// coded with a unary run-length scheme that stops at the first new
// significant coefficient. Both directions work on whole words: a plane is
// one uint64 with bit i for coefficient i, and each run of the scheme is
// found with one trailing-zero count and written or read in one call. The
// bit-at-a-time loops of zfp are kept in reference_test.go as the oracles.

// gatherPlanes extracts every bit plane of a block's coefficients q, taken
// in sequency order perm and mapped to negabinary on the way in: with
// data[i] = int32ToNegabinary(q[perm[i]]), after the call p[31-k] holds
// plane k across the coefficients (bit i set ⇔ bit k of data[i] set).
// It is the lower half of a 64×64 bit-matrix transpose (Hacker's Delight
// 7-3) whose row 63-i holds coefficient i: coefficients are 32 bits wide, so
// the transpose's rows 0–31 come out zero and are never formed, its first
// block-swap stage reduces to loading two coefficients per word, and five
// stages of 16 word pairs remain. They run as two register passes: stages
// 16 and 8 on each row quadruple {k, k+8, k+16, k+24}, then stages 4, 2 and
// 1 on each run of eight rows.
func gatherPlanes(q []int32, perm []int, p *[32]uint64) {
	if len(perm) == 64 {
		o := (*[64]int)(perm)
		for k := range p {
			p[k] = uint64(int32ToNegabinary(q[o[63-k]]))<<32 | uint64(int32ToNegabinary(q[o[31-k]]))
		}
	} else {
		*p = [32]uint64{}
		for i, j := range perm {
			v := uint64(int32ToNegabinary(q[j]))
			if i < 32 {
				p[31-i] |= v
			} else {
				p[63-i] |= v << 32
			}
		}
	}
	const m16, m8, m4, m2, m1 = 0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF, 0x0F0F0F0F0F0F0F0F, 0x3333333333333333, 0x5555555555555555
	for k := 0; k < 8; k++ {
		a, b, c, d := p[k], p[k+8], p[k+16], p[k+24]
		a, c = swapBits(a, c, 16, m16)
		b, d = swapBits(b, d, 16, m16)
		a, b = swapBits(a, b, 8, m8)
		c, d = swapBits(c, d, 8, m8)
		p[k], p[k+8], p[k+16], p[k+24] = a, b, c, d
	}
	for k := 0; k < 32; k += 8 {
		r := (*[8]uint64)(p[k : k+8])
		r0, r1, r2, r3, r4, r5, r6, r7 := r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
		r0, r4 = swapBits(r0, r4, 4, m4)
		r1, r5 = swapBits(r1, r5, 4, m4)
		r2, r6 = swapBits(r2, r6, 4, m4)
		r3, r7 = swapBits(r3, r7, 4, m4)
		r0, r2 = swapBits(r0, r2, 2, m2)
		r1, r3 = swapBits(r1, r3, 2, m2)
		r4, r6 = swapBits(r4, r6, 2, m2)
		r5, r7 = swapBits(r5, r7, 2, m2)
		r0, r1 = swapBits(r0, r1, 1, m1)
		r2, r3 = swapBits(r2, r3, 1, m1)
		r4, r5 = swapBits(r4, r5, 1, m1)
		r6, r7 = swapBits(r6, r7, 1, m1)
		*r = [8]uint64{r0, r1, r2, r3, r4, r5, r6, r7}
	}
}

// swapBits is one block swap of the transpose on the row pair (a, b): the
// j-bit column groups of a selected by m trade places with the groups of b
// j bits higher.
func swapBits(a, b uint64, j uint, m uint64) (uint64, uint64) {
	t := (a ^ b>>j) & m
	return a ^ t, b ^ t<<j
}

// encodeInts writes up to maxbits bits covering maxprec bit planes of the
// block coefficients q (ordered by sequency through perm, negabinary) and
// returns the number of bits written. p is caller-provided scratch for the
// plane gather.
//
// Each group test is one append. With t zeros below the next significant
// coefficient, the bitwise scheme writes a 1 (group is significant), t 0s
// and a closing 1 — the t+2 low bits of 1|1<<(t+1) — or, when that
// coefficient is the last one, no closing bit, since it must be the one:
// the t+1 low bits of 1. A zero remainder is one 0 bit. The budget is
// spent one bit at a time in the bitwise scheme, and coding stops when it
// runs out, so a clipped group is exactly the low `left` bits of the group.
// Appends collect in a local word that goes to w when the next one would
// overflow it.
func encodeInts(w *entropy.BitWriter, maxbits, maxprec int, q []int32, perm []int, p *[32]uint64) int {
	size := len(perm)
	kmin := max(intPrec-maxprec, 0)
	gatherPlanes(q, perm, p)
	var acc uint64
	nacc := 0
	put := func(v uint64, l int) {
		if nacc+l > 64 {
			w.WriteBits(acc, uint(nacc))
			acc, nacc = 0, 0
		}
		acc |= (v & (1<<uint(l) - 1)) << uint(nacc)
		nacc += l
	}
	left := maxbits
	n := 0
	for k := intPrec; k > kmin && left > 0; k-- {
		x := p[32-k]
		// Plane bits of already-significant coefficients, verbatim.
		m := min(n, left)
		left -= m
		put(x, m)
		x >>= uint(m)
		// Group tests over the rest, one append per run.
		for n < size && left > 0 {
			if x == 0 {
				put(0, 1)
				left--
				break
			}
			t := bits.TrailingZeros64(x)
			v, l := uint64(1)|1<<uint(t+1), t+2
			if n+t == size-1 {
				v, l = 1, t+1
			}
			l = min(l, left)
			put(v, l)
			left -= l
			x >>= uint(t + 1)
			n += t + 1
		}
	}
	w.WriteBits(acc, uint(nacc))
	return maxbits - left
}

// decodeInts mirrors encodeInts for a block of size coefficients,
// reconstructing them into data from up to maxbits bits; it returns the
// number of bits consumed. Reads past the encoded tail see zeros, matching
// zfp's stream semantics. With data == nil it only consumes the bits: the
// coder's control flow branches on the bits it reads, never on the
// coefficients, which is what makes the serial offset skim of the parallel
// decoder and the region seek possible in fixed-accuracy mode.
//
// Groups are read from a local 64-bit window of the stream. A group is the
// group bit and then a run of at most size-1 ≤ 63 bits, so it always fits in
// a fresh window. The bitwise scheme reads run bits while coefficients
// before the last remain and budget is left, stopping after the first 1; the
// coefficient where the run stops is significant whether a 1, the last
// coefficient or the budget stopped it. The bits a group is decoded from are
// exactly the bits it consumes, so when that is more than the window still
// holds, the window is refilled and the group decoded again.
func decodeInts(r *entropy.BitReader, maxbits, maxprec, size int, data []uint32) int {
	if data != nil {
		clear(data[:size])
	}
	kmin := max(intPrec-maxprec, 0)
	// The reader sits at the start of win, of which avail bits are unread.
	win, avail := r.Peek(), 64
	left := maxbits
	n := 0
	for k := intPrec; k > kmin && left > 0; k-- {
		m := min(n, left)
		if m > avail {
			win, avail = refill(r, avail)
		}
		x := win & (1<<uint(m) - 1)
		win >>= uint(m)
		avail -= m
		left -= m
		for n < size && left > 0 {
			used, run := 1, -1 // run < 0: the rest of the plane is zero
			if win&1 != 0 {
				rem, budget := size-1-n, left-1
				if t := bits.TrailingZeros64(win >> 1); t < rem && t < budget {
					used, run = t+2, t
				} else {
					run = min(rem, budget)
					used = run + 1
				}
			}
			if used > avail {
				win, avail = refill(r, avail)
				continue
			}
			win >>= uint(used)
			avail -= used
			left -= used
			if run < 0 {
				break
			}
			n += run
			x |= 1 << uint(n)
			n++
		}
		if data != nil {
			for ; x != 0; x &= x - 1 {
				data[bits.TrailingZeros64(x)] |= 1 << uint(k-1)
			}
		}
	}
	r.Consume(uint(64 - avail))
	return maxbits - left
}

// refill moves r past the 64-avail bits of its window already used and
// returns a fresh window.
func refill(r *entropy.BitReader, avail int) (uint64, int) {
	r.Consume(uint(64 - avail))
	return r.Peek(), 64
}

// blockEmax returns the common exponent for a block: the smallest e with
// max|v| < 2^e, and whether the block is entirely zero.
func blockEmax(vals []float32) (int, bool) {
	var m float64
	for _, v := range vals {
		a := math.Abs(float64(v))
		if a > m {
			m = a
		}
	}
	if m == 0 {
		return 0, true
	}
	_, e := math.Frexp(m) // m = f * 2^e with f in [0.5, 1)
	return e, false
}

// precision returns the number of bit planes to code in fixed-accuracy mode,
// zfp's conservative formula: planes below minexp cannot affect the result
// by more than the tolerance once transform error growth (2 bits per
// dimension plus sign) is accounted for.
func precision(emax, minexp, nd int) int {
	p := emax - minexp + 2*(nd+1)
	if p < 0 {
		p = 0
	}
	if p > intPrec {
		p = intPrec
	}
	return p
}

// quantize converts block values to 30-bit fixed point at the common
// exponent; dequantize inverts it.
func quantize(vals []float32, emax int, out []int32) {
	s := math.Ldexp(1, intPrec-2-emax)
	for i, v := range vals {
		out[i] = int32(float64(v) * s)
	}
}

func dequantize(in []int32, emax int, out []float32) {
	s := math.Ldexp(1, emax-(intPrec-2))
	for i, q := range in {
		out[i] = float32(float64(q) * s)
	}
}
