package zfp

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/fxrz-go/fxrz/internal/entropy"
)

// The bit-at-a-time embedded coder, transcribed from zfp's encode_ints and
// decode_ints: the oracles the word-level walk in codec.go is
// property-tested, fuzzed and benchmarked against.

// encodeIntsPerPlane re-gathers each bit plane with a 64-iteration scan and
// writes every group-test bit with its own call.
func encodeIntsPerPlane(w *entropy.BitWriter, maxbits, maxprec int, data []uint32) int {
	size := len(data)
	kmin := 0
	if intPrec > maxprec {
		kmin = intPrec - maxprec
	}
	bits := maxbits
	n := 0
	for k := intPrec; k > kmin && bits > 0; k-- {
		kk := uint(k - 1)
		var x uint64
		for i := 0; i < size; i++ {
			x |= uint64((data[i]>>kk)&1) << uint(i)
		}
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		w.WriteBits(x, uint(m))
		x >>= uint(m)
		for n < size && bits > 0 {
			bits--
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for n < size-1 && bits > 0 {
				bits--
				b := uint(x & 1)
				w.WriteBit(b)
				if b != 0 {
					break
				}
				x >>= 1
				n++
			}
			x >>= 1
			n++
		}
	}
	return maxbits - bits
}

// decodeIntsBitwise mirrors encodeIntsPerPlane, reading one bit per call and
// scattering each plane coefficient by coefficient.
func decodeIntsBitwise(r *entropy.BitReader, maxbits, maxprec int, data []uint32) int {
	size := len(data)
	for i := range data {
		data[i] = 0
	}
	kmin := 0
	if intPrec > maxprec {
		kmin = intPrec - maxprec
	}
	bits := maxbits
	n := 0
	for k := intPrec; k > kmin && bits > 0; k-- {
		kk := uint(k - 1)
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		x := r.TryReadBits(uint(m))
		for n < size && bits > 0 {
			bits--
			if r.TryReadBits(1) == 0 {
				break
			}
			for n < size-1 && bits > 0 {
				bits--
				if r.TryReadBits(1) != 0 {
					break
				}
				n++
			}
			x |= uint64(1) << uint(n)
			n++
		}
		for i := 0; x != 0; i, x = i+1, x>>1 {
			data[i] |= uint32(x&1) << kk
		}
	}
	return maxbits - bits
}

// skipIntsBitwise consumes exactly the bits decodeIntsBitwise would for a
// block of size coefficients, without materialising them.
func skipIntsBitwise(r *entropy.BitReader, maxbits, maxprec, size int) int {
	kmin := 0
	if intPrec > maxprec {
		kmin = intPrec - maxprec
	}
	bits := maxbits
	n := 0
	for k := intPrec; k > kmin && bits > 0; k-- {
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		r.TryReadBits(uint(m))
		for n < size && bits > 0 {
			bits--
			if r.TryReadBits(1) == 0 {
				break
			}
			for n < size-1 && bits > 0 {
				bits--
				if r.TryReadBits(1) != 0 {
					break
				}
				n++
			}
			n++
		}
	}
	return maxbits - bits
}

// refBlocks yields coefficient blocks of the given size with distinct
// bit-plane structure: all zero, dense, sparse, and a transform-like block
// whose magnitudes fall with sequency so planes fill in gradually.
func refBlocks(rng *rand.Rand, size int) [][]uint32 {
	zero := make([]uint32, size)
	dense := make([]uint32, size)
	sparse := make([]uint32, size)
	decaying := make([]uint32, size)
	for i := range dense {
		dense[i] = rng.Uint32()
		if i%7 == 0 {
			sparse[i] = 1 << uint(rng.Intn(32))
		}
		decaying[i] = int32ToNegabinary(int32(rng.NormFloat64() * float64(int32(1)<<28>>uint(i/4))))
	}
	return [][]uint32{zero, dense, sparse, decaying}
}

func TestGatherPlanesMatchesPerPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var planes [32]uint64
	for _, size := range []int{1, 4, 16, 31, 33, 64} {
		for _, data := range refBlocks(rng, size) {
			q, perm := unordered(data)
			gatherPlanes(q, perm, &planes)
			for k := 0; k < intPrec; k++ {
				var want uint64
				for i := range data {
					want |= uint64((data[i]>>uint(k))&1) << uint(i)
				}
				if got := planes[31-k]; got != want {
					t.Fatalf("size %d plane %d: got %#x want %#x", len(data), k, got, want)
				}
			}
		}
	}
}

// TestIntsCoderMatchesBitwise pits the word-level encodeInts and decodeInts
// (with and without coefficients) against the bitwise oracles over every
// block size (and a ragged one), every plane count and budgets from one bit
// to unbounded, with
// blocks starting at every bit offset mod 64 and streams cut at random
// lengths, so reads run into the zero padding. Bits written, bits consumed,
// coefficients and the reader's position afterwards must all agree.
func TestIntsCoderMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var planes [32]uint64
	off := 0
	for _, size := range []int{1, 4, 16, 31, 64} {
		blocks := refBlocks(rng, size)
		for maxprec := 0; maxprec <= intPrec; maxprec++ {
			for _, maxbits := range []int{1, 13, 100, 1 << 12, unbounded} {
				for bi, data := range blocks {
					off = (off + 1) % 64
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("size %d prec %d bits %d block %d offset %d: "+format,
							append([]any{size, maxprec, maxbits, bi, off}, args...)...)
					}

					prefix := rng.Uint64()
					wRef, wNew := &entropy.BitWriter{}, &entropy.BitWriter{}
					wRef.WriteBits(prefix, uint(off))
					wNew.WriteBits(prefix, uint(off))
					uRef := encodeIntsPerPlane(wRef, maxbits, maxprec, data)
					q, perm := unordered(data)
					uNew := encodeInts(wNew, maxbits, maxprec, q, perm, &planes)
					if uRef != uNew {
						fail("encode wrote %d bits, oracle %d", uNew, uRef)
					}
					// Random bits after the block tell reader positions apart.
					suffix := rng.Uint64()
					wRef.WriteBits(suffix, 64)
					wNew.WriteBits(suffix, 64)
					stream := wNew.Bytes()
					if !bytes.Equal(wRef.Bytes(), stream) {
						fail("streams differ")
					}

					// Decode the whole stream and a random cut of it.
					cut := off/8 + rng.Intn(len(stream)-off/8+1)
					for _, in := range [][]byte{stream, stream[:cut]} {
						rRef := entropy.NewBitReaderAt(in, off)
						rNew := entropy.NewBitReaderAt(in, off)
						rSkip := entropy.NewBitReaderAt(in, off)
						rSkipRef := entropy.NewBitReaderAt(in, off)
						want := make([]uint32, size)
						got := make([]uint32, size)
						dRef := decodeIntsBitwise(rRef, maxbits, maxprec, want)
						dNew := decodeInts(rNew, maxbits, maxprec, size, got)
						sNew := decodeInts(rSkip, maxbits, maxprec, size, nil)
						sRef := skipIntsBitwise(rSkipRef, maxbits, maxprec, size)
						if dNew != dRef || sNew != dRef || sRef != dRef {
							fail("%d of %d bytes: consumed decode %d skip %d, oracle decode %d skip %d",
								len(in), len(stream), dNew, sNew, dRef, sRef)
						}
						if len(in) == len(stream) && dRef != uRef {
							fail("oracle decode consumed %d of %d bits written", dRef, uRef)
						}
						for i := range want {
							if got[i] != want[i] {
								fail("%d of %d bytes: coefficient %d = %#x, oracle %#x", len(in), len(stream), i, got[i], want[i])
							}
						}
						next := rRef.TryReadBits(64)
						for _, r := range []*entropy.BitReader{rNew, rSkip, rSkipRef} {
							if r.TryReadBits(64) != next {
								fail("%d of %d bytes: reader left at a different position", len(in), len(stream))
							}
						}
					}
				}
			}
		}
	}
}

// unordered returns the transform coefficients and the identity order under
// which the production gather reads exactly the negabinary words of data.
func unordered(data []uint32) ([]int32, []int) {
	q := make([]int32, len(data))
	perm := make([]int, len(data))
	for i, v := range data {
		q[i], perm[i] = negabinaryToInt32(v), i
	}
	return q, perm
}
