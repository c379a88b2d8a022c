package entropy

import (
	"bytes"
	"math/rand"
	"testing"
)

// AppendBits must splice a donor stream into a destination writer so the
// combined stream equals writing every bit through one writer — for every
// destination misalignment and donor length, including donors that end
// mid-byte and mid-word.
func TestAppendBitsEquivalentToSerialWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, preBits := range []int{0, 1, 3, 7, 8, 13, 63, 64, 65, 130} {
		for _, donorBits := range []int{0, 1, 5, 8, 9, 64, 65, 127, 128, 300, 1000} {
			pre := make([]bool, preBits)
			for i := range pre {
				pre[i] = rng.Intn(2) == 1
			}
			donorBools := make([]bool, donorBits)
			for i := range donorBools {
				donorBools[i] = rng.Intn(2) == 1
			}

			donor := new(BitWriter)
			for _, b := range donorBools {
				if b {
					donor.WriteBit(1)
				} else {
					donor.WriteBit(0)
				}
			}
			nbits := donor.BitLen()
			if nbits != donorBits {
				t.Fatalf("donor BitLen = %d, want %d", nbits, donorBits)
			}
			donorBytes := donor.Bytes()

			spliced := new(BitWriter)
			serial := new(BitWriter)
			for _, b := range pre {
				v := uint(0)
				if b {
					v = 1
				}
				spliced.WriteBit(v)
				serial.WriteBit(v)
			}
			spliced.AppendBits(donorBytes, nbits)
			for _, b := range donorBools {
				if b {
					serial.WriteBit(1)
				} else {
					serial.WriteBit(0)
				}
			}
			if spliced.BitLen() != serial.BitLen() {
				t.Fatalf("pre=%d donor=%d: BitLen %d != %d", preBits, donorBits, spliced.BitLen(), serial.BitLen())
			}
			if !bytes.Equal(spliced.Bytes(), serial.Bytes()) {
				t.Fatalf("pre=%d donor=%d: spliced stream differs from serial stream", preBits, donorBits)
			}
		}
	}
}

// NewBitReaderAt(b, off) must be indistinguishable from a fresh reader that
// consumed off bits, for byte-aligned and unaligned offsets and offsets past
// the end of the buffer (which read zeros, like TryRead* past the tail).
func TestNewBitReaderAtMatchesConsumedReader(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, 64)
	rng.Read(buf)
	totalBits := 8 * len(buf)

	for _, off := range []int{0, 1, 7, 8, 9, 31, 32, 63, 64, 65, 200, totalBits - 3, totalBits, totalBits + 50} {
		seq := NewBitReader(buf)
		for rem := off; rem > 0; rem -= 64 {
			n := rem
			if n > 64 {
				n = 64
			}
			seq.TryReadBits(uint(n))
		}
		at := NewBitReaderAt(buf, off)
		for i := 0; i < 80; i++ {
			want := seq.TryReadBits(1)
			got := at.TryReadBits(1)
			if got != want {
				t.Fatalf("off=%d: bit %d after offset: got %d, want %d", off, i, got, want)
			}
		}
	}
}

// randomSymbols returns n symbols over the alphabet with a skewed
// distribution so the Huffman tree has mixed code lengths.
func randomSymbols(rng *rand.Rand, n, alphabet int) []uint32 {
	syms := make([]uint32, n)
	for i := range syms {
		if rng.Intn(4) == 0 {
			syms[i] = uint32(rng.Intn(alphabet))
		} else {
			syms[i] = uint32(rng.Intn(1 + alphabet/16))
		}
	}
	return syms
}
