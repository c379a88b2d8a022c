package entropy

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentCompressRoundTrip hammers the pooled encode path from many
// goroutines at once: every worker must round-trip its own payloads even
// while scratch buffers are recycled across workers. Run under -race this
// also proves no pooled buffer is shared while live.
func TestConcurrentCompressRoundTrip(t *testing.T) {
	const workers = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				src := make([]byte, rng.Intn(4096))
				switch r % 3 {
				case 0: // repetitive — exercises LZ matches
					for i := range src {
						src[i] = byte(i / 7 % 5)
					}
				case 1: // random — mostly literals
					rng.Read(src)
				case 2: // sparse alphabet — exercises Huffman table reuse
					for i := range src {
						src[i] = byte(rng.Intn(3) * 40)
					}
				}
				blob, err := CompressBytes(src)
				if err != nil {
					errs <- err
					return
				}
				got, err := DecompressBytes(blob, 1)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, src) {
					t.Errorf("seed %d round %d: round trip mismatch (%d bytes)", seed, r, len(src))
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHuffmanEncodeAfterPoolReuse encodes with a wide alphabet, then a
// narrow one, then wide again, so recycled frequency/code tables must be
// correctly re-zeroed (freq) or provably unread (stale codes).
func TestHuffmanEncodeAfterPoolReuse(t *testing.T) {
	wide := make([]uint32, 5000)
	for i := range wide {
		wide[i] = uint32(i % 60000)
	}
	narrow := []uint32{1, 2, 3, 2, 1, 2, 3, 3, 3}
	for round := 0; round < 4; round++ {
		for _, tc := range []struct {
			syms     []uint32
			alphabet int
		}{{wide, 1 << 16}, {narrow, 8}} {
			blob, err := HuffmanEncode(tc.syms, tc.alphabet)
			if err != nil {
				t.Fatal(err)
			}
			got, err := HuffmanDecode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.syms) {
				t.Fatalf("round %d: %d symbols, want %d", round, len(got), len(tc.syms))
			}
			for i := range got {
				if got[i] != tc.syms[i] {
					t.Fatalf("round %d: symbol %d = %d, want %d", round, i, got[i], tc.syms[i])
				}
			}
		}
	}
}
