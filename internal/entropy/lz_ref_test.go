package entropy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// lzCompressRef is LZCompress as it stood before the match search was
// rewritten, frozen verbatim (only the two function names and the scratch
// pool calls changed): every
// chain candidate is fully compared one byte at a time. It is the oracle the
// identity tests and FuzzLZCompressMatchesRef hold the fast search to — the
// two must emit the same token stream byte for byte. Do not "improve" it.
func lzCompressRef(src []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(src)))
	// Hash-chain state comes from the scratch pool: head is re-armed to -1
	// below, and prev entries are only ever read through chains written during
	// this run, so neither needs a fresh allocation.
	head := int32Scratch.Get(1 << lzHashBits)
	for i := range head {
		head[i] = -1
	}
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
		h := lzHash(src[i:])
		bestLen, bestDist := 0, 0
		cand := head[h]
		for chain := 0; cand >= 0 && chain < lzMaxChain; chain++ {
			d := i - int(cand)
			if d > lzWindowSize {
				break
			}
			l := matchLengthRef(src, int(cand), i)
			if l > bestLen {
				bestLen, bestDist = l, d
				if l >= lzMaxMatch {
					break
				}
			}
			cand = prev[cand]
		}
		if bestLen >= lzMinMatch {
			emit(i, bestLen, bestDist)
			// Insert hash entries across the match so future matches can
			// refer into it, then continue after it.
			end := i + bestLen
			for ; i < end && i+lzMinMatch <= len(src); i++ {
				hh := lzHash(src[i:])
				prev[i] = head[hh]
				head[hh] = int32(i)
			}
			i = end
			litStart = i
			continue
		}
		prev[i] = head[h]
		head[h] = int32(i)
		i++
	}
	// Trailing literals and terminator.
	emit(len(src), 0, 0)
	int32Scratch.Put(head)
	int32Scratch.Put(prev)
	return out
}

func matchLengthRef(src []byte, a, b int) int {
	n := 0
	max := len(src) - b
	if max > lzMaxMatch {
		max = lzMaxMatch
	}
	for n < max && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// szShapedBytes mimics the bytes SZ hands the dictionary coder (and the
// benchmark's entropy layer pass): little-endian 16-bit quantization codes in
// a narrow noisy peak around the zero-residual code.
func szShapedBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	raw := make([]byte, 2*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint16(raw[2*i:], uint16(1<<15+int(rng.NormFloat64()*12)))
	}
	return raw
}

// lzIdentityInputs covers the shapes where a smarter match search could
// plausibly diverge from the byte-wise one: inputs shorter than a match,
// length caps (lzMaxMatch, end of input), the window edge, overlapping
// periodic matches and candidate-rich noisy streams.
func lzIdentityInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 1<<16)
	rng.Read(random)
	in := map[string][]byte{
		"empty":     {},
		"random":    random,
		"benchData": benchData(),
		"szShaped":  szShapedBytes(1<<17, 1),
		// One run longer than lzMaxMatch: the cap splits it into several
		// matches, and the last ends exactly at len(src).
		"longRun": bytes.Repeat([]byte{0x5A}, 3*lzMaxMatch+17),
	}
	for n := 1; n <= 7; n++ {
		in[fmt.Sprintf("short%d", n)] = random[:n]
		in[fmt.Sprintf("shortRun%d", n)] = bytes.Repeat([]byte{9}, n)
	}
	for period := 1; period <= 9; period++ {
		in[fmt.Sprintf("period%d", period)] = bytes.Repeat(random[:period], 5000/period)
	}
	// A motif repeated just inside and just outside the window: the near copy
	// must be found, the far one refused, exactly as the reference does.
	motif := random[100:164]
	for _, gap := range []int{lzWindowSize - len(motif), lzWindowSize + 1} {
		far := append([]byte{}, motif...)
		for len(far) < gap {
			far = append(far, byte(rng.Intn(4))) // low-entropy filler: long chains
		}
		in[fmt.Sprintf("window%d", gap)] = append(far, motif...)
	}
	// LZCompress inserts only the last 3+lzMaxChain·d positions of a
	// distance-d match. Periodic runs whose match is just short of, exactly
	// at and one past that tail, and far longer, each followed by a random
	// gap and a second copy whose chain walks reach into the buckets a
	// skipped position would have joined; and each run once more ending the
	// input, so the match stops at len(src).
	for _, d := range []int{1, 2, 4, 6, 192} {
		for _, l := range []int{lzMaxChain*d + 2, lzMaxChain*d + 3, lzMaxChain*d + 4, 300*d + 5} {
			run := make([]byte, d+l)
			for k := range run {
				run[k] = random[1000+k%d]
			}
			head := append([]byte{}, random[:50]...)
			in[fmt.Sprintf("tail%d/%d", d, l)] = append(append(append(head, run...), random[2000:2064]...), run...)
			in[fmt.Sprintf("tail%d/%dAtEnd", d, l)] = append(append([]byte{}, random[:50]...), run...)
		}
	}
	// Matches of every tail length ending exactly at len(src), so both the
	// 8-byte stride and the byte-wise tail of the extension hit the boundary.
	for tail := lzMinMatch; tail <= lzMinMatch+17; tail++ {
		in[fmt.Sprintf("endsAtLen%d", tail)] = append(append([]byte{}, random[:300]...), random[40:40+tail]...)
	}
	return in
}

func TestLZCompressMatchesRef(t *testing.T) {
	for name, src := range lzIdentityInputs() {
		t.Run(name, func(t *testing.T) {
			got, want := LZCompress(src), lzCompressRef(src)
			if !bytes.Equal(got, want) {
				t.Errorf("%d-byte input: token stream differs from reference (%d vs %d bytes)", len(src), len(got), len(want))
			}
			// Both lzDecode entries round-trip; the periodic inputs decode
			// through lzCopyMatch's overlapping (run-replicating) branch.
			back, err := LZDecompress(got)
			if err != nil || !bytes.Equal(back, src) {
				t.Errorf("grow-on-demand round trip failed (err %v)", err)
			}
			into := make([]byte, 0, len(src))
			back, err = lzDecode(into, got)
			if err != nil || !bytes.Equal(back, src) {
				t.Errorf("fixed-destination round trip failed (err %v)", err)
			} else if len(src) > 0 && &back[0] != &into[:1][0] {
				t.Errorf("fixed-destination decode reallocated")
			}
			// A fixed destination the stream does not fill exactly is refused.
			if _, err := lzDecode(make([]byte, 0, len(src)+1), got); err == nil {
				t.Errorf("fixed destination one byte too large accepted")
			}
		})
	}
}

// FuzzLZCompressMatchesRef holds the fast match search to the frozen
// byte-wise encoder on arbitrary input, and round-trips the result.
func FuzzLZCompressMatchesRef(f *testing.F) {
	f.Add([]byte("hello hello hello"))
	f.Add(bytes.Repeat([]byte{0, 0x80}, 300))
	// A period-2 run far longer than the match tail LZCompress inserts,
	// broken once and resumed, so the second run's chain walks start inside
	// the first's buckets.
	f.Add(append(append(bytes.Repeat([]byte{7, 0x81}, 4000), "break"...), bytes.Repeat([]byte{7, 0x81}, 4000)...))
	f.Add(szShapedBytes(512, 3))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		blob := LZCompress(data)
		if !bytes.Equal(blob, lzCompressRef(data)) {
			t.Fatal("token stream differs from reference")
		}
		back, err := LZDecompress(blob)
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("round trip mismatch")
		}
	})
}
