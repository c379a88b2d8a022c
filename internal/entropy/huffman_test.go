package entropy

import (
	"container/heap"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// The oracle is the code builder as it was first written: a container/heap
// of (weight, pool index) items merged two at a time, and canonical codes
// assigned by sorting (length, symbol) pairs. huffmanLengths and
// canonicalCodes must reproduce it exactly, tie order included: every
// length decides the bytes of every stream.

type oracleItem struct{ w, idx int }

type oracleHeap []oracleItem

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w < h[j].w
	}
	return h[i].idx < h[j].idx
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleItem)) }
func (h *oracleHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// heapLengths is the oracle for huffmanLengths. clamped reports whether a
// depth exceeded maxHuffmanLen, so fixKraft had work to do.
func heapLengths(freq []int) (lengths []uint8, clamped bool) {
	type node struct{ sym, left, right int }
	var pool []node
	h := &oracleHeap{}
	for s, f := range freq {
		if f > 0 {
			pool = append(pool, node{sym: s, left: -1, right: -1})
			heap.Push(h, oracleItem{w: f, idx: len(pool) - 1})
		}
	}
	lengths = make([]uint8, len(freq))
	switch h.Len() {
	case 0:
		return lengths, false
	case 1:
		lengths[pool[0].sym] = 1
		return lengths, false
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(oracleItem)
		b := heap.Pop(h).(oracleItem)
		pool = append(pool, node{sym: -1, left: a.idx, right: b.idx})
		heap.Push(h, oracleItem{w: a.w + b.w, idx: len(pool) - 1})
	}
	type frame struct{ idx, depth int }
	stack := []frame{{heap.Pop(h).(oracleItem).idx, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := pool[f.idx]
		if nd.sym < 0 {
			stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
			continue
		}
		if f.depth > maxHuffmanLen {
			clamped = true
		}
		lengths[nd.sym] = uint8(min(f.depth, maxHuffmanLen))
	}
	fixKraft(lengths)
	return lengths, clamped
}

// sortedCodes is the oracle for canonicalCodes: (length, symbol) pairs
// sorted, then numbered. Zero-length symbols get the zero code.
func sortedCodes(lengths []uint8) []huffCode {
	var syms []int
	for s, l := range lengths {
		if l > 0 {
			syms = append(syms, s)
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if lengths[syms[i]] != lengths[syms[j]] {
			return lengths[syms[i]] < lengths[syms[j]]
		}
		return syms[i] < syms[j]
	})
	codes := make([]huffCode, len(lengths))
	var code uint32
	var prevLen uint8
	for _, s := range syms {
		l := lengths[s]
		code <<= l - prevLen
		prevLen = l
		codes[s] = huffCode{code: bits.Reverse32(code) >> (32 - l), len: l}
		code++
	}
	return codes
}

// oracleTables returns the frequency tables the oracle test checks: the
// named edge cases, then random tables of many shapes, most with heavy ties.
func oracleTables(rng *rand.Rand) (named map[string][]int, random [][]int) {
	named = map[string][]int{
		"single":        {0, 0, 7, 0},
		"single-alone":  {3},
		"two":           {5, 5},
		"all-equal-3":   {4, 4, 4},
		"all-equal-256": make([]int, 256),
		"all-equal-257": make([]int, 257),
		"sparse-2^40":   make([]int, 4096),
		"alphabet-2^16": make([]int, 1<<16),
		"fibonacci-40":  make([]int, 40),
		"fibonacci-60":  make([]int, 60),
	}
	for _, k := range []string{"all-equal-256", "all-equal-257"} {
		for s := range named[k] {
			named[k][s] = 9
		}
	}
	for i := 0; i < 64; i++ {
		named["sparse-2^40"][rng.Intn(4096)] = 1 + rng.Intn(1<<40)
	}
	for s := range named["alphabet-2^16"] {
		named["alphabet-2^16"][s] = 1 + rng.Intn(1<<uint(rng.Intn(20)))
	}
	for _, k := range []string{"fibonacci-40", "fibonacci-60"} {
		f := named[k]
		a, b := 1, 1
		for s := range f {
			f[s] = a
			a, b = b, a+b
		}
		rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
	}
	for i := 0; i < 2500; i++ {
		freq := make([]int, 1+rng.Intn(1+rng.Intn(600)))
		density := rng.Float64()
		top := 1 << uint(rng.Intn(41))
		for s := range freq {
			if rng.Float64() < density {
				freq[s] = 1 + rng.Intn(top)
			}
		}
		random = append(random, freq)
	}
	return named, random
}

// TestHuffmanMatchesHeapOracle checks huffmanLengths and canonicalCodes
// against the heap and sort construction on 2,510 tables: a single symbol,
// all-equal weights, sparse weights up to 2^40, a 2^16-symbol alphabet,
// Fibonacci weights deep enough to clamp and repair, and random tables.
func TestHuffmanMatchesHeapOracle(t *testing.T) {
	named, random := oracleTables(rand.New(rand.NewSource(48)))
	check := func(name string, freq []int) (clamped bool) {
		want, clamped := heapLengths(freq)
		got := huffmanLengths(freq)
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("%s: symbol %d of %d: length %d, oracle %d", name, s, len(freq), got[s], want[s])
			}
		}
		wantCodes, codes := sortedCodes(want), canonicalCodes(got)
		defer codeScratch.Put(codes)
		for s, l := range want {
			if l > 0 && codes[s] != wantCodes[s] {
				t.Fatalf("%s: symbol %d: code %+v, oracle %+v", name, s, codes[s], wantCodes[s])
			}
		}
		return clamped
	}
	for name, freq := range named {
		if clamped := check(name, freq); clamped != (name == "fibonacci-40" || name == "fibonacci-60") {
			t.Errorf("%s: clamped = %v", name, clamped)
		}
	}
	for i, freq := range random {
		check(fmt.Sprintf("random %d", i), freq)
	}
}
