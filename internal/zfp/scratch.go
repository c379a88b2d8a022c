package zfp

import (
	"sync"

	"github.com/fxrz-go/fxrz/internal/obs"
)

// Per-body scratch for the block pipeline, following the scratch-pool pattern
// of internal/sz and internal/entropy: a stationary sweep encodes the same
// field dozens of times, and the gather/quantize/negabinary buffers plus the
// plane matrix are the recurring allocations. Every buffer is fully
// overwritten before any read, so recycling is safe without zeroing:
// gatherPlanes loads all 32 plane words of a 64-coefficient block and
// clears them itself for smaller blocks, and decodeInts clears the
// coefficients it ORs planes into.
//
// Each get reports a hit or miss to the obs counters zfp/scratch_hit and
// zfp/scratch_miss.

// blockScratch bundles the per-block working set of encodeBody/decodeBox.
type blockScratch struct {
	vals   []float32
	q      []int32
	ub     []uint32
	planes [32]uint64
}

var scratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// getBlockScratch returns scratch sized for bs-coefficient blocks (bs ≤ 64).
func getBlockScratch(bs int) *blockScratch {
	s := scratchPool.Get().(*blockScratch)
	if cap(s.vals) < bs {
		obs.Inc("zfp/scratch_miss")
		s.vals = make([]float32, bs)
		s.q = make([]int32, bs)
		s.ub = make([]uint32, bs)
		return s
	}
	obs.Inc("zfp/scratch_hit")
	s.vals = s.vals[:bs]
	s.q = s.q[:bs]
	s.ub = s.ub[:bs]
	return s
}

func putBlockScratch(s *blockScratch) { scratchPool.Put(s) }
