package pool

import (
	"sync"

	"github.com/fxrz-go/fxrz/internal/obs"
)

// Slices recycles []T scratch buffers between runs. A training sweep runs the
// same codec pipeline dozens of times per field, and an estimate-heavy daemon
// runs it per request; recycling the large per-run buffers removes the
// allocations that otherwise dominate GC pressure. Each Get bumps the hit
// counter when recycled capacity sufficed and the miss counter when it had to
// allocate, so a sweep can verify the pool absorbs the steady-state traffic.
// Declare one with NewSlices, which names its two counters.
type Slices[T any] struct {
	// full holds boxed buffers; empty holds the boxes Get emptied, so that
	// Put boxes a buffer without allocating.
	full, empty sync.Pool
	hit, miss   string
}

// NewSlices returns a pool that reports to the obs counters hit and miss.
func NewSlices[T any](hit, miss string) *Slices[T] {
	return &Slices[T]{hit: hit, miss: miss}
}

// Get returns a slice of length n with unspecified contents: a recycled
// buffer when one with capacity ≥ n (and > 0) is available, else a fresh one.
// Callers that read before writing must clear it.
func (p *Slices[T]) Get(n int) []T {
	if b, ok := p.full.Get().(*[]T); ok {
		s := *b
		*b = nil
		p.empty.Put(b)
		if cap(s) >= n && cap(s) > 0 {
			obs.Inc(p.hit)
			return s[:n]
		}
	}
	obs.Inc(p.miss)
	return make([]T, n)
}

// Put hands s back for reuse; the caller must not touch it afterwards.
// Zero-capacity slices are dropped.
func (p *Slices[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	b, ok := p.empty.Get().(*[]T)
	if !ok {
		b = new([]T)
	}
	*b = s
	p.full.Put(b)
}
