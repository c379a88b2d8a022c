package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two duration buckets. Bucket i
// counts samples whose nanosecond count has bit length i, so the range
// spans 1ns through ~292 years — every time.Duration lands somewhere.
const histBuckets = 64

// Histogram is a concurrency-safe timing histogram: power-of-two buckets
// plus exact count/sum/min/max. Percentiles are estimated from the bucket
// the requested rank falls in (geometric midpoint), which is accurate to
// within a factor of √2 — plenty for per-stage wall-time summaries.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; math.MaxInt64 when empty
	max     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketOf maps a duration to its power-of-two bucket index.
func bucketOf(d time.Duration) int {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	return bits.Len64(uint64(ns))
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketOf(d)].Add(1)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) from the bucket counts.
// It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the requested sample, 1-based.
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			return bucketMid(i, h.min.Load(), h.max.Load())
		}
	}
	return time.Duration(h.max.Load())
}

// bucketMid returns the representative duration of bucket i — the geometric
// midpoint of [2^(i-1), 2^i), clamped into the observed [min, max] range so
// single-bucket histograms report sensible values.
func bucketMid(i int, mn, mx int64) time.Duration {
	var lo, hi float64
	if i == 0 {
		return 0
	}
	lo = math.Exp2(float64(i - 1))
	hi = math.Exp2(float64(i))
	mid := int64(math.Sqrt(lo * hi))
	if mid < mn {
		mid = mn
	}
	if mid > mx {
		mid = mx
	}
	return time.Duration(mid)
}

// Stats summarises the histogram for a Snapshot.
func (h *Histogram) Stats() SpanStats {
	n := h.count.Load()
	s := SpanStats{Count: n}
	if n == 0 {
		return s
	}
	total := time.Duration(h.sum.Load())
	s.TotalMS = ms(total)
	s.MeanMS = ms(total / time.Duration(n))
	s.MinMS = ms(time.Duration(h.min.Load()))
	s.MaxMS = ms(time.Duration(h.max.Load()))
	s.P50MS = ms(h.Quantile(0.50))
	s.P90MS = ms(h.Quantile(0.90))
	s.P99MS = ms(h.Quantile(0.99))
	return s
}

// ms converts a duration to fractional milliseconds (the snapshot unit).
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
