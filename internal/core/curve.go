package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// Stationary is one measured (knob setting, compression ratio) point
// obtained by actually running a compressor (§IV-B).
type Stationary struct {
	Knob  float64
	Ratio float64
}

// Curve is the interpolated knob-versus-ratio relation built from stationary
// points. Interpolation is piecewise linear between consecutive points with
// the knob expressed in the axis' model space (log10 of the error bound),
// matching the paper's observation that the relation is approximately linear
// between nearby stationary points.
type Curve struct {
	axis compress.Axis
	// points sorted by ratio ascending, de-duplicated and made monotone.
	pts []Stationary
}

// Sweep measures the stationary points of every field — the only compressor
// runs in the whole pipeline (§IV-B) — and returns one curve per field,
// curves[i] belonging to fields[i]. Each field is swept at the knobs
// sweepKnobs(axis, field, n) picks, and a point needs only the stream's
// length, so each field's knobs are measured in one compress.CompressedSizes
// call: through the codec's Sizer hook when it has one, by compressing at
// every knob otherwise. The fields form one task list over a bounded pool;
// each curve lands in its own indexed slot and the error reported is the
// lowest-(field, knob) one, so the curves, and the error surfaced on failure,
// are identical at every worker count (pool.Workers semantics). The
// compressor must be safe for concurrent use (all built-in codecs are
// stateless).
func Sweep(c compress.Compressor, fields []*grid.Field, n, workers int) ([]*Curve, error) {
	knobs := make([][]float64, len(fields))
	tasks := 0
	for i, f := range fields {
		knobs[i] = sweepKnobs(c.Axis(), f, n)
		if len(knobs[i]) < 2 {
			return nil, fmt.Errorf("core: need at least 2 stationary knobs on %s, got %d", f.Name, len(knobs[i]))
		}
		tasks += len(knobs[i])
	}
	defer obs.Span("train/sweep")()
	obs.Add("train/sweep_tasks", int64(tasks))
	// Budget rule for nested pools: outer×inner ≈ workers, and each field's
	// size list gets the inner width, which the codec splits over its knobs.
	outer, inner := pool.Split(pool.Workers(workers), len(fields))
	pts := make([][]Stationary, len(fields))
	err := pool.RunErr(outer, len(fields), func(i int) error {
		var err error
		pts[i], err = measure(c, fields[i], knobs[i], inner)
		return err
	})
	if err != nil {
		return nil, err
	}
	curves := make([]*Curve, len(fields))
	for i, f := range fields {
		if curves[i], err = NewCurve(c.Axis(), pts[i]); err != nil {
			return nil, fmt.Errorf("%w on %s", err, f.Name)
		}
	}
	return curves, nil
}

// measure returns the (knob, ratio) point of f at every knob, sized in one
// compress.CompressedSizes call within workers.
func measure(c compress.Compressor, f *grid.Field, knobs []float64, workers int) ([]Stationary, error) {
	sizes, err := compress.CompressedSizes(c, f, knobs, workers)
	var ke *compress.KnobError
	if errors.As(err, &ke) {
		return nil, fmt.Errorf("core: stationary point knob=%g on %s: %w", ke.Knob, f.Name, ke.Err)
	}
	if err != nil {
		return nil, err
	}
	pts := make([]Stationary, len(knobs))
	for j, k := range knobs {
		pts[j] = Stationary{Knob: k, Ratio: compress.SizeRatio(f, sizes[j])}
	}
	return pts, nil
}

// NewCurve builds a curve from measured stationary points (Sweep's, or a
// test's).
func NewCurve(axis compress.Axis, pts []Stationary) (*Curve, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("core: need at least 2 stationary points, got %d", len(pts))
	}
	sorted := append([]Stationary(nil), pts...)
	// Sort by model-space knob (looser → larger ratio for all axes).
	sort.Slice(sorted, func(i, j int) bool {
		return axis.ToModel(sorted[i].Knob) < axis.ToModel(sorted[j].Knob)
	})
	// Enforce ratio monotonicity: lossy back ends occasionally dip; the
	// cumulative max keeps the inverse well defined (the paper's curves are
	// monotone at its measurement granularity).
	clean := sorted[:0]
	maxRatio := math.Inf(-1)
	for _, p := range sorted {
		if p.Ratio <= 0 || math.IsNaN(p.Ratio) {
			continue
		}
		if p.Ratio > maxRatio {
			clean = append(clean, p)
			maxRatio = p.Ratio
		}
	}
	if len(clean) < 2 {
		return nil, fmt.Errorf("core: stationary points collapse to %d after monotone cleanup", len(clean))
	}
	return &Curve{axis: axis, pts: clean}, nil
}

// Points returns the cleaned stationary points, ratio-ascending.
func (c *Curve) Points() []Stationary { return c.pts }

// RatioRange returns the span of ratios the curve can invert.
func (c *Curve) RatioRange() (lo, hi float64) {
	return c.pts[0].Ratio, c.pts[len(c.pts)-1].Ratio
}

// KnobForRatio interpolates the knob expected to achieve the given ratio.
// Ratios outside the stationary range clamp to the nearest endpoint and
// report ok=false.
func (c *Curve) KnobForRatio(ratio float64) (knob float64, ok bool) {
	pts := c.pts
	if ratio <= pts[0].Ratio {
		return pts[0].Knob, ratio == pts[0].Ratio
	}
	if ratio >= pts[len(pts)-1].Ratio {
		return pts[len(pts)-1].Knob, ratio == pts[len(pts)-1].Ratio
	}
	i := sort.Search(len(pts), func(k int) bool { return pts[k].Ratio >= ratio }) // first >= ratio
	a, b := pts[i-1], pts[i]
	t := (ratio - a.Ratio) / (b.Ratio - a.Ratio)
	ma, mb := c.axis.ToModel(a.Knob), c.axis.ToModel(b.Knob)
	return c.axis.FromModel(ma + t*(mb-ma)), true
}

// Sample is one augmented training observation: a ratio and the knob the
// curve attributes to it.
type Sample struct {
	Ratio float64
	Knob  float64
}

// Augment generates n samples uniformly spaced in ratio across the curve's
// valid range — the paper's interpolation-based data augmentation, which
// multiplies ~25 compressor runs into an arbitrarily dense training set
// without running the compressor again.
func (c *Curve) Augment(n int) []Sample {
	if n < 2 {
		n = 2
	}
	lo, hi := c.RatioRange()
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		r := lo + (hi-lo)*float64(i)/float64(n-1)
		k, _ := c.KnobForRatio(r)
		out = append(out, Sample{Ratio: r, Knob: k})
	}
	return out
}

// InterpolationError measures a measured curve's self-consistency the way
// §IV-B reports it (3–5% per compressor): for each interior stationary point
// of the field's curve, a curve is rebuilt without it and the knob for its
// ratio is interpolated; the compressor is run at those knobs (one
// compress.CompressedSizes call within workers), and the relative ratio
// errors are averaged.
func InterpolationError(c compress.Compressor, f *grid.Field, full *Curve, workers int) (float64, error) {
	pts := full.Points()
	if len(pts) < 3 {
		return 0, fmt.Errorf("core: need 3+ stationary points for leave-one-out, got %d", len(pts))
	}
	var knobs, want []float64
	for i := 1; i < len(pts)-1; i++ {
		rest := make([]Stationary, 0, len(pts)-1)
		rest = append(rest, pts[:i]...)
		rest = append(rest, pts[i+1:]...)
		sub, err := NewCurve(c.Axis(), rest)
		if err != nil {
			return 0, err
		}
		if knob, ok := sub.KnobForRatio(pts[i].Ratio); ok {
			knobs = append(knobs, knob)
			want = append(want, pts[i].Ratio)
		}
	}
	if len(knobs) == 0 {
		return 0, fmt.Errorf("core: no interior points usable")
	}
	sizes, err := compress.CompressedSizes(c, f, knobs, workers)
	if err != nil {
		return 0, err
	}
	var total float64
	for j, size := range sizes {
		total += math.Abs(compress.SizeRatio(f, size)-want[j]) / want[j]
	}
	return total / float64(len(knobs)), nil
}
