package core

import (
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
// sweepKnobs(axis, field, n) picks. The (field, knob) runs form one flat task
// list over a bounded pool; each measurement lands in its own indexed slot and
// the error reported is the lowest-indexed task's, so the curves, and the
// error surfaced on failure, are identical at every worker count
// (pool.Workers semantics). The compressor must be safe for concurrent
// Compress calls (all built-in codecs are stateless).
func Sweep(c compress.Compressor, fields []*grid.Field, n, workers int) ([]*Curve, error) {
	knobs := make([][]float64, len(fields))
	pts := make([][]Stationary, len(fields))
	var tasks [][2]int // (field, knob) index pairs, field-major
	for i, f := range fields {
		knobs[i] = sweepKnobs(c.Axis(), f, n)
		if len(knobs[i]) < 2 {
			return nil, fmt.Errorf("core: need at least 2 stationary knobs on %s, got %d", f.Name, len(knobs[i]))
		}
		pts[i] = make([]Stationary, len(knobs[i]))
		for j := range knobs[i] {
			tasks = append(tasks, [2]int{i, j})
		}
	}
	defer obs.Span("train/sweep")()
	obs.Add("train/sweep_tasks", int64(len(tasks)))
	// Budget rule for nested pools: outer×inner ≈ workers, and the codec is
	// explicitly pinned to the inner width so a parallel-capable compressor's
	// zero-value default (all cores) cannot oversubscribe inside each task.
	outer, inner := pool.Split(pool.Workers(workers), len(tasks))
	cc := compress.WithWorkers(c, inner)
	err := pool.RunErr(outer, len(tasks), func(ti int) error {
		i, j := tasks[ti][0], tasks[ti][1]
		k := knobs[i][j]
		r, err := compress.CompressRatio(cc, fields[i], k)
		if err != nil {
			return fmt.Errorf("core: stationary point knob=%g on %s: %w", k, fields[i].Name, err)
		}
		pts[i][j] = Stationary{Knob: k, Ratio: r}
		return nil
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
// of the field's curve, a curve is rebuilt without it, the knob for its ratio
// is interpolated, the compressor is run at that knob, and the relative ratio
// error is averaged.
func InterpolationError(c compress.Compressor, f *grid.Field, full *Curve) (float64, error) {
	pts := full.Points()
	if len(pts) < 3 {
		return 0, fmt.Errorf("core: need 3+ stationary points for leave-one-out, got %d", len(pts))
	}
	var total float64
	var count int
	for i := 1; i < len(pts)-1; i++ {
		rest := make([]Stationary, 0, len(pts)-1)
		rest = append(rest, pts[:i]...)
		rest = append(rest, pts[i+1:]...)
		sub, err := NewCurve(c.Axis(), rest)
		if err != nil {
			return 0, err
		}
		knob, ok := sub.KnobForRatio(pts[i].Ratio)
		if !ok {
			continue
		}
		measured, err := compress.CompressRatio(c, f, knob)
		if err != nil {
			return 0, err
		}
		total += math.Abs(measured-pts[i].Ratio) / pts[i].Ratio
		count++
	}
	if count == 0 {
		return 0, fmt.Errorf("core: no interior points usable")
	}
	return total / float64(count), nil
}
