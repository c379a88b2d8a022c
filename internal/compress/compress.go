// Package compress defines the error-controlled lossy compressor abstraction
// shared by the SZ-, ZFP-, FPZIP- and MGARD-like codecs, together with the
// "configuration axis" concept FXRZ regresses over.
//
// Every codec in this repository is driven by a single scalar knob. For
// SZ/ZFP/MGARD the knob is an absolute error bound; for FPZIP it is an
// integer precision (number of retained significant bits, 1..32). FXRZ is
// compressor-agnostic precisely because it only ever manipulates the knob
// through the Axis interface: the ML model regresses the axis' model-space
// value (log10 of the bound, or the precision itself) against data features
// and the adjusted target ratio.
package compress

import (
	"errors"
	"fmt"
	"math"

	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// ErrCorrupt reports a malformed compressed stream.
var ErrCorrupt = errors.New("compress: corrupt stream")

// Compressor is an error-controlled lossy compressor.
type Compressor interface {
	// Name returns the codec identifier used in experiment tables
	// ("sz", "zfp", "fpzip", "mgard").
	Name() string
	// Axis describes the codec's configuration knob.
	Axis() Axis
	// Compress encodes the field under the given knob setting.
	Compress(f *grid.Field, knob float64) ([]byte, error)
	// Decompress reconstructs a field from an encoded stream.
	Decompress(blob []byte) (*grid.Field, error)
}

// ParallelCompressor is implemented by codecs whose Compress/Decompress can
// fan a single call out across a worker pool. The contract is strict: output
// must be byte-identical (and reconstructions bit-identical) at every worker
// budget, so binding a budget never invalidates a ratio curve, a trained
// model, or a recorded baseline.
type ParallelCompressor interface {
	Compressor
	// WithWorkers returns a codec bound to the given worker budget, with
	// pool.Workers semantics: 0 selects all cores, 1 forces a fully serial
	// run. The receiver is not modified.
	WithWorkers(n int) Compressor
}

// WithWorkers binds a worker budget to c when the codec supports intra-field
// parallelism, and returns c unchanged otherwise. Sweeps use it to split a
// Parallelism budget between outer (per-task) and inner (per-call) fan-out
// without caring which codecs can use the inner share.
func WithWorkers(c Compressor, n int) Compressor {
	if p, ok := c.(ParallelCompressor); ok {
		return p.WithWorkers(n)
	}
	return c
}

// Sizer is implemented by codecs that can tell how long their streams would
// be without writing them. A stationary sweep needs only len(blob) from each
// run, so a codec whose size falls out of an earlier stage of its encoder
// (a per-block bit count, a Huffman plan) saves the rest. The contract is
// strict: every size equals len(Compress(f, k)) at every worker budget.
type Sizer interface {
	Compressor
	// CompressedSizes returns len(Compress(f, k)) for every k in knobs,
	// within the worker budget the codec is bound to (ParallelCompressor).
	// When Compress fails on a knob it returns a *KnobError holding the first
	// such knob and Compress's error.
	CompressedSizes(f *grid.Field, knobs []float64) ([]int, error)
}

// KnobError is the failure of one knob of a size list. Its message is the
// message of the Compress error it wraps, so a caller that adds the knob to
// its own context can take it from Knob.
type KnobError struct {
	Knob float64
	Err  error
}

// Error returns the wrapped Compress error's message.
func (e *KnobError) Error() string { return e.Err.Error() }

// Unwrap returns the wrapped Compress error.
func (e *KnobError) Unwrap() error { return e.Err }

// CompressedSizes returns len(c.Compress(f, k)) for every knob with at most
// workers goroutines (pool.Workers semantics): through the codec's Sizer
// hook when it has one, otherwise by compressing at every knob under
// SizeEach. On failure it returns the *KnobError of the first knob that
// fails.
func CompressedSizes(c Compressor, f *grid.Field, knobs []float64, workers int) ([]int, error) {
	if s, ok := WithWorkers(c, pool.Workers(workers)).(Sizer); ok {
		return s.CompressedSizes(f, knobs)
	}
	return SizeEach(knobs, workers, func(k float64, inner int) (int, error) {
		blob, err := WithWorkers(c, inner).Compress(f, k)
		return len(blob), err
	})
}

// SizeEach returns size(k, inner) for every knob, the knobs fanned out under
// pool.Split(pool.Workers(workers), len(knobs)) and each call given the inner
// share. On failure it returns a *KnobError holding the first knob whose call
// fails and that call's error.
func SizeEach(knobs []float64, workers int, size func(knob float64, workers int) (int, error)) ([]int, error) {
	outer, inner := pool.Split(pool.Workers(workers), len(knobs))
	sizes := make([]int, len(knobs))
	err := pool.RunErr(outer, len(knobs), func(j int) error {
		n, err := size(knobs[j], inner)
		if err != nil {
			return &KnobError{Knob: knobs[j], Err: err}
		}
		sizes[j] = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sizes, nil
}

// AxisKind distinguishes the two knob semantics in the evaluated codecs.
type AxisKind int

const (
	// AbsErrorBound knobs are positive absolute L∞ error bounds; the model
	// space is log10(knob) because ratios vary with the bound's exponent.
	AbsErrorBound AxisKind = iota
	// Precision knobs are integer bit precisions (FPZIP, 1..32); larger
	// precision means lower error and lower ratio, so the model space is the
	// negated precision to keep "larger model value → larger ratio".
	Precision
)

// Axis describes a codec's configuration knob and its valid domain.
type Axis struct {
	Kind AxisKind
	// Min and Max bound the knob domain used for training sweeps and for
	// FRaZ's search range.
	Min, Max float64
}

// ToModel maps a knob value into the space the ML model regresses in.
func (a Axis) ToModel(knob float64) float64 {
	switch a.Kind {
	case AbsErrorBound:
		return math.Log10(knob)
	default:
		return -knob
	}
}

// FromModel inverts ToModel and clamps into the valid domain.
func (a Axis) FromModel(v float64) float64 {
	var knob float64
	switch a.Kind {
	case AbsErrorBound:
		knob = math.Pow(10, v)
	default:
		knob = math.Round(-v)
	}
	return a.Clamp(knob)
}

// Clamp restricts a knob to the axis domain (and rounds precisions).
func (a Axis) Clamp(knob float64) float64 {
	if a.Kind == Precision {
		knob = math.Round(knob)
	}
	if knob < a.Min {
		knob = a.Min
	}
	if knob > a.Max {
		knob = a.Max
	}
	return knob
}

// Span returns n knob settings covering the domain: log-uniform for error
// bounds (matching the paper's "uniformly spanned ... error bound settings"
// over exponents), integer-uniform for precisions. n must be >= 2.
func (a Axis) Span(n int) []float64 {
	if n < 2 {
		n = 2
	}
	out := make([]float64, 0, n)
	switch a.Kind {
	case AbsErrorBound:
		lo, hi := math.Log10(a.Min), math.Log10(a.Max)
		for i := 0; i < n; i++ {
			out = append(out, math.Pow(10, lo+(hi-lo)*float64(i)/float64(n-1)))
		}
	default:
		lo, hi := a.Min, a.Max
		prev := math.Inf(-1)
		for i := 0; i < n; i++ {
			p := math.Round(lo + (hi-lo)*float64(i)/float64(n-1))
			if p != prev {
				out = append(out, p)
				prev = p
			}
		}
	}
	return out
}

// MaxPlausibleElems bounds the element count a payload of the given size
// could plausibly encode with any built-in codec. The most compact real
// streams (constant fields through the LZ stage) stay far below 65536
// elements per payload byte; decoders reject headers claiming more before
// allocating, so corrupt streams cannot demand gigabyte buffers.
func MaxPlausibleElems(payloadLen int) int { return 65536*payloadLen + 65536 }

// maxAddressableElems mirrors grid's addressable-size ceiling (2^40
// samples); header dims whose product exceeds it can never name a real
// field and are rejected as corrupt before any arithmetic that could
// overflow.
const maxAddressableElems = 1 << 40

// CheckElems validates the element count a decoded header claims against
// the payload that supposedly encodes it, returning the dims product. The
// product is accumulated overflow-safely, so absurd headers (four maximal
// dims whose naive product wraps around int64 to something small) fail
// here — before any decoder allocation — rather than slipping past a
// naive `product > budget` compare. Every decode path calls this right
// after ParseHeader: the serve layer feeds attacker-controlled bytes
// straight into Decompress, and the contract is errors, never panics or
// unbounded allocations.
func CheckElems(dims []int, payloadLen int) (int, error) {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("%w: non-positive dim %d", ErrCorrupt, d)
		}
		if n > maxAddressableElems/d {
			return 0, fmt.Errorf("%w: dims %v overflow addressable size", ErrCorrupt, dims)
		}
		n *= d
	}
	if n > MaxPlausibleElems(payloadLen) {
		return 0, fmt.Errorf("%w: %d elements implausible for %d payload bytes", ErrCorrupt, n, payloadLen)
	}
	return n, nil
}

// Ratio returns the compression ratio of an encoded stream for a field.
func Ratio(f *grid.Field, blob []byte) float64 { return SizeRatio(f, len(blob)) }

// SizeRatio is Ratio for a stream of size bytes (a CompressedSizes entry).
func SizeRatio(f *grid.Field, size int) float64 {
	if size == 0 {
		return 0
	}
	return float64(f.Bytes()) / float64(size)
}

// MaxAbsError returns the L∞ distance between two equally-shaped fields.
func MaxAbsError(a, b *grid.Field) (float64, error) {
	if a.Size() != b.Size() {
		return 0, fmt.Errorf("compress: size mismatch %d vs %d", a.Size(), b.Size())
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m, nil
}

// CompressRatio is a convenience that compresses and reports the ratio.
func CompressRatio(c Compressor, f *grid.Field, knob float64) (float64, error) {
	blob, err := c.Compress(f, knob)
	if err != nil {
		return 0, err
	}
	return Ratio(f, blob), nil
}
