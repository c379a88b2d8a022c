// Package fxrz is the public API of FXRZ — a feature-driven, fixed-ratio,
// compressor-agnostic lossy compression framework for scientific data
// (Rahman et al., ICDE 2023).
//
// Error-bounded lossy compressors answer "how big is the output for this
// error bound?"; FXRZ answers the inverse question practitioners actually
// face under storage quotas, bandwidth caps and memory limits: "which error
// bound reaches this target compression ratio?" — and answers it without
// running the compressor at decision time.
//
// # Quick start
//
//	c := fxrz.NewSZ()
//	fw, err := fxrz.Train(c, trainingFields, fxrz.DefaultConfig())
//	...
//	blob, est, err := fw.CompressToRatio(field, 100) // target ratio 100:1
//
// Train runs the compressor ~25 times per training field to collect
// stationary (error bound, ratio) points, augments them by interpolation,
// and fits a random-forest regressor from (data features, adjusted target
// ratio) to the error-bound setting. EstimateConfig/CompressToRatio then
// cost only a stride-sampled feature extraction plus a model query —
// typically a small fraction of one compression.
//
// Four built-in codecs implement the full compressor suite of the paper's
// evaluation: SZ-style prediction-based (NewSZ), ZFP transform-based in
// fixed-accuracy (NewZFP) and fixed-rate (ByName("zfp-rate")) modes,
// FPZIP-style precision-based (NewFPZIP), and MGARD+-style multilevel
// (NewMGARD). Anything else can participate by implementing Compressor.
package fxrz

import (
	"fmt"
	"io"

	"github.com/fxrz-go/fxrz/internal/brick"
	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/core"
	"github.com/fxrz-go/fxrz/internal/fpzip"
	"github.com/fxrz-go/fxrz/internal/fraz"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/metrics"
	"github.com/fxrz-go/fxrz/internal/mgard"
	"github.com/fxrz-go/fxrz/internal/roi"
	"github.com/fxrz-go/fxrz/internal/sz"
	"github.com/fxrz-go/fxrz/internal/zfp"
)

// Field is a dense 1–4 dimensional float32 scientific field; see NewField.
type Field = grid.Field

// Compressor is an error-controlled lossy compressor: a codec driven by a
// single scalar knob (an absolute error bound, or an integer precision for
// FPZIP-style codecs), described by its Axis.
type Compressor = compress.Compressor

// Axis describes a compressor's configuration knob.
type Axis = compress.Axis

// Config controls training and inference; see DefaultConfig.
type Config = core.Config

// Features are the statistical data features FXRZ extracts (§IV-C).
type Features = core.Features

// Estimate is the inference output: the knob plus the analysis breakdown.
type Estimate = core.Estimate

// TrainStats breaks down where training time went.
type TrainStats = core.TrainStats

// FRaZConfig configures the FRaZ baseline search (see SearchFRaZ).
type FRaZConfig = fraz.Config

// FRaZResult is the outcome of a FRaZ search.
type FRaZResult = fraz.Result

// Model kinds for Config.Model.
const (
	ModelRFR      = core.ModelRFR
	ModelAdaBoost = core.ModelAdaBoost
	ModelSVR      = core.ModelSVR
)

// NewField allocates a zero-filled field with the given dimensions
// (slowest-varying first; 1 to 4 dimensions).
func NewField(name string, dims ...int) (*Field, error) { return grid.New(name, dims...) }

// FieldFromData wraps an existing float32 slice as a field without copying.
func FieldFromData(name string, data []float32, dims ...int) (*Field, error) {
	return grid.FromData(name, data, dims...)
}

// NewSZ returns the SZ-style prediction-based compressor (Lorenzo predictor,
// linear-scaling quantization, Huffman+LZ back end). Knob: absolute error
// bound.
func NewSZ() Compressor { return sz.New() }

// NewSZ2 returns the SZ2-style compressor: SZ's pipeline with per-block
// selection between the Lorenzo predictor and a linear-regression predictor
// (the design of the actual SZ 2.x releases). Knob: absolute error bound.
func NewSZ2() Compressor { return sz.NewV2() }

// NewZFP returns the ZFP transform-based compressor in fixed-accuracy mode.
// Knob: absolute error tolerance.
func NewZFP() Compressor { return zfp.New() }

// NewFPZIP returns the FPZIP-style predictive compressor. Knob: integer
// precision in [2, 32] (retained significant bits).
func NewFPZIP() Compressor { return fpzip.New() }

// NewMGARD returns the MGARD+-style multilevel interpolation compressor.
// Knob: absolute error bound.
func NewMGARD() Compressor { return mgard.New() }

// WithParallelism returns the codec configured for the given intra-field
// worker budget (0 uses all cores, 1 forces serial). Codecs without
// intra-field parallelism are returned unchanged. Output streams and
// reconstructions are bit-identical at every setting.
func WithParallelism(c Compressor, workers int) Compressor {
	return compress.WithWorkers(c, workers)
}

// ByName resolves a codec by its Name(): "sz", "sz2", "zfp", "zfp-rate",
// "fpzip", "mgard". "zfp-rate" is ZFP in fixed-rate mode (knob: bits per
// value), which reaches a target ratio exactly by construction but at
// markedly worse quality than fixed-accuracy mode at the same ratio — the
// trade-off that motivates fixed-ratio frameworks in the first place.
func ByName(name string) (Compressor, error) {
	c, err := codecs.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("fxrz: %w", err)
	}
	return c, nil
}

// DefaultConfig returns the paper's configuration: stride-4 feature
// sampling, Compressibility Adjustment with λ=0.15 over 4³ blocks, 25
// stationary points per training field, and a 100-tree random forest.
func DefaultConfig() Config { return core.DefaultConfig() }

// Framework is a trained FXRZ instance bound to one compressor. A trained
// framework is immutable: EstimateConfig, CompressToRatio, BrickToRatio and
// ValidRatioRange are safe for concurrent use from multiple goroutines.
type Framework struct {
	inner *core.Framework
	codec Compressor
}

// Train builds a framework for the compressor from training fields. This is
// the only phase that runs the compressor (Config.StationaryPoints runs per
// field); inference is compression-free.
func Train(c Compressor, fields []*Field, cfg Config) (*Framework, error) {
	fw, err := core.Train(c, fields, cfg)
	if err != nil {
		return nil, err
	}
	return &Framework{inner: fw, codec: compress.WithWorkers(c, cfg.Parallelism)}, nil
}

// WithParallelism returns a framework whose analysis passes and codec runs
// use the given worker budget (0 uses all cores, 1 forces serial). The
// trained model is shared; estimates, streams and reconstructions are
// bit-identical at every setting.
func (fw *Framework) WithParallelism(workers int) *Framework {
	return &Framework{
		inner: fw.inner.WithParallelism(workers),
		codec: compress.WithWorkers(fw.codec, workers),
	}
}

// EstimateConfig predicts the knob (error bound or precision) expected to
// reach the target compression ratio on the field, without compressing.
func (fw *Framework) EstimateConfig(f *Field, targetRatio float64) (Estimate, error) {
	return fw.inner.EstimateConfig(f, targetRatio)
}

// EstimateFromFeatures predicts the knob from pre-extracted features alone —
// one model query, no field access. caRatio supplies the Compressibility
// Adjustment block ratio R when the caller knows it (NonConstantR of an
// earlier estimate for the same variable); caRatio <= 0 skips adjustment.
// This is the fxrzd serving fast path for clients that cache their features.
func (fw *Framework) EstimateFromFeatures(ft Features, targetRatio, caRatio float64) (Estimate, error) {
	return fw.inner.EstimateFromFeatures(ft, targetRatio, caRatio)
}

// CompressToRatio estimates the knob for the target ratio and compresses the
// field with it, returning the stream and the estimate used.
func (fw *Framework) CompressToRatio(f *Field, targetRatio float64) ([]byte, Estimate, error) {
	est, err := fw.inner.EstimateConfig(f, targetRatio)
	if err != nil {
		return nil, est, err
	}
	blob, err := fw.codec.Compress(f, est.Knob)
	if err != nil {
		return nil, est, fmt.Errorf("fxrz: compressing at estimated knob %g: %w", est.Knob, err)
	}
	return blob, est, nil
}

// Stats returns the training-time breakdown (Table VI).
func (fw *Framework) Stats() TrainStats { return fw.inner.Stats() }

// ValidRatioRange reports the target-ratio interval the framework can serve
// for a field without extrapolating beyond its training curves — choose
// targets inside it, exactly as the paper selects per-dataset valid ratio
// ranges.
func (fw *Framework) ValidRatioRange(f *Field) (lo, hi float64) {
	return fw.inner.ValidRatioRange(f)
}

// Save persists a trained framework (random-forest models only) so later
// runs — and, as the paper envisions, other users of the same application —
// can skip training.
func (fw *Framework) Save(w io.Writer) error { return fw.inner.Save(w) }

// Load restores a framework saved with Save and binds it to the compressor
// it was trained for (resolved by name via ByName).
func Load(r io.Reader) (*Framework, error) {
	inner, err := core.LoadFramework(r)
	if err != nil {
		return nil, err
	}
	c, err := ByName(inner.CompressorName())
	if err != nil {
		return nil, fmt.Errorf("fxrz: model was trained for %q: %w", inner.CompressorName(), err)
	}
	return &Framework{inner: inner, codec: c}, nil
}

// Compressor returns the codec the framework was trained for.
func (fw *Framework) Compressor() Compressor { return fw.codec }

// ExtractFeatures computes the data features on a uniform stride-K sample of
// the field (stride 4 keeps ~1.5% of a 3D field); stride <= 1 uses every
// point.
func ExtractFeatures(f *Field, stride int) Features { return core.ExtractFeatures(f, stride) }

// Ratio returns a stream's compression ratio against its source field.
func Ratio(f *Field, blob []byte) float64 { return compress.Ratio(f, blob) }

// MaxAbsError returns the L∞ distance between two equally-shaped fields.
func MaxAbsError(a, b *Field) (float64, error) { return compress.MaxAbsError(a, b) }

// PSNR returns the peak signal-to-noise ratio of a reconstruction in dB.
func PSNR(orig, rec *Field) (float64, error) { return metrics.PSNR(orig, rec) }

// Decompress reconstructs a field from any stream produced by the built-in
// codecs, dispatching on the stream's magic byte. It decodes serially; use
// DecompressParallel to spend more cores on large fields.
func Decompress(blob []byte) (*Field, error) { return DecompressParallel(blob, 1) }

// DecompressParallel is Decompress with an intra-field worker budget (0 uses
// all cores, 1 decodes serially). The reconstruction is bit-identical at
// every setting.
func DecompressParallel(blob []byte, workers int) (*Field, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("fxrz: empty stream")
	}
	if blob[0] == compress.MagicIndexed {
		// Indexed container: the inner blob is byte-identical to an
		// un-indexed stream, so full decode is exactly the pre-index path.
		inner, _, err := roi.Unwrap(blob)
		if err != nil {
			return nil, err
		}
		return DecompressParallel(inner, workers)
	}
	c, err := codecs.ByMagic(blob[0])
	if err != nil {
		return nil, fmt.Errorf("fxrz: %w", err)
	}
	return compress.WithWorkers(c.New(), workers).Decompress(blob)
}

// IndexBlob wraps a compressed stream into the indexed container format,
// building the region index that lets DecompressRegion seek (one extra
// skim/decode pass at write time, typically <1% extra bytes for zfp
// streams). Indexing is idempotent; codecs without a seekable layout get an
// empty index and still region-decode via the fallback path. Full-field
// decode of the result is bit-identical to decoding the original stream.
func IndexBlob(blob []byte) ([]byte, error) { return roi.Build(blob) }

// ParseRegion parses the textual region syntax "lo0:hi0,lo1:hi1,..."
// (half-open, slowest dimension first) shared by `fxrz unpack -region` and
// the serving layer's region parameter.
func ParseRegion(s string) (lo, hi []int, err error) { return roi.ParseRegion(s) }

// DecompressRegion decodes only the half-open subvolume [lo, hi) of a
// stream — an indexed container, a raw codec blob, or a marshaled brick
// store — returning a field of shape hi-lo whose samples are bit-identical
// to the corresponding slice of a full decode. The cost scales with the
// region, not the field: zfp seeks to block offsets, sz entropy-decodes only
// the chunks covering the region's slabs and restarts the Lorenzo recurrence
// at each one (a field under two slabs is one slab, decoded from row 0), and
// brick stores read only intersecting chunks. Codecs without seekable
// structure fall back to full decode + slice — always correct, just slower.
func DecompressRegion(blob []byte, lo, hi []int) (*Field, error) {
	return DecompressRegionParallel(blob, lo, hi, 1)
}

// DecompressRegionParallel is DecompressRegion with a worker budget (0 uses
// all cores, 1 is serial). The seeking paths spend it on what the region
// covers — sz reconstructs its covering slabs concurrently, zfp splits its
// covering block box into chunks — and the fallback full-decode paths as a
// full decode does. Output is bit-identical at every setting.
func DecompressRegionParallel(blob []byte, lo, hi []int, workers int) (*Field, error) {
	return roi.DecodeRegion(blob, lo, hi, workers)
}

// BrickStore is a chunked compressed representation of one field with
// random access: each brick decompresses independently, so region reads
// touch only the bricks they intersect. See BuildBricks.
type BrickStore = brick.Store

// BuildBricks compresses a field as independent bricks of the given side at
// a fixed knob (error bound or precision).
func BuildBricks(c Compressor, f *Field, side int, knob float64) (*BrickStore, error) {
	return brick.Build(c, f, side, knob)
}

// LoadBricks restores a store persisted with (*BrickStore).Marshal; the
// codec must match the one it was built with.
func LoadBricks(c Compressor, blob []byte) (*BrickStore, error) {
	return brick.Unmarshal(c, blob)
}

// BrickToRatio estimates the knob for the target overall ratio and builds a
// random-access brick store at that knob — fixed-ratio compression that can
// be read region by region.
func (fw *Framework) BrickToRatio(f *Field, targetRatio float64, side int) (*BrickStore, Estimate, error) {
	est, err := fw.inner.EstimateConfig(f, targetRatio)
	if err != nil {
		return nil, est, err
	}
	st, err := brick.Build(fw.codec, f, side, est.Knob)
	if err != nil {
		return nil, est, err
	}
	return st, est, nil
}

// SearchFRaZ runs the FRaZ baseline: an iterative trial-and-error search
// that *runs the compressor* each iteration. It is provided for comparison
// and for targets outside a trained framework's range.
func SearchFRaZ(c Compressor, f *Field, targetRatio float64, cfg FRaZConfig) (FRaZResult, error) {
	return fraz.Search(c, f, targetRatio, cfg)
}

// DefaultFRaZConfig mirrors the paper's FRaZ setup (3 bins) with the given
// per-bin iteration cap (the evaluation uses 6 and 15).
func DefaultFRaZConfig(maxIters int) FRaZConfig { return fraz.DefaultConfig(maxIters) }
