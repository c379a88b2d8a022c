package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/ml"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/sz"
)

// TestTrainParallelismDeterminism enforces the tentpole contract: same seed +
// same fields must yield bit-identical frameworks at Parallelism 1, 2 and
// NumCPU — identical sample counts, ratio hulls, model predictions and
// serialized model bytes. The serial baseline runs with obs recording
// disabled and every other run with it enabled, so the test also proves the
// observability layer cannot perturb training (counters are observational
// only and excluded from model serialization).
func TestTrainParallelismDeterminism(t *testing.T) {
	fields := []*grid.Field{
		waveField("det-a", 12, 4),
		waveField("det-b", 12, 9),
		waveField("det-c", 12, 17),
	}
	probe := waveField("det-probe", 12, 6)

	type result struct {
		samples  int
		lo, hi   float64
		knob     float64
		acr      float64
		nonConst float64
		modelSum string
	}
	run := func(p int) result {
		cfg := Config{
			StationaryPoints: 8,
			AugmentPerField:  40,
			Trees:            25,
			Seed:             11,
			UseCA:            true,
			Parallelism:      p,
		}
		fw, err := Train(sz.New(), fields, cfg)
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", p, err)
		}
		lo, hi := fw.TrainedRatioRange()
		est, err := fw.EstimateConfig(probe, (lo+hi)/2)
		if err != nil {
			t.Fatalf("Parallelism=%d: estimate: %v", p, err)
		}
		// Hash the serialized forest alone: Save also gob-encodes TrainStats,
		// whose wall-clock durations legitimately differ between runs. The
		// model bits are the determinism contract — obs counters and timings
		// must never leak into them.
		forest, err := fw.model.(*ml.Forest).MarshalBinary()
		if err != nil {
			t.Fatalf("Parallelism=%d: marshal forest: %v", p, err)
		}
		sum := sha256.Sum256(forest)
		return result{
			samples:  fw.Stats().Samples,
			lo:       lo,
			hi:       hi,
			knob:     est.Knob,
			acr:      est.AdjustedRatio,
			nonConst: est.NonConstantR,
			modelSum: hex.EncodeToString(sum[:]),
		}
	}

	obs.Disable()
	want := run(1) // baseline: serial, recording off

	obs.Enable()
	defer obs.Disable()
	if got := run(1); got != want {
		t.Errorf("obs recording perturbed serial training:\n got %+v\nwant %+v", got, want)
	}
	for _, p := range []int{2, runtime.NumCPU()} {
		if got := run(p); got != want {
			t.Errorf("Parallelism=%d diverged from serial:\n got %+v\nwant %+v", p, got, want)
		}
	}

	// The instrumented runs must have recorded the per-stage spans and
	// compressor run counts the snapshot schema promises.
	s := obs.TakeSnapshot()
	for _, span := range []string{"train/sweep", "train/analysis", "train/assembly", "features/extract", "ca/scan"} {
		if s.Spans[span].Count == 0 {
			t.Errorf("span %q not recorded during instrumented training", span)
		}
	}
	if s.Counters["compressor_runs/sz"] == 0 {
		t.Error("compressor_runs/sz counter not recorded")
	}
}

// TestNonConstantRatioParallelQuick is the testing/quick property of the
// issue: parallel NonConstantRatio must equal the serial reference for
// arbitrary fields, data classes, block sides and worker counts.
func TestNonConstantRatioParallelQuick(t *testing.T) {
	property := func(seed int64, dimSel, classSel, sideSel, workerSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + int(dimSel)%3
		dims := make([]int, nd)
		for i := range dims {
			dims[i] = 1 + rng.Intn(9)
		}
		f := grid.MustNew("quick", dims...)
		class := caDataClasses[int(classSel)%len(caDataClasses)]
		class.fill(f.Data, rng)
		side := 1 + int(sideSel)%5
		workers := 1 + int(workerSel)%8
		serial := NonConstantRatioParallel(f, side, DefaultLambda, 1)
		parallel := NonConstantRatioParallel(f, side, DefaultLambda, workers)
		if serial != parallel {
			t.Logf("dims=%v %s side=%d workers=%d: serial=%v parallel=%v", dims, class.name, side, workers, serial, parallel)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestExtractFeaturesParallelDeterminism checks bit-identical features at
// every worker count on a field large enough to span multiple reduction
// chunks (40³ = 64000 > reductionChunk), and that the two entry points agree:
// the same five adopted features, and ExtractFeatures's gradients those of
// the generic pass over the lattice in place.
func TestExtractFeaturesParallelDeterminism(t *testing.T) {
	f := waveField("chunked", 40, 7)
	if f.Size() <= reductionChunk {
		t.Fatalf("test field must span multiple chunks; size %d", f.Size())
	}
	serial := ExtractFeaturesParallel(f, 1, 1)
	for _, workers := range []int{2, 3, 8} {
		got := ExtractFeaturesParallel(f, 1, workers)
		if got != serial {
			t.Errorf("workers=%d: features diverged\n got %+v\nwant %+v", workers, got, serial)
		}
	}
	for _, stride := range []int{1, 4} {
		par, all := ExtractFeaturesParallel(f, stride, 8), ExtractFeatures(f, stride)
		if !sameBits(par.Vector(), all.Vector()) {
			t.Errorf("stride %d: adopted features diverged\n got %+v\nwant %+v", stride, par, all)
		}
		inPlace := latticeOf(f, stride).extract(1, true)
		if !sameBits(all.FullVector()[5:], inPlace.FullVector()[5:]) || all.MeanGradient == 0 {
			t.Errorf("stride %d: gradients %+v, in place %+v", stride, all, inPlace)
		}
	}
}

// TestBuildCurveParallelDeterminism checks curve equality and deterministic
// error reporting across worker counts.
func TestBuildCurveParallelDeterminism(t *testing.T) {
	f := rampField("curve-par", 24)
	comp := &fakeCompressor{scale: 8}
	knobs := SweepKnobs(comp.Axis(), f, 9)

	want, err := BuildCurve(comp, f, knobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := BuildCurveParallel(comp, f, knobs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Points()) != len(want.Points()) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got.Points()), len(want.Points()))
		}
		for i, p := range got.Points() {
			if p != want.Points()[i] {
				t.Errorf("workers=%d: point %d = %+v, want %+v", workers, i, p, want.Points()[i])
			}
		}
	}

	// Failing sweeps must surface the same (lowest-knob) error at any width.
	bad := &failingCompressor{fakeCompressor: fakeCompressor{scale: 8}, failKnob: knobs[2]}
	wantErr := fmt.Sprintf("core: stationary point knob=%g on %s", knobs[2], f.Name)
	for _, workers := range []int{1, 2, 8} {
		_, err := BuildCurveParallel(bad, f, knobs, workers)
		if err == nil || len(err.Error()) < len(wantErr) || err.Error()[:len(wantErr)] != wantErr {
			t.Errorf("workers=%d: err = %v, want prefix %q", workers, err, wantErr)
		}
	}
}

// failingCompressor fails on one specific knob value and otherwise behaves
// like fakeCompressor. It is stateless, so concurrent sweeps stay race-free.
type failingCompressor struct {
	fakeCompressor
	failKnob float64
}

func (f *failingCompressor) Compress(fl *grid.Field, knob float64) ([]byte, error) {
	if knob == f.failKnob {
		return nil, fmt.Errorf("injected failure")
	}
	return f.fakeCompressor.Compress(fl, knob)
}
