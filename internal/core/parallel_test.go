package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"github.com/fxrz-go/fxrz/internal/datagen"
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

// TestSweepGivesTheSameModel checks that one sweep over several fields
// equals each field swept alone at every width, that every width reports the
// same lowest-(field, knob) error, and that training on Sweep's curves gives
// the forest Train gives.
func TestSweepGivesTheSameModel(t *testing.T) {
	fields := []*grid.Field{rampField("sweep-a", 12), waveField("sweep-b", 12, 5), waveField("sweep-c", 10, 9)}
	comp := &fakeCompressor{scale: 8}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		all, err := Sweep(comp, fields, 9, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, f := range fields {
			alone, err := Sweep(comp, []*grid.Field{f}, 9, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(all[i], alone[0]) {
				t.Errorf("workers=%d: %s swept with the others = %+v, alone = %+v", workers, f.Name, all[i].Points(), alone[0].Points())
			}
		}
	}

	// Knob 2 of field b fails, and so does knob 0 of field c: the error
	// surfaced at every width is field b's.
	kb, kc := sweepKnobs(comp.Axis(), fields[1], 9), sweepKnobs(comp.Axis(), fields[2], 9)
	bad := &failingCompressor{fakeCompressor: fakeCompressor{scale: 8}, failKnobs: []float64{kc[0], kb[2]}}
	wantErr := fmt.Sprintf("core: stationary point knob=%g on %s: injected failure", kb[2], fields[1].Name)
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		if _, err := Sweep(bad, fields, 9, workers); err == nil || err.Error() != wantErr {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, wantErr)
		}
	}

	forestHash := func(fw *Framework) string {
		forest, err := fw.model.(*ml.Forest).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(forest)
		return hex.EncodeToString(sum[:])
	}
	cfg := Config{StationaryPoints: 8, AugmentPerField: 30, Trees: 10, Seed: 5, UseCA: true, Parallelism: 2}
	trained, err := Train(sz.New(), fields, cfg)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := Sweep(sz.New(), fields, cfg.StationaryPoints, cfg.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	fromCurves, err := TrainWithCurves(sz.New(), fields, cfg, curves)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := forestHash(fromCurves), forestHash(trained); got != want {
		t.Errorf("TrainWithCurves(Sweep) forest %s, Train forest %s", got, want)
	}
	if _, err := TrainWithCurves(sz.New(), fields, cfg, curves[:2]); err == nil {
		t.Error("TrainWithCurves accepted 2 curves for 3 fields")
	}
}

// failingCompressor fails on the given knob values and otherwise behaves
// like fakeCompressor. It is stateless, so concurrent sweeps stay race-free.
type failingCompressor struct {
	fakeCompressor
	failKnobs []float64
}

func (f *failingCompressor) Compress(fl *grid.Field, knob float64) ([]byte, error) {
	if slices.Contains(f.failKnobs, knob) {
		return nil, fmt.Errorf("injected failure")
	}
	return f.fakeCompressor.Compress(fl, knob)
}

// smallMixTrainSet is the serve_small_mix benchmark's training set: Nyx
// baryon density at 16³, time steps 1, 3, 5 and 7.
func smallMixTrainSet(t testing.TB) []*grid.Field {
	var fields []*grid.Field
	for _, ts := range []int{1, 3, 5, 7} {
		f, err := datagen.NyxField("baryon_density", 1, ts, 16)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	return fields
}

// pinnedForest mirrors what ml.Forest.MarshalBinary writes, so a test can
// decode and print it. gob numbers types in the order a process first meets
// them, so the encoded bytes also depend on what else the test binary
// encoded before; the decoded content does not.
type pinnedForest struct {
	Cfg struct {
		Trees int
		Seed  int64
	}
	Trees []struct {
		Dim   int
		Nodes []struct {
			Feature          int
			Threshold, Value float64
			Left, Right      int
		}
	}
}

// TestPinnedForestHashes pins, across commits, the forest that
// DefaultConfig training fits on smallMixTrainSet. The sweep's sz
// streams set the ratios the forest learns, so this pins them as well as
// the fit. %v prints every float64 at its shortest round-trip precision, so
// the digest is bit-exact.
func TestPinnedForestHashes(t *testing.T) {
	fw, err := Train(sz.New(), smallMixTrainSet(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := fw.model.(*ml.Forest).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dto pinnedForest
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	if len(dto.Trees) != DefaultConfig().Trees || len(dto.Trees[0].Nodes) < 3 {
		t.Fatalf("decoded %d trees, the first of %d nodes", len(dto.Trees), len(dto.Trees[0].Nodes))
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%v", dto))
	const want = "8f5edccb1ff6482a873b126983a2d23c1e6eb4971a572a37ce869d2860c13048"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("forest digest %s, pinned %s", got, want)
	}
}
