package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	fc := &fakeCompressor{scale: 100}
	var fields []*grid.Field
	for i := 0; i < 2; i++ {
		fields = append(fields, waveField("train", 12, float64(2+i)))
	}
	fw, err := Train(fc, fields, Config{Trees: 20, StationaryPoints: 10, AugmentPerField: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFramework(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CompressorName() != "fake" {
		t.Errorf("compressor name %q", got.CompressorName())
	}
	lo1, hi1 := fw.TrainedRatioRange()
	lo2, hi2 := got.TrainedRatioRange()
	if lo1 != lo2 || hi1 != hi2 {
		t.Errorf("ratio range changed: (%v,%v) vs (%v,%v)", lo1, hi1, lo2, hi2)
	}
	test := waveField("test", 12, 2.5)
	for _, tcr := range []float64{10, 30, 60} {
		a, err := fw.EstimateConfig(test, tcr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.EstimateConfig(test, tcr)
		if err != nil {
			t.Fatal(err)
		}
		if a.Knob != b.Knob {
			t.Errorf("tcr %v: knob %v vs %v after reload", tcr, a.Knob, b.Knob)
		}
	}
	if got.Stats().Samples != fw.Stats().Samples {
		t.Errorf("stats lost: %d vs %d", got.Stats().Samples, fw.Stats().Samples)
	}
}

func TestSaveRejectsNonForest(t *testing.T) {
	fc := &fakeCompressor{scale: 100}
	fw, err := Train(fc, []*grid.Field{waveField("a", 12, 3)},
		Config{Model: ModelAdaBoost, StationaryPoints: 8, AugmentPerField: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("AdaBoost framework saved without error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadFramework(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := LoadFramework(strings.NewReader("not a model at all, definitely")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadFramework(strings.NewReader("FXRZMODEL1 but then junk")); err == nil {
		t.Error("corrupt body accepted")
	}
}

// The saved-model layout before the sweep range and the forest's tree shape
// became constants. gob matches struct fields by name, so these mirrors read
// and write exactly the bytes that layout did.
type (
	oldConfig struct {
		Stride                 int
		UseCA                  bool
		Lambda                 float64
		BlockSide              int
		StationaryPoints       int
		AugmentPerField        int
		RelKnobMin, RelKnobMax float64
		Model                  string
		Trees                  int
		Seed                   int64
		Parallelism            int
	}
	oldFrameworkDTO struct {
		Cfg        oldConfig
		AxisKind   int
		AxisMin    float64
		AxisMax    float64
		Compressor string
		Forest     []byte
		RatioLo    float64
		RatioHi    float64
		Stats      TrainStats
	}
	oldForestConfig struct {
		Trees, MaxDepth, MinLeaf, MaxFeatures int
		Seed                                  int64
	}
	oldNodeDTO struct {
		Feature     int
		Threshold   float64
		Value       float64
		Left, Right int
	}
	oldTreeDTO struct {
		Dim   int
		Nodes []oldNodeDTO
	}
	oldForestDTO struct {
		Cfg   oldForestConfig
		Trees []oldTreeDTO
	}
)

// TestOldModelLayoutStillLoads: a model file in the layout that carried
// Config.RelKnobMin/RelKnobMax and ForestConfig.MinLeaf/MaxDepth/MaxFeatures
// loads and gives bit-identical knobs and ValidRange, and a model saved today
// still reads through that layout.
func TestOldModelLayoutStillLoads(t *testing.T) {
	fc := &fakeCompressor{scale: 100}
	fw, err := Train(fc, []*grid.Field{waveField("a", 12, 2), waveField("b", 12, 3)},
		Config{Trees: 20, StationaryPoints: 10, AugmentPerField: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Today's file through the old layout.
	var old oldFrameworkDTO
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[len(persistMagic):])).Decode(&old); err != nil {
		t.Fatalf("old layout cannot read a new model: %v", err)
	}
	var oldForest oldForestDTO
	if err := gob.NewDecoder(bytes.NewReader(old.Forest)).Decode(&oldForest); err != nil {
		t.Fatalf("old layout cannot read a new forest: %v", err)
	}
	if old.Cfg.Trees != 20 || old.Cfg.Seed != 5 || old.Compressor != "fake" ||
		oldForest.Cfg.Trees != 20 || len(oldForest.Trees) != 20 {
		t.Fatalf("old layout read config %+v, forest config %+v with %d trees",
			old.Cfg, oldForest.Cfg, len(oldForest.Trees))
	}

	// The old layout's file, with the values that code wrote, through today's
	// loader.
	old.Cfg.RelKnobMin, old.Cfg.RelKnobMax = 1e-6, 0.25
	oldForest.Cfg.MinLeaf = 1
	var forest bytes.Buffer
	if err := gob.NewEncoder(&forest).Encode(oldForest); err != nil {
		t.Fatal(err)
	}
	old.Forest = forest.Bytes()
	file := bytes.NewBufferString(persistMagic)
	if err := gob.NewEncoder(file).Encode(old); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFramework(file)
	if err != nil {
		t.Fatalf("old model file refused: %v", err)
	}
	test := waveField("test", 12, 2.5)
	for _, tcr := range []float64{5, 10, 30, 60} {
		a, err := fw.EstimateConfig(test, tcr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.EstimateConfig(test, tcr)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.Knob) != math.Float64bits(b.Knob) ||
			math.Float64bits(a.ValidRange[0]) != math.Float64bits(b.ValidRange[0]) ||
			math.Float64bits(a.ValidRange[1]) != math.Float64bits(b.ValidRange[1]) {
			t.Errorf("tcr %v: knob %v range %v, old file gives knob %v range %v",
				tcr, a.Knob, a.ValidRange, b.Knob, b.ValidRange)
		}
	}
}
