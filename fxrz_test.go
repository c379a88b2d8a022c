package fxrz_test

import (
	"math"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/datagen"
)

func trainFields(t *testing.T) []*fxrz.Field {
	t.Helper()
	var fields []*fxrz.Field
	for _, ts := range []int{1, 3, 5} {
		f, err := datagen.NyxField("baryon_density", 1, ts, 24)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	return fields
}

func testField(t *testing.T) *fxrz.Field {
	t.Helper()
	f, err := datagen.NyxField("baryon_density", 2, 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func quickConfig() fxrz.Config {
	cfg := fxrz.DefaultConfig()
	cfg.StationaryPoints = 12
	cfg.AugmentPerField = 60
	cfg.Trees = 40
	return cfg
}

func TestEndToEndFixedRatioSZ(t *testing.T) {
	fw, err := fxrz.Train(fxrz.NewSZ(), trainFields(t), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t)
	// Pick targets inside the valid ratio range, as the paper does (Fig 11).
	lo, hi := fw.ValidRatioRange(f)
	if !(hi > lo) || lo <= 0 {
		t.Fatalf("invalid ratio range [%v, %v]", lo, hi)
	}
	span := hi - lo
	var worst float64
	for _, tcr := range []float64{lo + 0.2*span, lo + 0.5*span, lo + 0.75*span} {
		blob, est, err := fw.CompressToRatio(f, tcr)
		if err != nil {
			t.Fatalf("tcr=%v: %v", tcr, err)
		}
		mcr := fxrz.Ratio(f, blob)
		relErr := math.Abs(mcr-tcr) / tcr
		if relErr > worst {
			worst = relErr
		}
		t.Logf("tcr=%v knob=%.4g mcr=%.1f err=%.1f%% extrap=%v", tcr, est.Knob, mcr, relErr*100, est.Extrapolating)
		// Round trip must still work at the chosen setting.
		g, err := fxrz.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		maxErr, err := fxrz.MaxAbsError(f, g)
		if err != nil {
			t.Fatal(err)
		}
		if maxErr > est.Knob*(1+1e-6) {
			t.Errorf("tcr=%v: error %g exceeds bound %g", tcr, maxErr, est.Knob)
		}
	}
	// Capability level 2 at miniature scale: generous bar; the evaluation
	// benches measure the paper-level accuracy at real scale.
	if worst > 0.6 {
		t.Errorf("worst estimation error %.0f%% too high", worst*100)
	}
}

func TestEndToEndBeatsFRaZCost(t *testing.T) {
	fw, err := fxrz.Train(fxrz.NewSZ(), trainFields(t), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := testField(t)
	est, err := fw.EstimateConfig(f, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fxrz.SearchFRaZ(fxrz.NewSZ(), f, 50, fxrz.DefaultFRaZConfig(15))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompressorRuns < 2 {
		t.Fatalf("FRaZ ran the compressor only %d times", res.CompressorRuns)
	}
	if est.AnalysisTime() >= res.SearchTime {
		t.Errorf("FXRZ analysis (%v) not faster than FRaZ search (%v)", est.AnalysisTime(), res.SearchTime)
	}
}

// paperCodecs are the four codecs of the paper's evaluation, in the order the
// experiment tables list them.
func paperCodecs() []fxrz.Compressor {
	return []fxrz.Compressor{fxrz.NewSZ(), fxrz.NewZFP(), fxrz.NewMGARD(), fxrz.NewFPZIP()}
}

func TestAllCodecsTrainAndEstimate(t *testing.T) {
	fields := trainFields(t)
	test := testField(t)
	for _, c := range paperCodecs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			cfg := quickConfig()
			fw, err := fxrz.Train(c, fields, cfg)
			if err != nil {
				t.Fatal(err)
			}
			blob, est, err := fw.CompressToRatio(test, 15)
			if err != nil {
				t.Fatal(err)
			}
			mcr := fxrz.Ratio(test, blob)
			if mcr <= 0 {
				t.Fatalf("ratio %v", mcr)
			}
			t.Logf("%s: knob=%.4g mcr=%.1f", c.Name(), est.Knob, mcr)
			if _, err := fxrz.Decompress(blob); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestByName(t *testing.T) {
	for _, name := range codecs.Names() {
		c, err := fxrz.ByName(name)
		if err != nil || c.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := fxrz.ByName("gzip"); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestDecompressDispatch(t *testing.T) {
	f, err := fxrz.NewField("t", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		f.Data[i] = float32(i)
	}
	for _, c := range paperCodecs() {
		knob := 0.01
		if c.Name() == "fpzip" {
			knob = 16
		}
		blob, err := c.Compress(f, knob)
		if err != nil {
			t.Fatal(err)
		}
		g, err := fxrz.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if g.Size() != f.Size() {
			t.Fatalf("%s: size mismatch", c.Name())
		}
	}
	if _, err := fxrz.Decompress(nil); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := fxrz.Decompress([]byte{0x99}); err == nil {
		t.Error("unknown magic accepted")
	}
}

func TestFieldFromData(t *testing.T) {
	data := make([]float32, 12)
	f, err := fxrz.FieldFromData("x", data, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 12 {
		t.Errorf("size %d", f.Size())
	}
	if _, err := fxrz.FieldFromData("x", data, 5, 5); err == nil {
		t.Error("mismatched dims accepted")
	}
}
