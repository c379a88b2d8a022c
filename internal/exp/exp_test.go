package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/fxrz-go/fxrz/internal/core"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// The experiment harness is exercised at Tiny scale; the assertions check
// the paper's *qualitative* conclusions, which must hold at any scale.
//
// Every test shares one session, and each row of Experiments runs at most
// once per test process: the property tests below read the structured result
// of the same run TestExperimentTable checks for "runs and renders".

var (
	shared    = NewSession(Tiny)
	tableOpts = Options{Comps: []string{"sz", "zfp"}, MaxTestFields: 1}
	results   = map[string]fmt.Stringer{}
)

func tinySession() *Session { return shared }

// result runs the row once through its table entry and returns its result as
// the row's own type.
func result[R fmt.Stringer](t *testing.T, id string) R {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := results[e.ID]
	if !ok {
		if r, err = e.Run(shared, tableOpts); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		results[e.ID] = r
	}
	typed, ok := r.(R)
	if !ok {
		t.Fatalf("%s: result is %T", id, r)
	}
	return typed
}

func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		for _, id := range append([]string{e.ID}, e.Aliases...) {
			if seen[id] {
				t.Errorf("id %q names two rows", id)
			}
			seen[id] = true
		}
		if testing.Short() && (e.ID == "table3" || e.ID == "sampling") {
			continue // the two grids the -short property tests also skip
		}
		if out := result[fmt.Stringer](t, e.ID).String(); strings.TrimSpace(out) == "" {
			t.Errorf("%s: empty render", e.ID)
		}
	}
	// Every FRaZ view above was drawn from one Compare run.
	if n := len(shared.compares); n != 1 {
		t.Errorf("%d Compare runs behind the FRaZ rows, want 1", n)
	}

	// The docs cite experiments as `expbench -exp <id>`: every citation must
	// resolve, and DESIGN.md's index must cite every row.
	cite := regexp.MustCompile("expbench[^\n`|]*-exp ([a-z0-9,]+)")
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := map[string]bool{}
	for _, path := range append(docs, "../../DESIGN.md", "../../README.md", "../../EXPERIMENTS.md") {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllSubmatch(text, -1) {
			for _, id := range strings.Split(string(m[1]), ",") {
				if _, err := Lookup(id); err != nil && id != "all" {
					t.Errorf("%s cites %q: %v", path, m[0], err)
				}
				if filepath.Base(path) == "DESIGN.md" {
					cited[id] = true
				}
			}
		}
	}
	for id := range seen {
		if !cited[id] {
			t.Errorf("DESIGN.md's index has no `expbench -exp %s` row", id)
		}
	}
}

func TestSessionCatalogShapes(t *testing.T) {
	s := tinySession()
	for _, app := range Apps {
		train, err := s.TrainFields(app)
		if err != nil {
			t.Fatalf("%s train: %v", app, err)
		}
		test, err := s.TestFields(app)
		if err != nil {
			t.Fatalf("%s test: %v", app, err)
		}
		if len(train) < 2 {
			t.Errorf("%s: only %d training fields", app, len(train))
		}
		if len(test) < 1 {
			t.Errorf("%s: no test fields", app)
		}
		// Train/test must be disjoint by name.
		names := map[string]bool{}
		for _, f := range train {
			names[f.Name] = true
		}
		for _, f := range test {
			if names[f.Name] {
				t.Errorf("%s: test field %s also in training set", app, f.Name)
			}
		}
	}
}

func TestSessionCachesFrameworks(t *testing.T) {
	s := tinySession()
	a, err := s.Framework("rtm", "zfp", s.Config())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Framework("rtm", "zfp", s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("framework not cached")
	}
}

func TestTargetsInsideValidRange(t *testing.T) {
	s := tinySession()
	tests, err := s.TestFields("rtm")
	if err != nil {
		t.Fatal(err)
	}
	// fpzip draws its targets from the achievable stationary ratios, which
	// one or two targets must still index safely.
	for _, tc := range []struct {
		comp string
		n    int
	}{{"sz", 10}, {"fpzip", 1}, {"fpzip", 2}} {
		fw, err := s.Framework("rtm", tc.comp, s.Config())
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := fw.ValidRatioRange(tests[0])
		targets, err := s.Targets(fw, tc.comp, tests[0], tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) == 0 || len(targets) > tc.n {
			t.Errorf("%s: %d targets, want 1..%d", tc.comp, len(targets), tc.n)
		}
		for _, tcr := range targets {
			if tcr < lo || tcr > hi {
				t.Errorf("%s: target %v outside [%v, %v]", tc.comp, tcr, lo, hi)
			}
		}
	}
}

func TestFig2InterpolationErrors(t *testing.T) {
	r := result[*Fig2Result](t, "fig2")
	for _, c := range CompressorNames {
		if len(r.Curves[c]) < 3 {
			t.Errorf("%s: only %d stationary points", c, len(r.Curves[c]))
		}
		if e := r.InterpErrors[c]; e < 0 || e > 0.5 {
			t.Errorf("%s: interpolation error %v implausible (paper: 3–5.5%%)", c, e)
		}
	}
	if !strings.Contains(r.String(), "Fig 2") {
		t.Error("render missing title")
	}
}

func TestFig3Table1Signatures(t *testing.T) {
	r := result[*Fig3Table1Result](t, "table1")
	// RTM fields must show the smallest value ranges (Table I signature).
	vr := func(i int) float64 { return r.Features[i].ValueRange }
	rtmMax := vr(2)
	if vr(3) > rtmMax {
		rtmMax = vr(3)
	}
	for _, i := range []int{0, 1, 4} { // nyx, qmcpack, hurricane
		if vr(i) <= rtmMax {
			t.Errorf("dataset %s range %v not larger than RTM's %v", r.Labels[i], vr(i), rtmMax)
		}
	}
	// Every compressor must report a positive ratio everywhere.
	for _, c := range CompressorNames {
		for i, ratio := range r.Ratios[c] {
			if ratio <= 0 {
				t.Errorf("%s on %s: ratio %v", c, r.Labels[i], ratio)
			}
		}
	}
	// RTM (smooth wavefields) must compress best under SZ.
	sz := r.Ratios["sz"]
	if sz[2] < sz[0] && sz[3] < sz[0] {
		t.Errorf("RTM SZ ratios (%v, %v) below Nyx (%v); paper has RTM highest", sz[2], sz[3], sz[0])
	}
}

func TestTable2GradientsWeakest(t *testing.T) {
	r := result[*Table2Result](t, "table2")
	wins := 0
	for _, c := range CompressorNames {
		if r.AdoptedBeatGradients(c) {
			wins++
		}
		for fi, v := range r.Corr[c] {
			if v < 0 || v > 1 {
				t.Errorf("%s feature %d: |r| = %v out of [0,1]", c, fi, v)
			}
		}
	}
	if wins < 3 {
		t.Errorf("adopted features beat gradients for only %d/4 compressors", wins)
	}
}

func TestFig89VariabilityPositive(t *testing.T) {
	r := result[*Fig89Result](t, "fig89")
	for label, d := range r.Distances {
		if d <= 0 {
			t.Errorf("%s: histogram distance %v, want > 0", label, d)
		}
	}
}

func TestFig10DistortionMonotone(t *testing.T) {
	r := result[*Fig10Result](t, "fig10")
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// PSNR falls and displacement rises with looser bounds.
	if !(r.Rows[0][2] > r.Rows[1][2] && r.Rows[1][2] > r.Rows[2][2]) {
		t.Errorf("PSNR not decreasing: %v %v %v", r.Rows[0][2], r.Rows[1][2], r.Rows[2][2])
	}
	if r.Rows[2][3] < r.Rows[0][3] {
		t.Errorf("displacement not increasing: %v vs %v", r.Rows[2][3], r.Rows[0][3])
	}
}

func TestFig11RangesSane(t *testing.T) {
	r := result[*Fig11Result](t, "fig11")
	if len(r.Rows) < 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	out := r.String()
	if !strings.Contains(out, "Fig 11") {
		t.Error("render missing title")
	}
}

func TestCompareSmoke(t *testing.T) {
	// A reduced Compare run: SZ+ZFP, one test field per app — the grid the
	// FRaZ rows of TestExperimentTable render. The full grid runs under
	// expbench.
	r, err := tinySession().compare(tableOpts)
	if err != nil {
		t.Fatal(err)
	}
	fx, fr := r.Averages()
	if fx <= 0 || fx > 1 {
		t.Errorf("FXRZ avg error %v implausible", fx)
	}
	for _, it := range []int{6, 15} {
		if fr[it] <= 0 {
			t.Errorf("FRaZ-%d avg error %v", it, fr[it])
		}
	}
	if sp := r.SpeedupOverFRaZ(15); sp <= 1 {
		t.Errorf("FXRZ speedup over FRaZ %v, want > 1", sp)
	}
	for _, render := range []string{r.Fig12String(), r.Fig13String(), r.Table8String(), r.CapabilityString()} {
		if render == "" {
			t.Error("empty render")
		}
	}
	for _, n := range []int{0, -1} {
		if _, err := Compare(tinySession(), Apps, []string{"sz"}, n); err == nil {
			t.Errorf("Compare with %d test fields per app: no error", n)
		}
	}
}

func TestDumpGainsAboveOne(t *testing.T) {
	r := result[*DumpResult](t, "dump")
	if len(r.Rows) != len(r.Ranks) {
		t.Fatalf("rows/ranks mismatch")
	}
	for i, row := range r.Rows {
		if row[2] <= 1 {
			t.Errorf("ranks=%d: gain %v, want > 1 (paper: 1.18–8.71×)", r.Ranks[i], row[2])
		}
	}
}

func TestFig4And6Render(t *testing.T) {
	f4 := result[*Fig4Result](t, "fig4")
	if !strings.Contains(f4.String(), "Fig 4") || len(f4.Slice) < 100 {
		t.Error("Fig 4 render too small")
	}
	f6 := result[*Fig6Result](t, "fig6")
	if !strings.Contains(f6.Map, ".") || !strings.Contains(f6.Map, "#") {
		t.Errorf("Fig 6 block map should contain both constant and non-constant blocks:\n%s", f6.Map)
	}
	if f6.R <= 0 || f6.R >= 1 {
		t.Errorf("slice non-constant fraction %v", f6.R)
	}
}

func TestImportanceACRDominant(t *testing.T) {
	r := result[*ImportanceResult](t, "importance")
	dominant := 0
	total := 0
	for _, app := range Apps {
		for _, comp := range []string{"sz", "zfp"} {
			total++
			if r.ACRDominant(app, comp) {
				dominant++
			}
		}
	}
	if dominant < total-1 {
		t.Errorf("ACR dominant in only %d/%d frameworks", dominant, total)
	}
}

func TestZFPRateInflationAboveOne(t *testing.T) {
	r := result[*ZFPRateResult](t, "zfprate")
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	if infl := r.MeanInflation(); infl <= 1 {
		t.Errorf("mean error inflation %v, want > 1 (fixed-rate strictly worse)", infl)
	}
}

func TestTable6TimesPositive(t *testing.T) {
	r := result[*Table6Result](t, "table6")
	for _, app := range Apps {
		for _, c := range CompressorNames {
			st := r.Stats[app][c]
			if st.Total() <= 0 || st.Samples == 0 {
				t.Errorf("%s/%s: stats %+v", app, c, st)
			}
			if st.StationarySweep < st.Augmentation {
				t.Errorf("%s/%s: sweep (%v) should dominate augmentation (%v)", app, c, st.StationarySweep, st.Augmentation)
			}
		}
	}
}

func TestConfigDerivedFromScale(t *testing.T) {
	s := tinySession()
	cfg := s.Config()
	if cfg.StationaryPoints != Tiny.Stationary || cfg.Trees != Tiny.Trees {
		t.Errorf("config %+v does not reflect scale", cfg)
	}
	if cfg.Model != core.ModelRFR {
		t.Errorf("default model %v", cfg.Model)
	}
}

func TestTable3ModelsComparable(t *testing.T) {
	if testing.Short() {
		t.Skip("model-selection grid is slow")
	}
	r := result[*ablationResult](t, "table3")
	// The paper's robust conclusion at any scale: SVR is the worst family.
	for _, app := range r.apps {
		for _, comp := range r.comps {
			rfr, ada, svr := r.err[app][comp][0], r.err[app][comp][1], r.err[app][comp][2]
			if svr < rfr && svr < ada {
				t.Errorf("%s/%s: SVR (%v) beat both tree ensembles (%v, %v)", app, comp, svr, rfr, ada)
			}
		}
	}
}

func TestSamplingKeepsAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling ablation is slow")
	}
	r := result[*ablationResult](t, "sampling")
	if r.sampled[0] > 0.05 {
		t.Errorf("sampled fraction %v, want ~1.5%%", r.sampled[0])
	}
	if r.featTime[0] >= r.featTime[1] {
		t.Errorf("sampled extraction (%v) not faster than full (%v)", r.featTime[0], r.featTime[1])
	}
	// Sampling may cost some accuracy but must stay in the same regime.
	sampled, full := r.err["nyx"]["sz"][0], r.err["nyx"]["sz"][1]
	if sampled > 3*full+0.10 {
		t.Errorf("sampled error %v far above full %v", sampled, full)
	}
}

// TestDefaultCellIsOneCell: RFR, λ = 0.15, CA on and stride 4 are all the
// default configuration, so every ablation reads the one cached framework
// of a cell, and a session trains each distinct configuration once.
func TestDefaultCellIsOneCell(t *testing.T) {
	// Each ablation's default column: λ=0.15, with CA, RFR.
	cols := map[string]int{"table4": 2, "table7": 0}
	if !testing.Short() {
		cols["table3"] = 0
	}
	want := result[*ablationResult](t, "table4").err
	for id, col := range cols {
		got := result[*ablationResult](t, id).err
		for _, app := range table4.apps {
			for _, comp := range szZFP {
				if got[app][comp][col] != want[app][comp][2] {
					t.Errorf("%s/%s: %s's default column %v, table4's λ=0.15 %v", app, comp, id, got[app][comp][col], want[app][comp][2])
				}
			}
		}
	}
	if !testing.Short() {
		if got := result[*ablationResult](t, "sampling").err["nyx"]["sz"][0]; got != want["nyx"]["sz"][2] {
			t.Errorf("sampling's stride 4 %v, the nyx/sz default cell %v", got, want["nyx"]["sz"][2])
		}
	}

	// table4 trains 18 configurations; table7 adds 8 without CA and the
	// 2 hurricane defaults, and finds the other 6 defaults cached.
	obs.Enable()
	defer obs.Disable()
	fits := func() int64 { return obs.TakeSnapshot().Spans["train/fit"].Count }
	before := fits()
	fresh := NewSession(Tiny)
	for _, a := range []*ablation{table4, table7} {
		if _, err := a.run(fresh, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := fits() - before; n != 28 {
		t.Errorf("table4 then table7 ran %d train/fits, want 28", n)
	}
}
