package datagen

import (
	"math"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

func TestNoiseDeterministic(t *testing.T) {
	a := Noise3(1, 0.3, 1.7, 2.9)
	b := Noise3(1, 0.3, 1.7, 2.9)
	if a != b {
		t.Fatal("noise not deterministic")
	}
	c := Noise3(2, 0.3, 1.7, 2.9)
	if a == c {
		t.Fatal("seed has no effect")
	}
}

func TestNoiseRangeAndContinuity(t *testing.T) {
	for i := 0; i < 2000; i++ {
		x := float64(i) * 0.013
		v := Noise3(7, x, x*0.7, x*0.3)
		if v < -1.01 || v > 1.01 {
			t.Fatalf("noise value %v out of [-1,1]", v)
		}
		// Continuity: adjacent samples differ by a bounded amount.
		w := Noise3(7, x+1e-3, x*0.7, x*0.3)
		if math.Abs(v-w) > 0.02 {
			t.Fatalf("noise discontinuity at %v: %v vs %v", x, v, w)
		}
	}
}

func TestFBMOctavesIncreaseRoughness(t *testing.T) {
	rough := func(oct int) float64 {
		var sum float64
		prev := 0.0
		for i := 0; i < 500; i++ {
			x := float64(i) * 0.05
			v := FBM3(11, x, 0.2, 0.8, 2, oct, 0.6)
			if i > 0 {
				sum += math.Abs(v - prev)
			}
			prev = v
		}
		return sum
	}
	if rough(5) <= rough(1) {
		t.Errorf("5-octave fBm (%v) not rougher than 1-octave (%v)", rough(5), rough(1))
	}
}

func TestWaveSimPropagates(t *testing.T) {
	sim, err := NewWaveSim(1, 16, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	sim.StepTo(60)
	f := sim.Snapshot("t")
	mn, mx := f.Range()
	if mx-mn == 0 {
		t.Fatal("wavefield is identically zero after 60 steps")
	}
	for _, v := range f.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("wavefield blew up (non-finite values)")
		}
	}
	// RTM signature: small value range (paper Table I: 0.05–0.16).
	if mx-mn > 10 {
		t.Errorf("wavefield range %v unexpectedly large", mx-mn)
	}
	// Energy must have reached beyond the immediate source neighborhood.
	far := f.Data[f.Index(12, 20, 20)]
	_ = far // presence check only; amplitude may be tiny
}

func TestWaveSimStable(t *testing.T) {
	sim, err := NewWaveSim(2, 12, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	sim.StepTo(400)
	f := sim.Snapshot("t")
	for _, v := range f.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("instability: non-finite value")
		}
		if v > 100 || v < -100 {
			t.Fatalf("instability: runaway amplitude %v", v)
		}
	}
}

func TestWaveSimTooSmall(t *testing.T) {
	if _, err := NewWaveSim(1, 4, 4, 4); err == nil {
		t.Fatal("expected size error")
	}
}

func TestNyxFieldSignatures(t *testing.T) {
	f, err := NyxField("baryon_density", 1, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Dims) != 3 || f.Dims[0] != 16 {
		t.Fatalf("dims = %v", f.Dims)
	}
	mn, mx := f.Range()
	if mn < 0 {
		t.Errorf("density has negative values (min %v)", mn)
	}
	if mx/math.Max(mn, 1e-6) < 10 {
		t.Errorf("density dynamic range %v too small for a log-normal field", mx/mn)
	}
	// Determinism.
	g, err := NyxField("baryon_density", 1, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if f.Data[i] != g.Data[i] {
			t.Fatal("nyx field not deterministic")
		}
	}
}

func TestNyxConfigsDiffer(t *testing.T) {
	a, _ := NyxField("baryon_density", 1, 1, 16)
	b, err := NyxField("baryon_density", 2, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Data {
		if a.Data[i] == b.Data[i] {
			same++
		}
	}
	if same > len(a.Data)/100 {
		t.Errorf("configs 1 and 2 share %d/%d values", same, len(a.Data))
	}
}

func TestNyxTimeEvolution(t *testing.T) {
	a, _ := NyxField("temperature", 1, 1, 16)
	b, _ := NyxField("temperature", 1, 5, 16)
	var diff float64
	for i := range a.Data {
		diff += math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
	}
	if diff == 0 {
		t.Fatal("time steps identical")
	}
}

func TestNyxErrors(t *testing.T) {
	if _, err := NyxField("baryon_density", 3, 1, 16); err == nil {
		t.Error("config 3 accepted")
	}
	if _, err := NyxField("nope", 1, 1, 16); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := NyxField("baryon_density", 1, 1, 2); err == nil {
		t.Error("tiny size accepted")
	}
}

func TestHurricaneQCloudIsSparse(t *testing.T) {
	f, err := HurricaneField("QCLOUD", 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range f.Data {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(f.Size())
	if frac < 0.3 {
		t.Errorf("QCLOUD zero fraction %.2f, want >= 0.3 (sparse cloud field)", frac)
	}
	mn, _ := f.Range()
	if mn < 0 {
		t.Errorf("cloud water negative: %v", mn)
	}
}

func TestHurricaneVortexMoves(t *testing.T) {
	a, _ := HurricaneField("TC", 5, 8)
	b, _ := HurricaneField("TC", 48, 8)
	// Locate the warm-core maximum at the surface level (z = 0).
	locate := func(f *grid.Field) (int, int) {
		ny, nx := f.Dims[1], f.Dims[2]
		bi, bv := 0, float32(math.Inf(-1))
		for i := 0; i < ny*nx; i++ {
			if f.Data[i] > bv {
				bv, bi = f.Data[i], i
			}
		}
		return bi / nx, bi % nx
	}
	ay, ax := locate(a)
	by, bx := locate(b)
	if ay == by && ax == bx {
		t.Error("vortex core did not move between ts 5 and 48")
	}
}

func TestQMCPack4DAndConfigsScale(t *testing.T) {
	f1, err := QMCPackField(1, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Dims) != 4 {
		t.Fatalf("dims = %v, want 4D", f1.Dims)
	}
	f3, err := QMCPackField(3, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Dims[0] <= f1.Dims[0] {
		t.Errorf("config 3 orbitals (%d) not more than config 1 (%d)", f3.Dims[0], f1.Dims[0])
	}
	s0, _ := QMCPackField(1, 0, 16)
	s1, err := QMCPackField(1, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range s0.Data {
		if s0.Data[i] == s1.Data[i] {
			same++
		}
	}
	if same > len(s0.Data)/100 {
		t.Error("spin channels nearly identical")
	}
}

func TestQMCPackErrors(t *testing.T) {
	if _, err := QMCPackField(0, 0, 16); err == nil {
		t.Error("config 0 accepted")
	}
	if _, err := QMCPackField(1, 2, 16); err == nil {
		t.Error("spin 2 accepted")
	}
}

func TestRTMSnapshotsOrderedSteps(t *testing.T) {
	snaps, err := RTMSnapshots("small", []int{20, 40, 60}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	if _, err := RTMSnapshots("small", []int{40, 20}, 8); err == nil {
		t.Error("descending steps accepted")
	}
	if _, err := RTMSnapshots("huge", []int{10}, 8); err == nil {
		t.Error("bad size class accepted")
	}
	// Later snapshots must differ from earlier ones.
	var diff float64
	for i := range snaps[0].Data {
		diff += math.Abs(float64(snaps[2].Data[i]) - float64(snaps[0].Data[i]))
	}
	if diff == 0 {
		t.Error("snapshots identical across time")
	}
}

func TestRTMBigLargerThanSmall(t *testing.T) {
	small, err := RTMSnapshots("small", []int{10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RTMSnapshots("big", []int{10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if big[0].Size() <= small[0].Size() {
		t.Errorf("big (%d) not larger than small (%d)", big[0].Size(), small[0].Size())
	}
}

func TestHurricaneExtraFields(t *testing.T) {
	for _, field := range []string{"U", "V", "W", "PRECIPf"} {
		f, err := HurricaneField(field, 10, 8)
		if err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		mn, mx := f.Range()
		if mx-mn == 0 {
			t.Errorf("%s: constant field", field)
		}
		for _, v := range f.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite value", field)
			}
		}
	}
	// Wind components must show the vortex: opposite signs across the eye.
	u, _ := HurricaneField("U", 10, 8)
	ny, nx := u.Dims[1], u.Dims[2]
	// The eye at ts=10 sits near (0.41, 0.53) in fractional coords.
	cy, cx := int(0.41*float64(ny)), int(0.53*float64(nx))
	above := u.Data[u.Index(0, clampI(cy-6, ny), cx)]
	below := u.Data[u.Index(0, clampI(cy+6, ny), cx)]
	if (above > 0) == (below > 0) {
		t.Errorf("U does not change sign across the eye: %v vs %v", above, below)
	}
	// Precipitation is sparse.
	p, _ := HurricaneField("PRECIPf", 10, 8)
	zeros := 0
	for _, v := range p.Data {
		if v == 0 {
			zeros++
		}
	}
	if float64(zeros)/float64(p.Size()) < 0.3 {
		t.Errorf("PRECIPf zero fraction %v too low", float64(zeros)/float64(p.Size()))
	}
}

func clampI(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v >= hi {
		return hi - 1
	}
	return v
}
