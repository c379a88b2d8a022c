package metrics

import (
	"math"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

func TestEstimationError(t *testing.T) {
	if got := EstimationError(100, 92); math.Abs(got-0.08) > 1e-12 {
		t.Errorf("EstimationError(100, 92) = %v", got)
	}
	if got := EstimationError(100, 108); math.Abs(got-0.08) > 1e-12 {
		t.Errorf("overshoot: %v", got)
	}
	if !math.IsInf(EstimationError(0, 5), 1) {
		t.Error("zero TCR should give +Inf")
	}
}

func TestMSEAndPSNR(t *testing.T) {
	a := grid.MustNew("a", 4)
	b := grid.MustNew("b", 4)
	copy(a.Data, []float32{0, 1, 2, 3})
	copy(b.Data, []float32{0, 1, 2, 3})
	mse, err := MSE(a, b)
	if err != nil || mse != 0 {
		t.Fatalf("identical MSE = %v, %v", mse, err)
	}
	p, err := PSNR(a, b)
	if err != nil || !math.IsInf(p, 1) {
		t.Fatalf("identical PSNR = %v, %v", p, err)
	}
	b.Data[0] = 1 // one error of 1 over 4 points: MSE 0.25
	mse, _ = MSE(a, b)
	if mse != 0.25 {
		t.Errorf("MSE = %v", mse)
	}
	p, _ = PSNR(a, b)
	want := 20*math.Log10(3) - 10*math.Log10(0.25)
	if math.Abs(p-want) > 1e-9 {
		t.Errorf("PSNR = %v, want %v", p, want)
	}
	if _, err := MSE(a, grid.MustNew("c", 5)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestPSNRDecreasesWithDistortion(t *testing.T) {
	a := grid.MustNew("a", 100)
	for i := range a.Data {
		a.Data[i] = float32(math.Sin(float64(i) / 10))
	}
	noisy := func(amp float32) *grid.Field {
		b := a.Clone()
		for i := range b.Data {
			if i%2 == 0 {
				b.Data[i] += amp
			} else {
				b.Data[i] -= amp
			}
		}
		return b
	}
	p1, _ := PSNR(a, noisy(0.01))
	p2, _ := PSNR(a, noisy(0.1))
	if p2 >= p1 {
		t.Errorf("PSNR should fall with distortion: %v vs %v", p1, p2)
	}
}

func TestStdDev(t *testing.T) {
	f := grid.MustNew("f", 4)
	copy(f.Data, []float32{1, 3, 1, 3})
	if got := StdDev(f); math.Abs(got-1) > 1e-9 {
		t.Errorf("StdDev = %v", got)
	}
}

func TestHistogramDistance(t *testing.T) {
	a := grid.MustNew("a", 100)
	b := grid.MustNew("b", 100)
	for i := range a.Data {
		a.Data[i] = float32(i) / 100
		b.Data[i] = float32(i) / 100
	}
	d, err := HistogramDistance(a, b, 10)
	if err != nil || d != 0 {
		t.Errorf("identical distributions: d=%v err=%v", d, err)
	}
	for i := range b.Data {
		b.Data[i] += 10 // disjoint support
	}
	d, _ = HistogramDistance(a, b, 10)
	if d < 1.9 {
		t.Errorf("disjoint distributions: d=%v, want ~2", d)
	}
}

func TestStructureDisplacement(t *testing.T) {
	a := grid.MustNew("a", 8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			a.Set(float32(1+0.1*float64(x%3)), y, x)
		}
	}
	a.Set(10, 1, 1) // a "halo" in block (0,0)
	a.Set(12, 5, 6) // a "halo" in block (1,1)

	same := a.Clone()
	d, err := StructureDisplacement(a, same, 4)
	if err != nil || d != 0 {
		t.Errorf("identical fields: d=%v err=%v", d, err)
	}

	moved := a.Clone()
	moved.Set(1, 1, 1)
	moved.Set(11, 2, 2) // halo moved within block (0,0)
	d, _ = StructureDisplacement(a, moved, 4)
	if d <= 0 {
		t.Errorf("moved structure not detected: d=%v", d)
	}
	if _, err := StructureDisplacement(a, grid.MustNew("c", 4), 4); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestRenderSlice(t *testing.T) {
	f := grid.MustNew("r", 4, 16, 32)
	for i := range f.Data {
		f.Data[i] = float32(i % 7)
	}
	img, err := RenderSlice(f, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) == 0 {
		t.Fatal("empty render")
	}
	if _, err := RenderSlice(f, 99, 32); err == nil {
		t.Error("out-of-range slice accepted")
	}
	if _, err := RenderSlice(grid.MustNew("x", 2, 2, 2, 2), 0, 8); err == nil {
		t.Error("4D field accepted")
	}
	// 2D works.
	g := grid.MustNew("g", 8, 8)
	if _, err := RenderSlice(g, 0, 8); err != nil {
		t.Errorf("2D render: %v", err)
	}
}

func TestRenderConstantBlocks(t *testing.T) {
	f := grid.MustNew("c", 4, 8, 8)
	f.Fill(10)
	// One rough block in the corner of slice 1.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			f.Set(float32(10+y*x), 1, y, x)
		}
	}
	m, err := RenderConstantBlocks(f, 1, 4, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if m != "#.\n..\n" {
		t.Errorf("block map = %q, want one non-constant corner", m)
	}
	if _, err := RenderConstantBlocks(grid.MustNew("x", 4, 4), 0, 4, 0.15); err == nil {
		t.Error("2D field accepted")
	}
}
