package ml

import "testing"

// BenchmarkForestFit fits a forest on continuous synthetic data, which
// never ties, and on an FXRZ-shaped set (four fields of 150 rows sharing
// five columns, exact ties in the sixth), where most split candidates are
// constant columns and tied values, as in real training.
func BenchmarkForestFit(b *testing.B) {
	synthX, synthY := synth(500, 6, 1, 0.2)
	shapedX, shapedY := fxrzShaped(4, 150, 1)
	for _, c := range []struct {
		name  string
		trees int
		X     [][]float64
		y     []float64
	}{{"synth", 50, synthX, synthY}, {"fxrz-shaped", 100, shapedX, shapedY}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := NewForest(ForestConfig{Trees: c.trees, Seed: 1})
				if err := f.Fit(c.X, c.y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkForestPredict(b *testing.B) {
	X, y := synth(500, 6, 1, 0.2)
	f := NewForest(ForestConfig{Trees: 50, Seed: 1})
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	probe := X[123]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(probe)
	}
}
