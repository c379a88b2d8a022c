package ml

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// dtoPredict is a forest query as the 40-byte node layout answered it: each
// tree walked from the root through explicit Left/Right indices until a node
// with a negative feature, the leaves summed in tree order. It is the oracle
// the preorder layout is held to.
func dtoPredict(d forestDTO, x []float64) float64 {
	if len(d.Trees) == 0 {
		return 0
	}
	var s float64
	for _, t := range d.Trees {
		n := 0
		for {
			nd := t.Nodes[n]
			if nd.Feature < 0 {
				s += nd.Value
				break
			}
			if nd.Feature < len(x) && x[nd.Feature] <= nd.Threshold {
				n = nd.Left
			} else {
				n = nd.Right
			}
		}
	}
	return s / float64(len(d.Trees))
}

// savedDTO is f as MarshalBinary saves it.
func savedDTO(t testing.TB, f *Forest) forestDTO {
	t.Helper()
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d forestDTO
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// probes are the queries every forest below is asked: training rows, points
// outside the training box, NaN and ±Inf in each position, and vectors too
// short to hold the split features.
func probes(X [][]float64, rng *rand.Rand) [][]float64 {
	d := len(X[0])
	var out [][]float64
	for i := 0; i < len(X); i += 7 {
		out = append(out, X[i])
	}
	for i := 0; i < 50; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.NormFloat64() * 3
		}
		out = append(out, x)
	}
	for _, special := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for j := 0; j < d; j++ {
			x := append([]float64(nil), X[j]...)
			x[j] = special
			out = append(out, x)
		}
	}
	for n := 0; n < d; n++ {
		out = append(out, X[n][:n])
	}
	return append(out, append(append([]float64(nil), X[0]...), 1, 2)) // longer than trained
}

// trainedForest fits a forest of the given size on a bench-shaped problem:
// six columns, like FXRZ's five features plus the knob.
func trainedForest(t testing.TB, trees, samples int, seed int64) (*Forest, [][]float64) {
	t.Helper()
	X, y := synth(samples, 6, seed, 0.2)
	f := NewForest(ForestConfig{Trees: trees, Seed: seed})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return f, X
}

// The preorder walk answers as the explicit-child walk of the 40-byte
// layout did, bit for bit, on bench-shaped forests and on small ones.
func TestForestPredictMatchesExplicitWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct{ trees, samples int }{{100, 600}, {1, 200}, {33, 200}, {65, 300}} {
		f, X := trainedForest(t, c.trees, c.samples, int64(c.trees))
		dto := savedDTO(t, f)
		for _, x := range probes(X, rng) {
			got, old := f.Predict(x), dtoPredict(dto, x)
			if math.Float64bits(got) != math.Float64bits(old) {
				t.Fatalf("%d trees, x=%v: preorder %v, 40-byte walk %v", c.trees, x, got, old)
			}
		}
	}
	if got := (&Forest{}).Predict([]float64{1}); got != 0 {
		t.Errorf("untrained forest predicts %v, want 0", got)
	}
}

func TestTreeNodeIs16Bytes(t *testing.T) {
	if got := reflect.TypeOf(treeNode{}).Size(); got != 16 {
		t.Errorf("treeNode is %d bytes, want 16", got)
	}
}

// A model saved by the 40-byte layout — internal nodes carrying their mean
// in Value, leaves carrying zero Threshold, Left and Right — loads and
// answers exactly as that layout did, and a model saved now round-trips.
func TestForestLoadsFortyByteModel(t *testing.T) {
	f, X := trainedForest(t, 40, 300, 9)
	old := savedDTO(t, f)
	for _, tr := range old.Trees {
		for i := range tr.Nodes {
			if tr.Nodes[i].Feature >= 0 {
				tr.Nodes[i].Value = 1e6 + float64(i) // the mean no walk ever read
			}
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var loaded Forest
	if err := loaded.UnmarshalBinary(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	blob, err := loaded.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var again Forest
	if err := again.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, x := range probes(X, rand.New(rand.NewSource(9))) {
		want := math.Float64bits(dtoPredict(old, x))
		if a, b := math.Float64bits(loaded.Predict(x)), math.Float64bits(again.Predict(x)); a != want || b != want {
			t.Fatalf("x=%v: loaded %x, re-saved %x, saved model %x", x, a, b, want)
		}
	}
}

// encodeForest gob-encodes trees of hand-made nodes as a saved forest.
func encodeForest(t testing.TB, trees ...[]nodeDTO) []byte {
	t.Helper()
	d := forestDTO{Cfg: ForestConfig{Trees: len(trees)}}
	for _, nodes := range trees {
		d.Trees = append(d.Trees, treeDTO{Dim: 1, Nodes: nodes})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func leafDTO(v float64) nodeDTO { return nodeDTO{Feature: -1, Value: v} }

// Load refuses every tree shape a walk could loop in or index out of,
// instead of hanging or panicking at the first query.
func TestForestUnmarshalRejectsBadShapes(t *testing.T) {
	good := []nodeDTO{{Feature: 0, Threshold: 0.5, Left: 1, Right: 2}, leafDTO(1), leafDTO(2)}
	var f Forest
	if err := f.UnmarshalBinary(encodeForest(t, good)); err != nil {
		t.Fatalf("well-formed tree refused: %v", err)
	}
	if got := f.Predict([]float64{1}); got != 2 {
		t.Fatalf("well-formed tree predicts %v, want 2", got)
	}
	for name, nodes := range map[string][]nodeDTO{
		"empty tree":         {},
		"root is own left":   {{Feature: 0, Left: 0, Right: 2}, leafDTO(1), leafDTO(2)},
		"right past the end": {{Feature: 0, Left: 1, Right: 3}, leafDTO(1), leafDTO(2)},
		"right is the left":  {{Feature: 0, Left: 1, Right: 1}, leafDTO(1), leafDTO(2)},
		"right points back":  {leafDTO(0), {Feature: 0, Left: 2, Right: 0}, leafDTO(1)},
		"left skips a node":  {{Feature: 0, Left: 2, Right: 2}, leafDTO(1), leafDTO(2)},
		"internal last node": {{Feature: 0, Left: 1, Right: 2}, leafDTO(1), {Feature: 0, Left: 3, Right: 4}},
		"feature below -1":   {{Feature: -2, Value: 1}},
		"feature past int32": {{Feature: math.MaxInt32 + 1, Left: 1, Right: 2}, leafDTO(1), leafDTO(2)},
		"negative right":     {{Feature: 0, Left: 1, Right: -1}, leafDTO(1), leafDTO(2)},
	} {
		var g Forest
		if err := g.UnmarshalBinary(encodeForest(t, good, nodes)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if g.trees != nil {
			t.Errorf("%s: refused, but left %d trees installed", name, len(g.trees))
		}
	}
}

// FuzzForestUnmarshal: model files come from disk and from the serve
// registry, so any bytes either fail to load or give a forest whose Predict
// returns (a walk that loops hangs the fuzzer; one that indexes out of
// range panics it).
func FuzzForestUnmarshal(f *testing.F) {
	small, _ := trainedForest(f, 3, 40, 1)
	blob, err := small.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(encodeForest(f, []nodeDTO{{Feature: 0, Threshold: 0.5, Left: 1, Right: 2}, leafDTO(1), leafDTO(2)}))
	f.Add(encodeForest(f, []nodeDTO{{Feature: 0, Left: 0, Right: 2}, leafDTO(1), leafDTO(2)}))
	f.Add(encodeForest(f, []nodeDTO{{Feature: 0, Left: 1, Right: 9}, leafDTO(1), leafDTO(2)}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Forest
		if err := fr.UnmarshalBinary(data); err != nil {
			return
		}
		for _, x := range [][]float64{nil, {0}, {math.NaN(), 1, -1, math.Inf(1), 0, 3}} {
			fr.Predict(x)
		}
	})
}
