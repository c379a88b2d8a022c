package ml

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// fxrzShaped mimics an FXRZ training set: groups of rows (one per field)
// that share their first five columns, the field's features, and a sixth
// column, the adjusted ratio, drawn from a few levels so it ties exactly.
// The target is a noisy function of both.
func fxrzShaped(groups, rows int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	var X [][]float64
	var y []float64
	for g := 0; g < groups; g++ {
		feats := make([]float64, 5)
		for j := range feats {
			feats[j] = rng.Float64()
		}
		for r := 0; r < rows; r++ {
			ratio := float64(1 + rng.Intn(rows/3))
			X = append(X, append(slices.Clone(feats), ratio))
			y = append(y, math.Log(ratio)*(1+feats[0])+0.01*rng.NormFloat64())
		}
	}
	return X, y
}

// modelDigest is the sha256 of the printed content of f.MarshalBinary and
// of extra. It hashes the decoded DTO, not the bytes: gob numbers types in
// the order a process first meets them, so the bytes also depend on what
// else the test binary encoded before. %v prints every float64 at its
// shortest round-trip precision, so the digest is bit-exact.
func modelDigest(t testing.TB, f *Forest, extra ...any) string {
	t.Helper()
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dto forestDTO
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%v %v", dto, extra))
	return hex.EncodeToString(sum[:])
}

// TestPinnedForestHashes pins fitted models across commits: a change to the
// fit that alters every tree the same way at every worker count passes the
// determinism tests but not this one. The FXRZ-shaped set ties heavily, so
// it pins the tie order of the split search as well.
func TestPinnedForestHashes(t *testing.T) {
	shapedX, shapedY := fxrzShaped(4, 150, 1)
	synthX, synthY := synth(600, 6, 1, 0.2)
	forest := func(X [][]float64, y []float64) string {
		f := NewForest(ForestConfig{Trees: 100, Seed: 1})
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return modelDigest(t, f)
	}
	boost := NewAdaBoost(AdaBoostConfig{Seed: 2})
	if err := boost.Fit(shapedX, shapedY); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"forest/fxrz-shaped", forest(shapedX, shapedY), "3ba9ed5af0c6310e81599fa1f3ea3a380c6b523d13a437e0c1a9c61643cff0e7"},
		{"forest/synth", forest(synthX, synthY), "10199f33a22aea787b40806c8285c46e30bbf2738844c0fd66c0778c66a844c4"},
		{"adaboost/fxrz-shaped", modelDigest(t, &Forest{trees: boost.trees}, boost.logBet), "72eb607dbbc6bdf42292a13573bbaa2aff80473a07b2119ab603b147c52f3a31"},
	} {
		if c.got != c.want {
			t.Errorf("%s: digest %s, pinned %s", c.name, c.got, c.want)
		}
	}
}
