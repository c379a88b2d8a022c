package ml

import (
	"math/rand"
	"sort"
)

// Regressor is the common interface of all models in this package.
type Regressor interface {
	// Fit trains the model on design matrix X (rows are samples) and
	// targets y.
	Fit(X [][]float64, y []float64) error
	// Predict returns the model output for one feature vector.
	Predict(x []float64) float64
}

// TreeConfig controls CART regression tree growth.
type TreeConfig struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of features considered per split; 0 means
	// all features (random forests pass ~d/3).
	MaxFeatures int
	// Seed drives the feature subsampling; trees are fully deterministic
	// given the seed.
	Seed int64
}

// Tree is a CART regression tree minimizing within-node variance.
type Tree struct {
	cfg   TreeConfig
	nodes []treeNode
	dim   int
}

// treeNode is one node of a tree stored in preorder: an internal node's left
// child is the node after it, so only the right child is indexed. Sixteen
// bytes, four to a cache line.
type treeNode struct {
	// v is the split threshold of an internal node — x[feature] <= v goes
	// left, anything else (NaN, or x too short to hold feature) right — and
	// the value of a leaf.
	v float64
	// right indexes the right child; unused in a leaf.
	right int32
	// feature is the split feature, or -1 in a leaf.
	feature int32
}

// NewTree returns an untrained tree with the given configuration.
func NewTree(cfg TreeConfig) *Tree {
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	return &Tree{cfg: cfg}
}

// Fit implements Regressor.
func (t *Tree) Fit(X [][]float64, y []float64) error {
	if err := validate(X, y); err != nil {
		return err
	}
	t.dim = len(X[0])
	t.nodes = t.nodes[:0]
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(t.cfg.Seed))
	t.grow(X, y, idx, 1, rng)
	return nil
}

// grow builds the subtree over the samples in idx and returns its node index.
func (t *Tree) grow(X [][]float64, y []float64, idx []int, depth int, rng *rand.Rand) int {
	node := len(t.nodes)
	mean, sse := meanSSE(y, idx)
	t.nodes = append(t.nodes, treeNode{v: mean, feature: -1})
	if sse == 0 || len(idx) < 2*t.cfg.MinLeaf || (t.cfg.MaxDepth > 0 && depth > t.cfg.MaxDepth) {
		return node
	}

	feat, thr, ok := t.bestSplit(X, y, idx, rng)
	if !ok {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.cfg.MinLeaf || len(right) < t.cfg.MinLeaf {
		return node
	}
	t.grow(X, y, left, depth+1, rng) // lands at node+1
	r := t.grow(X, y, right, depth+1, rng)
	t.nodes[node] = treeNode{v: thr, right: int32(r), feature: int32(feat)}
	return node
}

// bestSplit scans a (possibly random) subset of features for the variance-
// minimizing threshold using the classic sorted single-pass formulation.
func (t *Tree) bestSplit(X [][]float64, y []float64, idx []int, rng *rand.Rand) (int, float64, bool) {
	feats := make([]int, t.dim)
	for i := range feats {
		feats[i] = i
	}
	limit := t.dim
	if t.cfg.MaxFeatures > 0 && t.cfg.MaxFeatures < t.dim {
		rng.Shuffle(len(feats), func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		limit = t.cfg.MaxFeatures
	}

	n := len(idx)
	order := make([]int, n)
	bestGain := 0.0
	bestFeat, bestThr := -1, 0.0
	_, parentSSE := meanSSE(y, idx)

	for fi, f := range feats {
		// Honour MaxFeatures, but — like scikit-learn — keep inspecting
		// further features until at least one valid split has been found, so
		// constant features in the subset cannot silently truncate the tree.
		if fi >= limit && bestFeat >= 0 {
			break
		}
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		// Prefix sums: split after position k puts order[0..k] on the left.
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, i := range order {
			sumR += y[i]
			sumSqR += y[i] * y[i]
		}
		for k := 0; k < n-1; k++ {
			v := y[order[k]]
			sumL += v
			sumSqL += v * v
			sumR -= v
			sumSqR -= v * v
			if X[order[k]][f] == X[order[k+1]][f] {
				continue // cannot split between equal values
			}
			nl, nr := float64(k+1), float64(n-k-1)
			if int(nl) < t.cfg.MinLeaf || int(nr) < t.cfg.MinLeaf {
				continue
			}
			sseL := sumSqL - sumL*sumL/nl
			sseR := sumSqR - sumR*sumR/nr
			gain := parentSSE - (sseL + sseR)
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (X[order[k]][f] + X[order[k+1]][f]) / 2
			}
		}
	}
	return bestFeat, bestThr, bestFeat >= 0
}

// Predict implements Regressor. An untrained tree predicts 0.
func (t *Tree) Predict(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	var n int32
	for {
		nd := &t.nodes[n]
		if nd.feature < 0 {
			return nd.v
		}
		n = nd.next(n, x)
	}
}

// next returns the child of internal node n that x descends to.
func (nd *treeNode) next(n int32, x []float64) int32 {
	if int(nd.feature) < len(x) && x[nd.feature] <= nd.v {
		return n + 1
	}
	return nd.right
}

// Depth returns the height of the trained tree (0 for a stump/leaf).
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var walk func(n int32) int
	walk = func(n int32) int {
		nd := t.nodes[n]
		if nd.feature < 0 {
			return 0
		}
		l, r := walk(n+1), walk(nd.right)
		if r > l {
			l = r
		}
		return l + 1
	}
	return walk(0)
}

func meanSSE(y []float64, idx []int) (mean, sse float64) {
	if len(idx) == 0 {
		return 0, 0
	}
	var sum, sumSq float64
	for _, i := range idx {
		sum += y[i]
		sumSq += y[i] * y[i]
	}
	n := float64(len(idx))
	mean = sum / n
	sse = sumSq - sum*sum/n
	if sse < 0 {
		sse = 0 // numeric noise
	}
	return mean, sse
}
