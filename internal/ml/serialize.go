package ml

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// Serialisation uses exported mirror types so gob can reach tree internals
// without exporting them in the working API.

type treeDTO struct {
	Dim   int
	Nodes []nodeDTO
}

type nodeDTO struct {
	Feature     int
	Threshold   float64
	Value       float64
	Left, Right int
}

type forestDTO struct {
	Cfg   ForestConfig
	Trees []treeDTO
}

// toDTO spells the preorder nodes out in the DTO's fields: an internal node
// carries Threshold, Left and Right, a leaf Feature -1 and Value.
func (t *Tree) toDTO() treeDTO {
	d := treeDTO{Dim: t.dim, Nodes: make([]nodeDTO, len(t.nodes))}
	for i, n := range t.nodes {
		if n.feature < 0 {
			d.Nodes[i] = nodeDTO{Feature: -1, Value: n.v}
		} else {
			d.Nodes[i] = nodeDTO{Feature: int(n.feature), Threshold: n.v, Left: i + 1, Right: int(n.right)}
		}
	}
	return d
}

// treeFromDTO rebuilds a tree, refusing any shape grow cannot produce: an
// empty tree, a leaf whose feature is not -1, or an internal node whose left
// child is not the next node or whose right child does not lie past it and
// inside the tree. Every child then sits after its parent, so a walk ends
// at a leaf within len(Nodes) steps.
func treeFromDTO(d treeDTO) (*Tree, error) {
	if len(d.Nodes) == 0 || len(d.Nodes) > math.MaxInt32 {
		return nil, fmt.Errorf("%d nodes", len(d.Nodes))
	}
	t := &Tree{dim: d.Dim, nodes: make([]treeNode, len(d.Nodes))}
	for i, n := range d.Nodes {
		switch {
		case n.Feature == -1:
			t.nodes[i] = treeNode{v: n.Value, feature: -1}
		case n.Feature < 0 || n.Feature > math.MaxInt32:
			return nil, fmt.Errorf("node %d splits on feature %d", i, n.Feature)
		case n.Left != i+1 || n.Right <= i+1 || n.Right >= len(d.Nodes):
			return nil, fmt.Errorf("node %d of %d has children %d and %d", i, len(d.Nodes), n.Left, n.Right)
		default:
			t.nodes[i] = treeNode{v: n.Threshold, right: int32(n.Right), feature: int32(n.Feature)}
		}
	}
	return t, nil
}

// MarshalBinary implements encoding.BinaryMarshaler for a trained forest.
func (f *Forest) MarshalBinary() ([]byte, error) {
	dto := forestDTO{Cfg: f.cfg, Trees: make([]treeDTO, len(f.trees))}
	for i, t := range f.trees {
		if t == nil {
			return nil, fmt.Errorf("ml: forest has nil tree %d (not trained?)", i)
		}
		dto.Trees[i] = t.toDTO()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, fmt.Errorf("ml: encode forest: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *Forest) UnmarshalBinary(data []byte) error {
	var dto forestDTO
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dto); err != nil {
		return fmt.Errorf("ml: decode forest: %w", err)
	}
	trees := make([]*Tree, len(dto.Trees))
	for i, td := range dto.Trees {
		t, err := treeFromDTO(td)
		if err != nil {
			return fmt.Errorf("ml: decode forest: tree %d: %w", i, err)
		}
		trees[i] = t
	}
	f.cfg, f.trees = dto.Cfg, trees
	return nil
}
