// Package construct builds the graph families the paper analyzes: baseline
// topologies, the stretched binary trees and stretched tree stars behind
// the PoA lower bounds of Sections 3.2.2–3.2.3, the d-ary trees behind the
// BSE upper bounds of Section 3.3, and the witness gadgets of Figures 4, 5
// and 7.
package construct

import (
	"fmt"

	"repro/internal/graph"
)

// Path returns the path 0-1-...-(n-1).
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v-1, v)
	}
	return g
}

// Cycle returns the cycle on n >= 3 nodes.
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("construct: cycle needs n >= 3, got %d", n))
	}
	g := Path(n)
	g.AddEdge(n-1, 0)
	return g
}

// AlmostCompleteDAry returns the almost complete d-ary tree on n nodes
// (filled level by level): node v > 0 has parent (v-1)/d, so node 0 is the
// root. This is the family of Lemma 3.18.
func AlmostCompleteDAry(n, d int) *graph.Graph {
	if d < 1 {
		panic(fmt.Sprintf("construct: arity %d must be >= 1", d))
	}
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, (v-1)/d)
	}
	return g
}

// Stretched is a k-stretched binary tree (Figure 3): the complete binary
// tree B of depth D with every edge subdivided into a path of k edges.
type Stretched struct {
	G *graph.Graph
	// Root is the root r (also the root of B).
	Root int
	// K and D are the stretch factor and the depth of B.
	K, D int
	// BNodes marks the nodes of the underlying binary tree B.
	BNodes []bool
}

// NewStretched builds the k-stretched binary tree with parameters d >= 0,
// k >= 1. Node count is (2^(d+1)-2)k + 1.
func NewStretched(d, k int) *Stretched {
	if d < 0 || k < 1 {
		panic(fmt.Sprintf("construct: invalid stretched tree parameters d=%d k=%d", d, k))
	}
	nB := (1 << (d + 1)) - 1
	n := (nB-1)*k + 1
	g := graph.New(n)
	bNodes := make([]bool, n)

	// Allocate ids: the B-nodes first would complicate path wiring; instead
	// walk B (heap indexing) and lay out each stretched edge's path.
	// id of B-node b: stored in bID.
	bID := make([]int, nB)
	bID[0] = 0
	bNodes[0] = true
	next := 1
	for b := 1; b < nB; b++ {
		parentB := (b - 1) / 2
		// Path parent = p_1, ..., p_{k-1}, b (k edges).
		prev := bID[parentB]
		for i := 1; i < k; i++ {
			g.AddEdge(prev, next)
			prev = next
			next++
		}
		g.AddEdge(prev, next)
		bID[b] = next
		bNodes[next] = true
		next++
	}
	return &Stretched{G: g, Root: 0, K: k, D: d, BNodes: bNodes}
}

// MaxStretchedDepth returns the maximal binary-tree depth d such that the
// k-stretched tree has at most maxNodes nodes, or -1 if even d = 0 (the
// single node) does not fit.
func MaxStretchedDepth(k, maxNodes int) int {
	d := -1
	for {
		nodes := ((1 << (d + 2)) - 2) * k // node count at depth d+1, minus 1
		if nodes+1 > maxNodes {
			return d
		}
		d++
	}
}

// TreeStar is a stretched tree star (Section 3.2.2): a root with identical
// stretched-tree child subtrees.
type TreeStar struct {
	G *graph.Graph
	// Root is the star's root r.
	Root int
	// SubtreeSize is |T|, the size of one copy.
	SubtreeSize int
	// Copies is the number of copies.
	Copies int
	// K is the stretch factor, DepthT the depth of one copy.
	K, DepthT int
}

// NewTreeStar builds the stretched tree star with stretch factor k >= 1,
// target subtree size t >= 2k+1 and target size eta >= 2t+1: T is the
// k-stretched tree with d maximal subject to |T| <= t, and the star has
// ceil((eta-1)/|T|) copies of T.
func NewTreeStar(k int, t float64, eta int) (*TreeStar, error) {
	if k < 1 {
		return nil, fmt.Errorf("construct: stretch factor %d must be >= 1", k)
	}
	if t < float64(2*k+1) {
		return nil, fmt.Errorf("construct: target subtree size %.2f below 2k+1 = %d", t, 2*k+1)
	}
	if float64(eta) < 2*t+1 {
		return nil, fmt.Errorf("construct: target size %d below 2t+1 = %.2f", eta, 2*t+1)
	}
	d := MaxStretchedDepth(k, int(t))
	if d < 0 {
		return nil, fmt.Errorf("construct: no stretched tree of size <= %.2f with k=%d", t, k)
	}
	copyTree := NewStretched(d, k)
	sz := copyTree.G.N()
	copies := (eta - 1 + sz - 1) / sz // ceil((eta-1)/|T|)

	n := 1 + copies*sz
	g := graph.New(n)
	for c := 0; c < copies; c++ {
		offset := 1 + c*sz
		for _, e := range copyTree.G.Edges() {
			g.AddEdge(offset+e.U, offset+e.V)
		}
		g.AddEdge(0, offset+copyTree.Root)
	}
	return &TreeStar{
		G:           g,
		Root:        0,
		SubtreeSize: sz,
		Copies:      copies,
		K:           k,
		DepthT:      k * d,
	}, nil
}

// Depth returns depth(G) = depth(T) + 1.
func (ts *TreeStar) Depth() int { return ts.DepthT + 1 }
