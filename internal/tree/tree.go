// Package tree provides rooted views of tree graphs with the structural
// queries used throughout Section 3.2 of the paper: layers, parents,
// subtree sizes, subtree depths and 1-medians.
package tree

import (
	"fmt"

	"repro/internal/graph"
)

// Rooted is an immutable rooted view of a tree graph.
type Rooted struct {
	g      *graph.Graph
	root   int
	parent []int // parent[root] == -1
	layer  []int // layer[u] == dist(root, u)
	order  []int // BFS order from root (root first)
	size   []int // subtree sizes
	depth  []int // depth of the subtree rooted at u
}

// Root returns a rooted view of g at root. It reports an error if g is not
// a tree or root is out of range.
func Root(g *graph.Graph, root int) (*Rooted, error) {
	if !g.IsTree() {
		return nil, fmt.Errorf("tree: graph is not a tree (%s)", g)
	}
	if root < 0 || root >= g.N() {
		return nil, fmt.Errorf("tree: root %d out of range [0,%d)", root, g.N())
	}
	n := g.N()
	t := &Rooted{
		g:      g,
		root:   root,
		parent: make([]int, n),
		layer:  make([]int, n),
		order:  make([]int, 0, n),
		size:   make([]int, n),
		depth:  make([]int, n),
	}
	for i := range t.parent {
		t.parent[i] = -2 // unvisited
	}
	t.parent[root] = -1
	t.layer[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		t.order = append(t.order, u)
		for _, v := range g.Neighbors(u) {
			if t.parent[v] == -2 {
				t.parent[v] = u
				t.layer[v] = t.layer[u] + 1
				queue = append(queue, v)
			}
		}
	}
	// Subtree sizes and depths bottom-up (reverse BFS order).
	for i := range t.size {
		t.size[i] = 1
	}
	for i := n - 1; i >= 0; i-- {
		u := t.order[i]
		p := t.parent[u]
		if p >= 0 {
			t.size[p] += t.size[u]
			if t.depth[u]+1 > t.depth[p] {
				t.depth[p] = t.depth[u] + 1
			}
		}
	}
	return t, nil
}

// RootAtMedian roots g at its (layer-minimal) 1-median, matching the
// convention used in all of the paper's tree proofs.
func RootAtMedian(g *graph.Graph) (*Rooted, error) {
	medians, err := Medians(g)
	if err != nil {
		return nil, err
	}
	return Root(g, medians[0])
}

// Layer returns dist(root, u), the paper's ℓ(u).
func (t *Rooted) Layer(u int) int { return t.layer[u] }

// SubtreeSize returns |T_u|.
func (t *Rooted) SubtreeSize(u int) int { return t.size[u] }

// SubtreeDepth returns depth(T_u) = max_{v in T_u} dist(u, v).
func (t *Rooted) SubtreeDepth(u int) int { return t.depth[u] }

// Depth returns depth(G) = max_u ℓ(u).
func (t *Rooted) Depth() int { return t.depth[t.root] }

// Children returns the children of u in BFS-neighbor order.
func (t *Rooted) Children(u int) []int {
	var cs []int
	for _, v := range t.g.Neighbors(u) {
		if t.parent[v] == u {
			cs = append(cs, v)
		}
	}
	return cs
}

// Subtree returns the nodes of T_u in BFS order starting at u.
func (t *Rooted) Subtree(u int) []int {
	nodes := []int{u}
	for i := 0; i < len(nodes); i++ {
		nodes = append(nodes, t.Children(nodes[i])...)
	}
	return nodes
}

// Medians returns the 1 or 2 1-medians of a tree: nodes minimizing total
// distance, equivalently nodes whose removal leaves components of size at
// most n/2 (Section 3.2 of the paper). Ascending order.
func Medians(g *graph.Graph) ([]int, error) {
	if !g.IsTree() {
		return nil, fmt.Errorf("tree: medians of non-tree (%s)", g)
	}
	n := g.N()
	if n == 1 {
		return []int{0}, nil
	}
	t, err := Root(g, 0)
	if err != nil {
		return nil, err
	}
	var medians []int
	for u := 0; u < n; u++ {
		// Component sizes on removing u: each child subtree, plus the
		// complement through the parent.
		ok := true
		for _, c := range t.Children(u) {
			if 2*t.size[c] > n {
				ok = false
				break
			}
		}
		if ok && u != t.root && 2*(n-t.size[u]) > n {
			ok = false
		}
		if ok {
			medians = append(medians, u)
		}
	}
	if len(medians) == 0 || len(medians) > 2 {
		return nil, fmt.Errorf("tree: found %d medians, want 1 or 2", len(medians))
	}
	return medians, nil
}

// SubtreeMedians returns the 1-medians of the subtree T_u as a standalone
// tree, in ascending order of layer then label (so the first entry is the
// one the paper's Lemma 3.3 picks: the T_u-median closest to u).
func (t *Rooted) SubtreeMedians(u int) []int {
	nodes := t.Subtree(u)
	if len(nodes) == 1 {
		return []int{u}
	}
	index := make(map[int]int, len(nodes))
	for i, v := range nodes {
		index[v] = i
	}
	sub := graph.New(len(nodes))
	for _, v := range nodes {
		if p := t.parent[v]; v != u && p >= 0 {
			sub.AddEdge(index[v], index[p])
		}
	}
	localMedians, err := Medians(sub)
	if err != nil {
		panic(err) // sub is a tree by construction
	}
	medians := make([]int, len(localMedians))
	for i, lm := range localMedians {
		medians[i] = nodes[lm]
	}
	if len(medians) == 2 && t.layer[medians[1]] < t.layer[medians[0]] {
		medians[0], medians[1] = medians[1], medians[0]
	}
	return medians
}
