// Package graph implements the undirected simple graphs that underlie the
// (Bilateral) Network Creation Game: adjacency storage, traversal, distance
// computation, encodings, canonical forms and enumeration of small graphs
// and trees.
//
// Nodes are the integers 0..n-1. Graphs are simple (no loops, no parallel
// edges) and undirected. All operations are deterministic.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Edge is an undirected edge between two distinct nodes. The canonical form
// has U < V; Normalize enforces it.
type Edge struct {
	U, V int
}

// Normalize returns the edge with endpoints ordered U < V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// String renders the edge as "u-v".
func (e Edge) String() string {
	n := e.Normalize()
	return fmt.Sprintf("%d-%d", n.U, n.V)
}

// Graph is a mutable undirected simple graph on nodes 0..n-1.
//
// The zero value is not usable; construct graphs with New or the package
// constructors. Adjacency is stored as sorted neighbor lists: memory is
// O(n+m), which keeps the 10^5-node families of Section 3.3 cheap, and
// edge queries are a binary search of the smaller endpoint's list. Graphs
// with at most MaxBitsetNodes nodes additionally maintain a dense bitset
// mirror of the adjacency ([]uint64 rows, kept in lockstep by every edge
// mutation), which the traversal kernels use for word-at-a-time BFS
// frontiers and O(1) edge queries.
type Graph struct {
	n     int
	m     int
	neigh [][]int
	// bits[u] is u's adjacency row (bit v set iff uv is an edge); nil for
	// n > MaxBitsetNodes. words is the row length in uint64 words.
	bits  [][]uint64
	words int
}

// New returns an empty graph on n nodes. It panics for n < 0 because a
// negative node count is unrepresentable, not a runtime condition.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	g := &Graph{
		n:     n,
		neigh: make([][]int, n),
	}
	g.initBits()
	return g
}

// FromEdges returns a graph on n nodes with the given edges. It reports an
// error for out-of-range endpoints, loops, or duplicate edges.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.addEdgeChecked(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// MustFromEdges is FromEdges for statically known edge lists; it panics on
// invalid input.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// HasEdge reports whether the edge uv is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	if g.bits != nil {
		return g.bits[u][v>>6]&(1<<uint(v&63)) != 0
	}
	if len(g.neigh[u]) > len(g.neigh[v]) {
		u, v = v, u
	}
	s := g.neigh[u]
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

func (g *Graph) addEdgeChecked(u, v int) error {
	switch {
	case u < 0 || u >= g.n || v < 0 || v >= g.n:
		return fmt.Errorf("graph: edge %d-%d out of range [0,%d)", u, v, g.n)
	case u == v:
		return fmt.Errorf("graph: loop at node %d", u)
	case g.HasEdge(u, v):
		return fmt.Errorf("graph: duplicate edge %d-%d", u, v)
	}
	g.insertEdge(u, v)
	return nil
}

func (g *Graph) insertEdge(u, v int) {
	g.neigh[u] = insertSorted(g.neigh[u], v)
	g.neigh[v] = insertSorted(g.neigh[v], u)
	if g.bits != nil {
		g.bits[u][v>>6] |= 1 << uint(v&63)
		g.bits[v][u>>6] |= 1 << uint(u&63)
	}
	g.m++
}

// AddEdge inserts the edge uv. Adding an existing edge or a loop is a no-op
// that returns false; a successful insertion returns true.
func (g *Graph) AddEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v || g.HasEdge(u, v) {
		return false
	}
	g.insertEdge(u, v)
	return true
}

// RemoveEdge deletes the edge uv if present and reports whether it did.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.neigh[u] = removeSorted(g.neigh[u], v)
	g.neigh[v] = removeSorted(g.neigh[v], u)
	if g.bits != nil {
		g.bits[u][v>>6] &^= 1 << uint(v&63)
		g.bits[v][u>>6] &^= 1 << uint(u&63)
	}
	g.m--
	return true
}

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.neigh[u]) }

// Neighbors returns the sorted neighbor list of u. The returned slice is
// owned by the graph and must not be modified; copy it before mutating the
// graph if it must survive.
func (g *Graph) Neighbors(u int) []int { return g.neigh[u] }

// Edges returns all edges in canonical (U<V) order, sorted
// lexicographically.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.neigh[u] {
			if u < v {
				edges = append(edges, Edge{U: u, V: v})
			}
		}
	}
	return edges
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:     g.n,
		m:     g.m,
		neigh: make([][]int, g.n),
	}
	for i := 0; i < g.n; i++ {
		c.neigh[i] = append([]int(nil), g.neigh[i]...)
	}
	c.initBits()
	if c.bits != nil {
		for u := 0; u < g.n; u++ {
			copy(c.bits[u], g.bits[u])
		}
	}
	return c
}

// Equal reports whether g and h have identical node counts and edge sets
// (as labeled graphs, not up to isomorphism).
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for u := 0; u < g.n; u++ {
		if len(g.neigh[u]) != len(h.neigh[u]) {
			return false
		}
		for i, v := range g.neigh[u] {
			if h.neigh[u][i] != v {
				return false
			}
		}
	}
	return true
}

// Permute returns the graph relabeled by perm: node u of g becomes node
// perm[u] of the result. perm must be a permutation of 0..n-1.
func (g *Graph) Permute(perm []int) (*Graph, error) {
	if len(perm) != g.n {
		return nil, fmt.Errorf("graph: permutation length %d != %d nodes", len(perm), g.n)
	}
	seen := make([]bool, g.n)
	for _, p := range perm {
		if p < 0 || p >= g.n || seen[p] {
			return nil, errors.New("graph: not a permutation")
		}
		seen[p] = true
	}
	h := New(g.n)
	for _, e := range g.Edges() {
		h.insertEdge(perm[e.U], perm[e.V])
	}
	return h, nil
}

// String renders the graph as "n=<n> m=<m> edges=[...]" for debugging and
// test failure messages.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d m=%d edges=[", g.n, g.m)
	for i, e := range g.Edges() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.String())
	}
	b.WriteByte(']')
	return b.String()
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
