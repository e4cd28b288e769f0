package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestNewAndBasicOps(t *testing.T) {
	g := New(4)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("New(4): got n=%d m=%d, want 4, 0", g.N(), g.M())
	}
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) returned false on empty graph")
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("HasEdge not symmetric")
	}
	if g.AddEdge(0, 1) || g.AddEdge(1, 0) {
		t.Fatal("duplicate AddEdge returned true")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("loop AddEdge returned true")
	}
	if g.AddEdge(0, 4) || g.AddEdge(-1, 0) {
		t.Fatal("out-of-range AddEdge returned true")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0) returned false")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("second RemoveEdge returned true")
	}
	if g.M() != 0 {
		t.Fatalf("M after removal = %d, want 0", g.M())
	}
}

func TestFromEdgesErrors(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{name: "out of range", n: 2, edges: []Edge{{U: 0, V: 2}}},
		{name: "loop", n: 2, edges: []Edge{{U: 1, V: 1}}},
		{name: "duplicate", n: 3, edges: []Edge{{U: 0, V: 1}, {U: 1, V: 0}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FromEdges(tt.n, tt.edges); err == nil {
				t.Fatalf("FromEdges(%d, %v): no error", tt.n, tt.edges)
			}
		})
	}
}

func TestEdgeHelpers(t *testing.T) {
	e := Edge{U: 3, V: 1}
	if got := e.Normalize(); got != (Edge{U: 1, V: 3}) {
		t.Fatalf("Normalize: got %v", got)
	}
	if e.String() != "1-3" {
		t.Fatalf("String: got %q", e.String())
	}
}

func TestNeighborsSortedAndDegree(t *testing.T) {
	g := MustFromEdges(5, []Edge{{U: 3, V: 0}, {U: 3, V: 4}, {U: 3, V: 1}})
	want := []int{0, 1, 4}
	got := g.Neighbors(3)
	if len(got) != len(want) {
		t.Fatalf("Neighbors(3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(3) = %v, want %v", got, want)
		}
	}
	if g.Degree(3) != 3 || g.Degree(2) != 0 {
		t.Fatal("Degree wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := MustFromEdges(3, []Edge{{U: 0, V: 1}})
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating clone changed original")
	}
	if !g.Equal(g.Clone()) {
		t.Fatal("clone not Equal to original")
	}
}

func TestComplement(t *testing.T) {
	g := MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	c := g.complement()
	if c.M() != 4 {
		t.Fatalf("complement has %d edges, want 4", c.M())
	}
	if c.HasEdge(0, 1) || !c.HasEdge(0, 2) {
		t.Fatal("complement edges wrong")
	}
	if !g.Equal(c.complement()) {
		t.Fatal("double complement differs from original")
	}
}

func TestPermute(t *testing.T) {
	g := MustFromEdges(3, []Edge{{U: 0, V: 1}})
	h, err := g.Permute([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasEdge(2, 0) || h.M() != 1 {
		t.Fatalf("Permute result wrong: %s", h)
	}
	if _, err := g.Permute([]int{0, 0, 1}); err == nil {
		t.Fatal("non-permutation accepted")
	}
	if _, err := g.Permute([]int{0, 1}); err == nil {
		t.Fatal("short permutation accepted")
	}
}

func TestBFSAndDist(t *testing.T) {
	// Path 0-1-2-3 plus isolated node 4.
	g := MustFromEdges(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	d := make([]int, 5)
	g.BFSScratchInto(0, d, &BFSScratch{})
	want := []int{0, 1, 2, 3, Unreachable}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("BFS(0) = %v, want %v", d, want)
		}
	}
}

func TestTotalDist(t *testing.T) {
	g := MustFromEdges(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	sum, unreachable := g.TotalDist(0)
	if sum != 6 || unreachable != 1 {
		t.Fatalf("TotalDist(0) = (%d, %d), want (6, 1)", sum, unreachable)
	}
}

func TestConnectivity(t *testing.T) {
	g := MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	comps := g.Components()
	if len(comps) != 2 || len(comps[0]) != 2 {
		t.Fatalf("Components = %v", comps)
	}
	g.AddEdge(1, 2)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
	if New(0).Connected() != true || New(1).Connected() != true {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestDiameterEccentricity(t *testing.T) {
	g := MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if g.Diameter() != 3 {
		t.Fatalf("path diameter = %d, want 3", g.Diameter())
	}
	if g.Eccentricity(1) != 2 {
		t.Fatalf("Eccentricity(1) = %d, want 2", g.Eccentricity(1))
	}
	g.RemoveEdge(1, 2)
	if g.Diameter() != Unreachable {
		t.Fatal("diameter of disconnected graph should be Unreachable")
	}
}

func TestIsTree(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges []Edge
		want  bool
	}{
		{name: "path", n: 3, edges: []Edge{{U: 0, V: 1}, {U: 1, V: 2}}, want: true},
		{name: "single node", n: 1, edges: nil, want: true},
		{name: "cycle", n: 3, edges: []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, want: false},
		{name: "forest", n: 4, edges: []Edge{{U: 0, V: 1}, {U: 2, V: 3}}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := MustFromEdges(tt.n, tt.edges)
			if got := g.IsTree(); got != tt.want {
				t.Fatalf("IsTree = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDegreeSequence(t *testing.T) {
	g := MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	got := g.degreeSequence()
	want := []int{3, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("degreeSequence = %v, want %v", got, want)
		}
	}
}

// TestBFSScratchIntoMatchesReference cross-checks the scratch kernel with
// the neighbor-list reference on random graphs.
func TestBFSScratchIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		m := rng.Intn(n * (n - 1) / 2)
		g, err := RandomGraph(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		var s BFSScratch
		buf := make([]int, n)
		for u := 0; u < n; u++ {
			g.BFSScratchInto(u, buf, &s)
			ref := referenceBFS(g, u)
			for v := range ref {
				if buf[v] != ref[v] {
					t.Fatalf("BFSScratchInto differs from the reference at %d->%d", u, v)
				}
			}
		}
	}
}

// TestDistanceMetricAxioms checks symmetry and the triangle inequality on
// random connected graphs.
func TestDistanceMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(10)
		m := n - 1 + rng.Intn(n)
		maxM := n * (n - 1) / 2
		if m > maxM {
			m = maxM
		}
		g, err := RandomConnectedGraph(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		var s BFSScratch
		d := make([][]int, n)
		for u := range d {
			d[u] = make([]int, n)
			g.BFSScratchInto(u, d[u], &s)
		}
		for u := 0; u < n; u++ {
			if d[u][u] != 0 {
				t.Fatalf("d[%d][%d] = %d, want 0", u, u, d[u][u])
			}
			for v := 0; v < n; v++ {
				if d[u][v] != d[v][u] {
					t.Fatalf("distance not symmetric at (%d,%d)", u, v)
				}
				for w := 0; w < n; w++ {
					if d[u][w] > d[u][v]+d[v][w] {
						t.Fatalf("triangle inequality violated at (%d,%d,%d)", u, v, w)
					}
				}
			}
		}
	}
}

// complement returns the complement graph on the same node set.
func (g *Graph) complement() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if !g.HasEdge(u, v) {
				c.insertEdge(u, v)
			}
		}
	}
	return c
}

// degreeSequence returns the sorted (descending) degree sequence.
func (g *Graph) degreeSequence() []int {
	seq := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		seq[u] = len(g.neigh[u])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seq)))
	return seq
}
