package tree

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func path(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v-1, v)
	}
	return g
}

func star(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}

func TestRootRejectsNonTree(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	if _, err := Root(g, 0); err == nil {
		t.Fatal("cycle accepted")
	}
	if _, err := Root(path(3), 5); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestRootedBasicsOnPath(t *testing.T) {
	g := path(5)
	rt, err := Root(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Depth() != 4 {
		t.Fatalf("Depth = %d, want 4", rt.Depth())
	}
	for u := 0; u < 5; u++ {
		if rt.Layer(u) != u {
			t.Fatalf("Layer(%d) = %d, want %d", u, rt.Layer(u), u)
		}
		if rt.SubtreeSize(u) != 5-u {
			t.Fatalf("SubtreeSize(%d) = %d, want %d", u, rt.SubtreeSize(u), 5-u)
		}
		if rt.SubtreeDepth(u) != 4-u {
			t.Fatalf("SubtreeDepth(%d) = %d, want %d", u, rt.SubtreeDepth(u), 4-u)
		}
	}
	if rt.parent[0] != -1 || rt.parent[3] != 2 {
		t.Fatal("Parent wrong")
	}
	if cs := rt.Children(2); len(cs) != 1 || cs[0] != 3 {
		t.Fatalf("Children(2) = %v", cs)
	}
}

func TestNodesAtLayer(t *testing.T) {
	rt, err := Root(star(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 5; u++ {
		if rt.Layer(u) != min(u, 1) {
			t.Fatalf("Layer(%d) = %d, want %d", u, rt.Layer(u), min(u, 1))
		}
	}
}

func TestMedians(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want []int
	}{
		{name: "path5", g: path(5), want: []int{2}},
		{name: "path4", g: path(4), want: []int{1, 2}},
		{name: "star6", g: star(6), want: []int{0}},
		{name: "single", g: graph.New(1), want: []int{0}},
		{name: "edge", g: path(2), want: []int{0, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Medians(tt.g)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tt.want) {
				t.Fatalf("Medians = %v, want %v", got, tt.want)
			}
			for i := range tt.want {
				if got[i] != tt.want[i] {
					t.Fatalf("Medians = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

// TestMedianMinimizesTotalDistance: the 1-median definition by component
// sizes coincides with minimizing total distance (Kariv–Hakimi).
func TestMedianMinimizesTotalDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(14)
		g := graph.RandomTree(n, rng)
		medians, err := Medians(g)
		if err != nil {
			t.Fatal(err)
		}
		best := int64(1) << 62
		for u := 0; u < n; u++ {
			sum, _ := g.TotalDist(u)
			if sum < best {
				best = sum
			}
		}
		for _, m := range medians {
			sum, _ := g.TotalDist(m)
			if sum != best {
				t.Fatalf("median %d has dist %d, min is %d (%s)", m, sum, best, g)
			}
		}
		// And non-medians are strictly worse.
		isMedian := make(map[int]bool)
		for _, m := range medians {
			isMedian[m] = true
		}
		for u := 0; u < n; u++ {
			sum, _ := g.TotalDist(u)
			if !isMedian[u] && sum == best {
				t.Fatalf("node %d attains min dist but is not a median (%s)", u, g)
			}
		}
	}
}

// TestMedianComponentBound: removing the root-at-median leaves components
// of size at most n/2 — the property all Section 3.2 proofs use.
func TestMedianComponentBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(20)
		g := graph.RandomTree(n, rng)
		rt, err := RootAtMedian(g)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			if u == rt.root {
				continue
			}
			if 2*rt.SubtreeSize(u) > n {
				t.Fatalf("subtree of %d has %d > n/2 nodes (n=%d, %s)", u, rt.SubtreeSize(u), n, g)
			}
		}
	}
}

func TestSubtreeMedians(t *testing.T) {
	// Path rooted at one end: the medians of the subtree T_u (a sub-path of
	// length 5-u) are the middle nodes of that sub-path.
	rt, err := Root(path(6), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := rt.SubtreeMedians(2) // subtree is path 2-3-4-5
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("SubtreeMedians(2) = %v, want [3 4]", got)
	}
	if got := rt.SubtreeMedians(5); len(got) != 1 || got[0] != 5 {
		t.Fatalf("SubtreeMedians(leaf) = %v", got)
	}
}

func TestSubtreeSizesSumAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(15)
		g := graph.RandomTree(n, rng)
		rt, err := Root(g, rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		// Root subtree is everything.
		if rt.SubtreeSize(rt.root) != n {
			t.Fatalf("root subtree size %d, want %d", rt.SubtreeSize(rt.root), n)
		}
		// Each node: size = 1 + sum of children sizes.
		for u := 0; u < n; u++ {
			sum := 1
			for _, c := range rt.Children(u) {
				sum += rt.SubtreeSize(c)
			}
			if sum != rt.SubtreeSize(u) {
				t.Fatalf("subtree size of %d inconsistent", u)
			}
			if len(rt.Subtree(u)) != rt.SubtreeSize(u) {
				t.Fatalf("Subtree(%d) length != SubtreeSize", u)
			}
		}
	}
}
