package graph

import (
	"math/rand"
	"testing"
)

// checkAgainstBFS pins every IncDist row, aggregate, and derived quantity
// to a fresh BFS of the same graph.
func checkAgainstBFS(t *testing.T, d *IncDist, ctxt string) {
	t.Helper()
	g := d.Graph()
	n := g.N()
	dist := make([]int, n)
	var bfs BFSScratch
	for s := 0; s < n; s++ {
		g.BFSScratchInto(s, dist, &bfs)
		var sum int64
		var un int
		var max int64
		for v, dv := range dist {
			if got := d.Dist(s, v); got != dv {
				t.Fatalf("%s: dist(%d,%d) = %d, want %d", ctxt, s, v, got, dv)
			}
			if dv == Unreachable {
				un++
				continue
			}
			sum += int64(dv)
			if int64(dv) > max {
				max = int64(dv)
			}
		}
		if d.SumDist(s) != sum {
			t.Fatalf("%s: SumDist(%d) = %d, want %d", ctxt, s, d.SumDist(s), sum)
		}
		if d.UnreachableFrom(s) != un {
			t.Fatalf("%s: UnreachableFrom(%d) = %d, want %d", ctxt, s, d.UnreachableFrom(s), un)
		}
		if d.MaxDist(s) != max {
			t.Fatalf("%s: MaxDist(%d) = %d, want %d", ctxt, s, d.MaxDist(s), max)
		}
	}
	if d.Connected() != g.Connected() {
		t.Fatalf("%s: Connected() = %v, want %v", ctxt, d.Connected(), g.Connected())
	}
}

// TestIncDistTable drives hand-picked toggle sequences through the repair
// paths that matter: shortcut adds, bridge removals (vertices become
// unreachable), no-op removals off shortest paths, and re-adds.
func TestIncDistTable(t *testing.T) {
	type toggle struct {
		add  bool
		u, v int
	}
	cases := []struct {
		name    string
		n       int
		edges   []Edge
		toggles []toggle
	}{
		{
			name:  "path shortcut then bridge cut",
			n:     6,
			edges: []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}},
			toggles: []toggle{
				{true, 0, 5},  // close the cycle: big shortcut both directions
				{false, 2, 3}, // still connected via the chord
				{false, 0, 5}, // now 0..2 and 3..5 split
				{true, 2, 3},  // rejoin
			},
		},
		{
			name:  "star loses and regains a leaf",
			n:     5,
			edges: []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}},
			toggles: []toggle{
				{false, 0, 4}, // leaf 4 unreachable from everyone
				{true, 1, 4},  // re-attached one level deeper
				{true, 0, 4},  // back to distance 1
				{false, 1, 4},
			},
		},
		{
			name:  "equal-level edge is distance-neutral",
			n:     4,
			edges: []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
			toggles: []toggle{
				{false, 1, 3}, // 3 keeps support via 2
				{true, 1, 3},
				{false, 2, 3},
			},
		},
		{
			name:  "isolated vertices join late",
			n:     5,
			edges: []Edge{{0, 1}},
			toggles: []toggle{
				{true, 2, 3},
				{true, 1, 2}, // merges two components
				{true, 3, 4},
				{false, 1, 2}, // splits them again
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := FromEdges(tc.n, tc.edges)
			if err != nil {
				t.Fatal(err)
			}
			d := NewIncDist(g)
			checkAgainstBFS(t, d, "init")
			for i, tg := range tc.toggles {
				var ok bool
				if tg.add {
					ok = d.AddEdge(tg.u, tg.v)
				} else {
					ok = d.RemoveEdge(tg.u, tg.v)
				}
				if !ok {
					t.Fatalf("toggle %d (%+v) was a no-op", i, tg)
				}
				checkAgainstBFS(t, d, tc.name)
			}
		})
	}
}

// TestIncDistRandomToggles is the table test's randomized sibling: long
// uniform toggle sequences over several sizes, verified after every step,
// at both the default threshold and a threshold of 1 (forcing the
// full-recompute fallback on every cascade).
func TestIncDistRandomToggles(t *testing.T) {
	for _, threshold := range []int{0, 1} {
		var fallbacks uint64
		for _, n := range []int{2, 3, 7, 16, 33, 70} {
			rng := rand.New(rand.NewSource(int64(100*n + threshold)))
			m := n
			if max := n * (n - 1) / 2; m > max {
				m = max
			}
			g, err := RandomGraph(n, m, rng)
			if err != nil {
				t.Fatal(err)
			}
			d := NewIncDist(g)
			d.SetThreshold(threshold)
			steps := 120
			if n > 30 {
				steps = 40
			}
			for i := 0; i < steps; i++ {
				u := rng.Intn(n)
				v := rng.Intn(n)
				if u == v {
					continue
				}
				if g.HasEdge(u, v) {
					d.RemoveEdge(u, v)
				} else {
					d.AddEdge(u, v)
				}
				checkAgainstBFS(t, d, "random")
			}
			fallbacks += d.Stats().Fallbacks
		}
		if threshold == 1 && fallbacks == 0 {
			t.Fatal("threshold=1 never exercised the fallback path")
		}
	}
}
