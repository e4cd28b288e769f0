package graph

import (
	"math/rand"
	"testing"
)

// checkAgainstBFS pins every IncDist row, aggregate, and derived quantity
// to a fresh BFS of the same graph.
func checkAgainstBFS(t *testing.T, d *IncDist, ctxt string) {
	t.Helper()
	g := d.g
	n := g.N()
	dist := make([]int, n)
	var bfs BFSScratch
	for s := 0; s < n; s++ {
		g.BFSScratchInto(s, dist, &bfs)
		var sum int64
		var un int
		var max int64
		for v, dv := range dist {
			if got := int(d.rows[s][v]); got != dv {
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
	if connected := n == 0 || d.unreach[0] == 0; connected != g.Connected() {
		t.Fatalf("%s: connected = %v, want %v", ctxt, connected, g.Connected())
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
// full-recompute fallback on every cascade). At the default threshold the
// graphs of at most 16 nodes must still repair removal rows by
// Ramalingam–Reps: every row a removal repairs has a nonempty affected
// set, so a budget of n/16 = 0 there would send each one to the fallback.
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
			if threshold > 0 {
				d.threshold = threshold
			}
			steps := 120
			if n > 30 {
				steps = 40
			}
			var removalRepairs uint64
			for i := 0; i < steps; i++ {
				u := rng.Intn(n)
				v := rng.Intn(n)
				if u == v {
					continue
				}
				if g.HasEdge(u, v) {
					before := d.Stats().Repairs
					d.RemoveEdge(u, v)
					removalRepairs += d.Stats().Repairs - before
				} else {
					d.AddEdge(u, v)
				}
				checkAgainstBFS(t, d, "random")
			}
			if threshold == 0 && n <= 16 && removalRepairs == 0 {
				t.Fatalf("n=%d: no removal row was repaired by Ramalingam–Reps at the default threshold %d", n, d.threshold)
			}
			fallbacks += d.Stats().Fallbacks
		}
		if threshold == 1 && fallbacks == 0 {
			t.Fatal("threshold=1 never exercised the fallback path")
		}
	}
}

// sideSizes returns |U| and |V| for a toggle of (u,v) given the BFS rows
// of u and v before and after it: U are the vertices whose distance to v
// changed, V those whose distance to u changed.
func sideSizes(beforeU, beforeV, afterU, afterV []int) (nu, nv int) {
	for x := range beforeU {
		if beforeV[x] != afterV[x] {
			nu++
		}
		if beforeU[x] != afterU[x] {
			nv++
		}
	}
	return nu, nv
}

// TestIncDistSides drives toggles whose two sides (see IncDist) take the
// shapes the side-restricted repair has to get right, checks every row
// against BFSScratchInto after each toggle, and checks that the kernel
// repaired at most 1+min(|U|,|V|) rows: the rest were mirrored or never
// visited.
func TestIncDistSides(t *testing.T) {
	type toggle struct {
		add  bool
		u, v int
	}
	path := func(n int) []Edge {
		var es []Edge
		for x := 1; x < n; x++ {
			es = append(es, Edge{x - 1, x})
		}
		return es
	}
	clique := func(lo, hi int) []Edge {
		var es []Edge
		for x := lo; x < hi; x++ {
			for y := x + 1; y < hi; y++ {
				es = append(es, Edge{x, y})
			}
		}
		return es
	}
	barbell := append(append(clique(0, 4), clique(4, 8)...), Edge{3, 4})
	cases := []struct {
		name      string
		n         int
		edges     []Edge
		threshold int
		toggles   []toggle
		fallback  bool // the toggles must exercise the full-row fallback
	}{
		{
			// V is the whole second component: every pair across the
			// edge goes from unreachable to finite.
			name:    "add joins two components",
			n:       7,
			edges:   []Edge{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}},
			toggles: []toggle{{true, 2, 3}, {false, 2, 3}, {true, 0, 6}},
		},
		{
			// Cutting a bridge makes each mirrored column unreachable.
			name:    "bridge removal mirrors unreachable",
			n:       6,
			edges:   []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {2, 5}},
			toggles: []toggle{{false, 2, 3}, {false, 0, 1}, {true, 0, 4}},
		},
		{
			name:    "removal with equal sides",
			n:       8,
			edges:   barbell,
			toggles: []toggle{{false, 3, 4}, {true, 0, 7}, {false, 0, 7}},
		},
		{
			// Every small-side row's affected set is the whole far
			// clique, over a budget of 1.
			name:      "small side falls back under threshold 1",
			n:         9,
			edges:     append(barbell, Edge{7, 8}),
			threshold: 1,
			toggles:   []toggle{{false, 3, 4}, {true, 3, 4}, {false, 7, 8}},
			fallback:  true,
		},
		{
			// Rows span two bitset words; the toggles cut and shortcut
			// paths that cross the word boundary.
			name:  "rows span two bitset words",
			n:     100,
			edges: append(path(100), Edge{0, 99}),
			toggles: []toggle{
				{false, 63, 64}, {true, 10, 90}, {false, 0, 99},
				{true, 63, 64}, {false, 40, 41}, {true, 5, 70},
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
			if tc.threshold > 0 {
				d.threshold = tc.threshold
			}
			checkAgainstBFS(t, d, "init")
			var bfs BFSScratch
			rowsOf := func(u, v int) ([]int, []int) {
				du, dv := make([]int, tc.n), make([]int, tc.n)
				g.BFSScratchInto(u, du, &bfs)
				g.BFSScratchInto(v, dv, &bfs)
				return du, dv
			}
			for i, tg := range tc.toggles {
				beforeU, beforeV := rowsOf(tg.u, tg.v)
				before := d.Stats()
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
				afterU, afterV := rowsOf(tg.u, tg.v)
				nu, nv := sideSizes(beforeU, beforeV, afterU, afterV)
				after := d.Stats()
				rows := after.Repairs + after.Fallbacks - before.Repairs - before.Fallbacks
				if limit := uint64(1 + min(nu, nv)); rows > limit {
					t.Fatalf("toggle %d (%+v): %d rows repaired, sides %d and %d allow %d", i, tg, rows, nu, nv, limit)
				}
			}
			if tc.fallback && d.Stats().Fallbacks == 0 {
				t.Fatal("no toggle fell back to a full-row BFS")
			}
		})
	}
}
