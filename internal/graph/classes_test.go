package graph

import "testing"

// legacySeenSetClasses reimplements the pre-pruning isomorphism reduction —
// canonicalize every labeled graph, keep the first of each class — as the
// reference the symmetry-pruned enumeration must match graph for graph.
func legacySeenSetClasses(n int, opts EnumOptions) (graphs []*Graph, keys []string) {
	pairs := allPairs(n)
	maxE := opts.MaxEdges
	if maxE < 0 {
		maxE = len(pairs)
	}
	seen := make(map[string]bool)
	for mask := 0; mask < 1<<len(pairs); mask++ {
		m := popcount(mask)
		if m < opts.MinEdges || m > maxE {
			continue
		}
		g := graphFromMask(n, pairs, mask)
		if opts.ConnectedOnly && !g.Connected() {
			continue
		}
		key := g.CanonicalKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		graphs = append(graphs, g)
		keys = append(keys, key)
	}
	return graphs, keys
}

// TestAllClassesMatchesSeenSet pins the symmetry-pruned enumeration to the
// historical seen-set reduction: same representatives (as labeled graphs),
// same canonical keys, same order. Reports and witnesses downstream stay
// byte-identical only if this holds exactly.
func TestAllClassesMatchesSeenSet(t *testing.T) {
	for n := 0; n <= 6; n++ {
		for _, opts := range []EnumOptions{
			{ConnectedOnly: true, UpToIso: true, MaxEdges: -1},
			{UpToIso: true, MaxEdges: -1},
			{ConnectedOnly: true, UpToIso: true, MinEdges: 2, MaxEdges: 6},
		} {
			wantGraphs, wantKeys := legacySeenSetClasses(n, opts)
			i := 0
			for g, cl := range AllClasses(n, opts) {
				if i >= len(wantGraphs) {
					t.Fatalf("n=%d opts=%+v: pruned enumeration yielded extra graph %s", n, opts, g)
				}
				if !g.Equal(wantGraphs[i]) {
					t.Errorf("n=%d opts=%+v class %d: pruned %s != legacy %s", n, opts, i, g, wantGraphs[i])
				}
				if cl.Key != wantKeys[i] {
					t.Errorf("n=%d opts=%+v class %d: key mismatch", n, opts, i)
				}
				if cl.Orbit < 1 {
					t.Errorf("n=%d opts=%+v class %d: orbit %d < 1", n, opts, i, cl.Orbit)
				}
				i++
			}
			if i != len(wantGraphs) {
				t.Errorf("n=%d opts=%+v: pruned enumeration yielded %d classes, legacy %d", n, opts, i, len(wantGraphs))
			}
		}
	}
}

// TestOrbitSumsCountLabeledGraphs checks the orbit multiplicities against
// the known labeled counts: summing n!/|Aut| over the connected classes
// must recover the number of connected labeled graphs (OEIS A001187), and
// over all classes the full 2^(n(n-1)/2).
func TestOrbitSumsCountLabeledGraphs(t *testing.T) {
	connected := map[int]int64{1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
	for n := 1; n <= 6; n++ {
		var sum int64
		for _, cl := range AllClasses(n, EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			sum += cl.Orbit
		}
		if sum != connected[n] {
			t.Errorf("n=%d: connected orbit sum %d, want %d", n, sum, connected[n])
		}
		sum = 0
		for _, cl := range AllClasses(n, EnumOptions{UpToIso: true, MaxEdges: -1}) {
			sum += cl.Orbit
		}
		if want := int64(1) << (n * (n - 1) / 2); sum != want {
			t.Errorf("n=%d: total orbit sum %d, want %d", n, sum, want)
		}
	}
}

// TestFreeTreeClassesMatchLegacy pins AllFreeTreeClasses to the
// graph-based reduction: identical representatives and
// keys in identical order, with orbit sums recovering Cayley's n^(n-2)
// labeled trees.
func TestFreeTreeClassesMatchLegacy(t *testing.T) {
	cayley := func(n int) int64 {
		if n <= 2 {
			return 1
		}
		p := int64(1)
		for i := 0; i < n-2; i++ {
			p *= int64(n)
		}
		return p
	}
	for n := 1; n <= 9; n++ {
		// Legacy reference: build every rooted tree's graph, reduce by
		// FreeTreeKey.
		var wantGraphs []*Graph
		var wantKeys []string
		if n == 1 {
			g := New(1)
			wantGraphs, wantKeys = []*Graph{g}, []string{FreeTreeKey(g)}
		} else {
			seen := make(map[string]bool)
			rootedTrees(n, func(level []int) bool {
				g := treeFromLevels(level)
				key := FreeTreeKey(g)
				if !seen[key] {
					seen[key] = true
					wantGraphs = append(wantGraphs, g)
					wantKeys = append(wantKeys, key)
				}
				return true
			})
		}
		i := 0
		var orbitSum int64
		for g, cl := range AllFreeTreeClasses(n) {
			if i >= len(wantGraphs) {
				t.Fatalf("n=%d: extra tree %s", n, g)
			}
			if !g.Equal(wantGraphs[i]) || cl.Key != wantKeys[i] {
				t.Errorf("n=%d tree %d: pruned (%s, %q) != legacy (%s, %q)",
					n, i, g, cl.Key, wantGraphs[i], wantKeys[i])
			}
			orbitSum += cl.Orbit
			i++
		}
		if i != len(wantGraphs) {
			t.Errorf("n=%d: %d tree classes, want %d", n, i, len(wantGraphs))
		}
		if orbitSum != cayley(n) {
			t.Errorf("n=%d: labeled tree orbit sum %d, want n^(n-2) = %d", n, orbitSum, cayley(n))
		}
	}
}

// TestMinMaskAutKnownGroups spot-checks |Aut| through the orbit on graphs
// with known automorphism groups.
func TestMinMaskAutKnownGroups(t *testing.T) {
	cases := []struct {
		g    *Graph
		aut  int64
		name string
	}{
		{MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}), 2, "P4"},
		{MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}}), 24, "K4"},
		{MustFromEdges(5, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}), 24, "star5"},
		{MustFromEdges(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 0, V: 4}}), 10, "C5"},
	}
	for _, tc := range cases {
		// Direct check where the labeling happens to be minimal-mask;
		// minMaskAut only reports |Aut| for minimal labelings.
		rows := make([]uint64, tc.g.N())
		for u := 0; u < tc.g.N(); u++ {
			for _, v := range tc.g.Neighbors(u) {
				rows[u] |= 1 << uint(v)
			}
		}
		if minimal, aut := minMaskAut(rows, tc.g.N()); minimal && aut != tc.aut {
			t.Errorf("%s: minMaskAut |Aut| = %d, want %d", tc.name, aut, tc.aut)
		}
		// Class-level check for every labeling, via the enumerated orbit of
		// the class with the same canonical key.
		key := tc.g.CanonicalKey()
		found := false
		for _, cl := range AllClasses(tc.g.N(), EnumOptions{UpToIso: true, MaxEdges: -1}) {
			if cl.Key == key {
				found = true
				if got := factorial(tc.g.N()) / cl.Orbit; got != tc.aut {
					t.Errorf("%s: |Aut| = %d, want %d", tc.name, got, tc.aut)
				}
				break
			}
		}
		if !found {
			t.Errorf("%s: class not found in enumeration", tc.name)
		}
	}
}
