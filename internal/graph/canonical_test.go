package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestCanonicalKeyInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(7)
		m := rng.Intn(n*(n-1)/2 + 1)
		g, err := RandomGraph(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(n)
		h, err := g.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		if g.CanonicalKey() != h.CanonicalKey() {
			t.Fatalf("canonical key changed under permutation:\n%s\n%s", g, h)
		}
	}
}

func TestCanonicalKeySeparatesNonIsomorphic(t *testing.T) {
	// Path P4 vs star K1,3: same degree count sum, different structure.
	path := MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	star := MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	if path.CanonicalKey() == star.CanonicalKey() {
		t.Fatal("P4 and K1,3 share a canonical key")
	}
	relabeled, _ := path.Permute([]int{3, 1, 0, 2})
	if path.CanonicalKey() != relabeled.CanonicalKey() {
		t.Fatal("relabeled path reported non-isomorphic")
	}
}

// bruteCanonicalKey is the definition CanonicalKey implements, by brute
// force: the smallest upper-triangular adjacency bitstring over every
// ordering that sorts degrees in non-increasing order, as the cartesian
// product of the permutations of each degree group.
func bruteCanonicalKey(g *Graph) string {
	if g.n == 0 {
		return ""
	}
	byDeg := make(map[int][]int)
	var degs []int
	for u := 0; u < g.n; u++ {
		d := g.Degree(u)
		if len(byDeg[d]) == 0 {
			degs = append(degs, d)
		}
		byDeg[d] = append(byDeg[d], u)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	groups := make([][]int, len(degs))
	for i, d := range degs {
		groups[i] = byDeg[d]
	}
	best := make([]byte, g.n*(g.n-1)/2)
	for i := range best {
		best[i] = 2 // larger than any bit value
	}
	g.canonRec(groups, 0, make([]int, 0, g.n), make([]byte, len(best)), best)
	return string(best)
}

// canonRec enumerates orderings as the cartesian product of permutations of
// each degree group and keeps the minimal adjacency bitstring in best.
func (g *Graph) canonRec(groups [][]int, gi int, order []int, cur, best []byte) {
	if gi == len(groups) {
		g.fillBits(order, cur)
		if lessBytes(cur, best) {
			copy(best, cur)
		}
		return
	}
	permute(groups[gi], func(perm []int) {
		g.canonRec(groups, gi+1, append(order, perm...), cur, best)
	})
}

// fillBits writes the upper-triangular adjacency bits of g under the given
// node ordering into out (out[k] in {0,1}).
func (g *Graph) fillBits(order []int, out []byte) {
	k := 0
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			out[k] = 0
			if g.HasEdge(order[i], order[j]) {
				out[k] = 1
			}
			k++
		}
	}
}

func lessBytes(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// permute calls f with every permutation of s (in-place Heap's algorithm;
// the slice passed to f is reused between calls).
func permute(s []int, f func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			f(s)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				s[i], s[k-1] = s[k-1], s[i]
			} else {
				s[0], s[k-1] = s[k-1], s[0]
			}
		}
	}
	if len(s) == 0 {
		f(s)
		return
	}
	rec(len(s))
}

// checkAgainstOracle fails t unless g's key equals the brute force's.
func checkAgainstOracle(t *testing.T, g *Graph) {
	t.Helper()
	if got, want := g.CanonicalKey(), bruteCanonicalKey(g); got != want {
		t.Fatalf("%s: CanonicalKey %v, brute force %v", g, []byte(got), []byte(want))
	}
}

// TestCanonicalKeyMatchesBruteForce: the search returns the brute force's
// bytes on every class with at most 7 nodes, disconnected ones included,
// under random relabellings, and on seeded G(n,p) graphs with 8 and 9
// nodes.
func TestCanonicalKeyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for n := 0; n <= 7; n++ {
		for g := range AllClasses(n, EnumOptions{MaxEdges: -1}) {
			for r := 0; r < 3; r++ {
				h, err := g.Permute(rng.Perm(n))
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, h)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		g, err := RandomGNP(8+i%2, rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, g)
	}
}

// TestCanonicalKeyFixedPoint: the graph read off a key's bits, node i at
// row i, has that key again.
func TestCanonicalKeyFixedPoint(t *testing.T) {
	for n := 0; n <= 7; n++ {
		for _, cl := range AllClasses(n, EnumOptions{MaxEdges: -1}) {
			h := New(n)
			k := 0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if cl.Key[k] == 1 {
						h.insertEdge(i, j)
					}
					k++
				}
			}
			if got := h.CanonicalKey(); got != cl.Key {
				t.Fatalf("n=%d: key %v rebuilds %s, whose key is %v", n, []byte(cl.Key), h, []byte(got))
			}
		}
	}
}

func cycleGraph(n int) *Graph {
	g := New(n)
	for u := 0; u < n && n >= 3; u++ {
		g.insertEdge(u, (u+1)%n)
	}
	return g
}

func completeBipartite(a, b int) *Graph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			g.insertEdge(u, v)
		}
	}
	return g
}

// TestCanonicalKeyWorkBound pins the work on the most symmetric graphs,
// where the brute force visits up to n! orderings: with automorphism
// pruning the search reaches at most n² leaves on K_n, C_n and
// K_{⌊n/2⌋,⌈n/2⌉}.
func TestCanonicalKeyWorkBound(t *testing.T) {
	for n := 2; n <= MaxEnumNodes; n++ {
		for _, g := range []*Graph{New(n).complement(), cycleGraph(n), completeBipartite(n/2, n-n/2)} {
			if _, leaves := canonicalKey(g); leaves > n*n {
				t.Errorf("%s: %d leaves, want at most %d", g, leaves, n*n)
			}
		}
	}
}

// TestCanonicalKeyAllocs: a key costs at most three allocations up to
// MaxEnumNodes nodes, symmetric graphs included.
func TestCanonicalKeyAllocs(t *testing.T) {
	for _, g := range []*Graph{New(MaxEnumNodes).complement(), cycleGraph(10), completeBipartite(5, 6), MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})} {
		if allocs := testing.AllocsPerRun(20, func() { _ = g.CanonicalKey() }); allocs > 3 {
			t.Errorf("%s: %.0f allocs per key, want at most 3", g, allocs)
		}
	}
}

// FuzzCanonicalKey reads a graph on at most 9 nodes and a relabelling from
// the input bytes: the key must equal the brute force's and the relabelled
// copy's.
func FuzzCanonicalKey(f *testing.F) {
	f.Add([]byte{5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{9, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 3, 1, 4, 1, 5})
	f.Add([]byte{8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 10
		bits := data[1:]
		g := New(n)
		k := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if k/8 < len(bits) && bits[k/8]&(1<<uint(k%8)) != 0 {
					g.insertEdge(u, v)
				}
				k++
			}
		}
		checkAgainstOracle(t, g)
		// Fisher–Yates driven by the bytes after the adjacency bits.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		rest := bits[min(len(bits), (k+7)/8):]
		for i := n - 1; i > 0 && len(rest) > 0; i-- {
			j := int(rest[0]) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
			rest = rest[1:]
		}
		h, err := g.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		if g.CanonicalKey() != h.CanonicalKey() {
			t.Fatalf("key changed under relabelling %v of %s", perm, g)
		}
	})
}

// BenchmarkCanonicalKey times keys on the serve-check hit mix (relabelled
// connected 5- and 6-node classes), on its misses (G(8,p), p in
// [0.25, 0.6]) and on symmetric classes (K8, C10, K_{5,5}).
func BenchmarkCanonicalKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var hits []*Graph
	for _, n := range []int{5, 6} {
		for g := range AllClasses(n, EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			h, err := g.Permute(rng.Perm(n))
			if err != nil {
				b.Fatal(err)
			}
			hits = append(hits, h)
		}
	}
	var misses []*Graph
	for len(misses) < 256 {
		g, err := RandomConnectedGNP(8, 0.25+0.35*rng.Float64(), rng)
		if err != nil {
			b.Fatal(err)
		}
		misses = append(misses, g)
	}
	for _, bc := range []struct {
		name   string
		graphs []*Graph
	}{
		{"hit", hits},
		{"miss-n8", misses},
		{"symmetric", []*Graph{New(8).complement(), cycleGraph(10), completeBipartite(5, 5)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = bc.graphs[i%len(bc.graphs)].CanonicalKey()
			}
		})
	}
}

// countAll counts the graphs All(n, opts) yields.
func countAll(n int, opts EnumOptions) int {
	count := 0
	for range All(n, opts) {
		count++
	}
	return count
}

// Known counts of graphs on n nodes up to isomorphism (OEIS A000088) and
// connected graphs (A001349).
func TestEnumerateCounts(t *testing.T) {
	allCounts := map[int]int{1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
	connCounts := map[int]int{1: 1, 2: 1, 3: 2, 4: 6, 5: 21}
	for n := 1; n <= 5; n++ {
		if got := countAll(n, EnumOptions{UpToIso: true, MaxEdges: -1}); got != allCounts[n] {
			t.Fatalf("All(%d, iso) yielded %d, want %d", n, got, allCounts[n])
		}
		if got := countAll(n, EnumOptions{UpToIso: true, ConnectedOnly: true, MaxEdges: -1}); got != connCounts[n] {
			t.Fatalf("All(%d, conn iso) yielded %d, want %d", n, got, connCounts[n])
		}
	}
}

func TestEnumerateLabeled(t *testing.T) {
	// 2^(4 choose 2) = 64 labeled graphs on 4 nodes.
	if got := countAll(4, EnumOptions{MaxEdges: -1}); got != 64 {
		t.Fatalf("labeled All(4) yielded %d, want 64", got)
	}
	// Edge-count bounds: exactly the 3-edge graphs: C(6,3) = 20.
	got := 0
	for g := range All(4, EnumOptions{MinEdges: 3, MaxEdges: 3}) {
		if g.M() != 3 {
			t.Fatalf("edge bound violated: %s", g)
		}
		got++
	}
	if got != 20 {
		t.Fatalf("3-edge labeled All(4) yielded %d, want 20", got)
	}
}

func TestEnumerateTreesMatchFreeTrees(t *testing.T) {
	for n := 1; n <= 6; n++ {
		viaEnum := 0
		for g := range All(n, EnumOptions{UpToIso: true, ConnectedOnly: true, MinEdges: n - 1, MaxEdges: n - 1}) {
			if !g.IsTree() {
				t.Fatalf("connected n-1 edge graph is not a tree: %s", g)
			}
			viaEnum++
		}
		viaFree := 0
		for range AllFreeTreeClasses(n) {
			viaFree++
		}
		if viaEnum != viaFree {
			t.Fatalf("n=%d: All trees = %d, AllFreeTreeClasses = %d", n, viaEnum, viaFree)
		}
	}
}
