package graph

import (
	"math/rand"
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
