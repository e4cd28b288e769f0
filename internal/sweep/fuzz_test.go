package sweep

import (
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/store"
)

// xorshift is a tiny deterministic PRNG so fuzz inputs fully determine the
// derived permutations and edge toggles.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x) + 0x9e3779b97f4a7c15 // avoid the all-zero fixed point
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// permFromSeed derives a permutation of 0..n-1 (Fisher–Yates).
func permFromSeed(n int, seed uint64) []int {
	x := xorshift(seed)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(x.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// bruteIsomorphic decides isomorphism by trying every relabeling — the
// ground truth the canonical key is fuzzed against. Exponential; callers
// keep n ≤ 6.
func bruteIsomorphic(g, h *graph.Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	perm := make([]int, g.N())
	for i := range perm {
		perm[i] = i
	}
	for {
		mapped, err := g.Permute(perm)
		if err != nil {
			panic(err)
		}
		if mapped.Equal(h) {
			return true
		}
		if !nextPermutation(perm) {
			return false
		}
	}
}

// nextPermutation advances perm in lexicographic order, reporting false
// after the last one.
func nextPermutation(perm []int) bool {
	i := len(perm) - 2
	for i >= 0 && perm[i] >= perm[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(perm) - 1
	for perm[j] <= perm[i] {
		j--
	}
	perm[i], perm[j] = perm[j], perm[i]
	for l, r := i+1, len(perm)-1; l < r; l, r = l+1, r-1 {
		perm[l], perm[r] = perm[r], perm[l]
	}
	return true
}

// FuzzCanonicalCacheKey hunts collisions in the canonical-form cache key:
// relabeling a graph must never change its key (else the cache misses and,
// worse, two entries could disagree), and toggling an edge must change the
// key exactly when it changes the isomorphism class (else the cache would
// serve one class the verdicts of another). It also drives the Cache
// itself: a verdict stored under one labeling must be served — unchanged —
// under any other.
//
// The seed corpus mirrors internal/graph/fuzz_test.go, so the same encoded
// graphs that exercise Decode also exercise the cache keys.
func FuzzCanonicalCacheKey(f *testing.F) {
	f.Add("n 3\n0 1\n1 2\n", uint64(0))
	f.Add("n 0\n", uint64(1))
	f.Add("# comment\nn 2\n\n0 1\n", uint64(7))
	f.Add("n 5\n0 1\n0 2\n0 3\n0 4\n", uint64(42))
	f.Add("n -1\n", uint64(3))
	f.Add("0 1\nn 2\n", uint64(5))
	f.Add("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n", uint64(11))
	f.Fuzz(func(t *testing.T, input string, seed uint64) {
		g, err := graph.Decode(input)
		if err != nil || g.N() < 2 || g.N() > 6 {
			return
		}
		x := xorshift(seed)
		key := g.CanonicalKey()

		// Completeness: every relabeling shares the key.
		perm := permFromSeed(g.N(), x.next())
		h, err := g.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		if h.CanonicalKey() != key {
			t.Fatalf("relabeling changed the canonical key:\n%s\nperm %v -> %s", g, perm, h)
		}

		// Soundness: an edge toggle changes the key iff it changes the class.
		u := int(x.next() % uint64(g.N()))
		v := int(x.next() % uint64(g.N()))
		if u != v {
			toggled := g.Clone()
			if !toggled.RemoveEdge(u, v) {
				toggled.AddEdge(u, v)
			}
			sameClass := bruteIsomorphic(g, toggled)
			sameKey := toggled.CanonicalKey() == key
			if sameClass != sameKey {
				t.Fatalf("canonical key collision: iso=%v keyEqual=%v\n%s\nvs\n%s",
					sameClass, sameKey, g, toggled)
			}
		}

		// Cache semantics: a certificate stored under g's labeling is
		// served under h's, and matches h's direct evaluation.
		alpha := game.AFrac(int64(1+x.next()%8), int64(1+x.next()%4))
		gm, err := game.NewGame(g.N(), alpha)
		if err != nil {
			t.Fatal(err)
		}
		stable := eq.Check(gm, g, eq.PS).Stable
		cache := NewCache()
		cache.PutCert(store.CertKey{Canon: key, Concept: eq.PS}, eq.NewEvaluator().Certify(gm, g.Clone(), eq.PS))
		got, ok := cache.GetCert(store.CertKey{Canon: h.CanonicalKey(), Concept: eq.PS})
		if !ok || got.Contains(alpha) != stable {
			t.Fatalf("cache lookup under relabeling: ok=%v got=%v want=%v", ok, got, stable)
		}
		if direct := eq.Check(gm, h, eq.PS).Stable; direct != stable {
			t.Fatalf("stability is not label-invariant: %v vs %v\n%s\nvs\n%s", stable, direct, g, h)
		}
	})
}
