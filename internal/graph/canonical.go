package graph

import (
	"sort"
)

// CanonicalKey returns a string that is identical for isomorphic graphs and
// distinct for non-isomorphic ones. It is intended for the small graphs
// (n <= ~8) that the exhaustive searches enumerate; the cost grows with the
// number of degree-respecting orderings.
//
// The key is the lexicographically smallest upper-triangular adjacency
// bitstring over all node orderings that sort degrees in non-increasing
// order. Restricting to degree-sorted orderings is sound because the set of
// admissible orderings depends only on the degree multiset, which is an
// isomorphism invariant.
func (g *Graph) CanonicalKey() string {
	if g.n == 0 {
		return ""
	}
	// Group nodes by degree, descending.
	byDeg := make(map[int][]int)
	degs := make([]int, 0, g.n)
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
	order := make([]int, 0, g.n)
	cur := make([]byte, len(best))
	g.canonRec(groups, 0, order, cur, best)
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
		next := append(order, perm...)
		g.canonRec(groups, gi+1, next, cur, best)
	})
}

// fillBits writes the upper-triangular adjacency bits of g under the given
// node ordering into out (out[k] in {0,1}).
func (g *Graph) fillBits(order []int, out []byte) {
	k := 0
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if g.HasEdge(order[i], order[j]) {
				out[k] = 1
			} else {
				out[k] = 0
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
