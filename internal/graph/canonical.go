package graph

import "bytes"

// CanonicalKey returns a string that is identical for isomorphic graphs and
// distinct for non-isomorphic ones.
//
// The key is the lexicographically smallest upper-triangular adjacency
// bitstring (row-major, one byte 0 or 1 per pair) over all node orderings
// that sort degrees in non-increasing order. Restricting to degree-sorted
// orderings is sound because the set of admissible orderings depends only
// on the degree multiset, which is an isomorphism invariant.
//
// The minimum is found by individualize-and-refine with branch-and-bound
// and automorphism pruning (after McKay & Piperno, "Practical graph
// isomorphism, II", 2014):
//
//   - Start. The cells of an ordered partition of the positions are the
//     degree groups, in descending degree.
//   - Branch. At depth i, positions 0..i-1 hold one node each; branch on
//     each node x of the cell that holds position i.
//   - Refine. Split every later cell stably: non-neighbours of x first,
//     then neighbours. Nodes of one cell then agree on their adjacency to
//     every placed node, so rows 0..i of the string are fixed. Row i is
//     the smallest any ordering with this prefix can give, because it
//     lists each cell's zeros first; an ordering that leaves the
//     partition has a strictly larger row than one that reorders it
//     within its cells, so the minimum is a leaf of this tree.
//   - Prune. Cut a branch when its prefix through row i exceeds that of
//     the best key found so far.
//   - Automorphisms. A leaf that equals the best yields the automorphism
//     γ: bestOrder[j] ↦ order[j], which fixes their common prefix of
//     length d pointwise. The refinement commutes with automorphisms, so
//     γ maps the (finished) subtree of the best leaf's branch at depth d
//     onto the current branch: the search resumes at depth d. At each
//     node, a candidate in the orbit of an explored sibling under the
//     automorphisms found so far that fix the node's prefix pointwise is
//     skipped, for the same reason.
//
// Pruning only discards subtrees whose leaves are no smaller than the
// best, so the result is exactly the brute-force minimum over every
// degree-sorted ordering. The search allocates three times per call.
func (g *Graph) CanonicalKey() string {
	key, _ := canonicalKey(g)
	return key
}

// canonicalKey returns g's canonical key and the number of leaves (full
// orderings) the search reached.
func canonicalKey(g *Graph) (key string, leaves int) {
	n := g.n
	if n < 2 {
		return "", 0
	}
	nn := n * n
	ints := make([]int32, 3*nn+3*n)
	pairs := n * (n - 1) / 2
	keys := make([]byte, 2*pairs)
	s := canonSearch{
		g:         g,
		n:         n,
		perm:      ints[:nn],
		end:       ints[nn : 2*nn],
		orbit:     ints[2*nn : 3*nn],
		bestOrder: ints[3*nn : 3*nn+n],
		tmp:       ints[3*nn+n : 3*nn+2*n],
		started:   ints[3*nn+2*n:],
		cur:       keys[:pairs],
		best:      keys[pairs:],
	}
	for i := range s.best {
		s.best[i] = 2 // larger than any bit value
	}
	// Level 0: nodes by descending degree, stably (insertion sort), and
	// one cell per degree group.
	top := s.perm[:n]
	for u := 0; u < n; u++ {
		d := g.Degree(u)
		p := u
		for p > 0 && g.Degree(int(top[p-1])) < d {
			top[p] = top[p-1]
			p--
		}
		top[p] = int32(u)
	}
	for p := 0; p < n; {
		q := p + 1
		for q < n && g.Degree(int(top[q])) == g.Degree(int(top[p])) {
			q++
		}
		s.end[p] = int32(q)
		p = q
	}
	s.search(0, false)
	return string(s.best), s.leaves
}

// canonSearch is the state of one canonicalKey search. perm, end and
// orbit hold one row of n entries per depth k, for the node on the
// current path that has fixed positions 0..k-1.
type canonSearch struct {
	g *Graph
	n int
	// perm[k*n+p] is the node at position p; for p >= k, end[k*n+p] is
	// the end of the cell that starts at position p.
	perm, end []int32
	// orbit[k*n:] is a union-find forest of the orbits of the
	// automorphisms that fix node k's prefix; started[k] is 0 until the
	// first one is merged.
	orbit, started []int32
	bestOrder, tmp []int32
	cur, best      []byte
	updates        int // times best was replaced
	leaves         int
}

// search explores the node at depth k. less reports that cur's rows
// 0..k-1 are already smaller than best's. It returns the depth at which
// the search resumes: k or more to continue with the caller's next
// candidate, less than k to unwind to that ancestor.
func (s *canonSearch) search(k int, less bool) int {
	n := s.n
	if k == n-1 {
		return s.leaf(less)
	}
	lvl := s.perm[k*n : (k+1)*n]
	ends := s.end[k*n : (k+1)*n]
	next := s.perm[(k+1)*n : (k+2)*n]
	nextEnd := s.end[(k+1)*n : (k+2)*n]
	off := k*(n-1) - k*(k-1)/2
	row := s.cur[off : off+n-1-k]
	brow := s.best[off : off+n-1-k]
	s.started[k] = 0
	copy(next[:k], lvl[:k])
	for c, e := k, int(ends[k]); c < e; c++ {
		x := int(lvl[c])
		if s.inExploredOrbit(k, lvl[k:c], x) {
			continue
		}
		next[k] = int32(x)
		pos := k + 1
		for p := k; p < n; {
			q := int(ends[p])
			start, nb := pos, 0
			for _, v := range lvl[p:q] {
				switch {
				case int(v) == x:
				case s.g.HasEdge(x, int(v)):
					s.tmp[nb] = v
					nb++
				default:
					next[pos] = v
					pos++
				}
			}
			mid := pos
			pos += copy(next[pos:], s.tmp[:nb])
			for j := start; j < mid; j++ {
				row[j-k-1] = 0
			}
			for j := mid; j < pos; j++ {
				row[j-k-1] = 1
			}
			if mid > start {
				nextEnd[start] = int32(mid)
			}
			if pos > mid {
				nextEnd[mid] = int32(pos)
			}
			p = q
		}
		childLess := less
		if !less {
			switch bytes.Compare(row, brow) {
			case 1:
				continue
			case -1:
				childLess = true
			}
		}
		updates := s.updates
		resume := s.search(k+1, childLess)
		if s.updates != updates {
			// best now runs through this node: its prefix equals ours.
			less = false
		}
		if resume < k {
			return resume
		}
	}
	return k
}

// leaf handles a full ordering, perm's last level, whose string is no
// larger than best: a smaller one replaces best, an equal one yields an
// automorphism and sends the search back to where the two orderings part.
func (s *canonSearch) leaf(less bool) int {
	n := s.n
	s.leaves++
	order := s.perm[(n-1)*n:]
	if less {
		copy(s.best, s.cur)
		copy(s.bestOrder, order)
		s.updates++
		return n
	}
	d := 0
	for s.bestOrder[d] == order[d] {
		d++
	}
	for k := 0; k <= d; k++ {
		forest := s.orbit[k*n : (k+1)*n]
		if s.started[k] == 0 {
			for v := range forest {
				forest[v] = int32(v)
			}
			s.started[k] = 1
		}
		for j := d; j < n; j++ {
			a, b := orbitRoot(forest, s.bestOrder[j]), orbitRoot(forest, order[j])
			if a != b {
				forest[a] = b
			}
		}
	}
	return d
}

// inExploredOrbit reports whether x lies in the orbit of one of the
// explored siblings under the automorphisms found for node k.
func (s *canonSearch) inExploredOrbit(k int, explored []int32, x int) bool {
	if s.started[k] == 0 {
		return false
	}
	forest := s.orbit[k*s.n : (k+1)*s.n]
	r := orbitRoot(forest, int32(x))
	for _, y := range explored {
		if orbitRoot(forest, y) == r {
			return true
		}
	}
	return false
}

// orbitRoot returns the root of v's tree in a union-find forest, halving
// the path on the way.
func orbitRoot(forest []int32, v int32) int32 {
	for forest[v] != v {
		forest[v] = forest[forest[v]]
		v = forest[v]
	}
	return v
}
