package graph

import "math/bits"

// This file implements the symmetry pruning behind the isomorphism-free
// enumeration in All: instead of canonicalizing every labeled graph and
// deduplicating through a seen-set, each candidate edge mask is tested
// directly for being the *minimal mask* of its isomorphism class and
// non-minimal masks are skipped early.
//
// The enumeration in All visits edge masks in increasing numeric order, so
// the representative it historically yielded per class — the first mask
// whose canonical key was unseen — is exactly the class member with the
// minimal mask. "Is this mask minimal in its orbit?" is therefore a pure
// predicate of the labeled graph: no cross-mask state, no seen-set, and no
// canonical key computation for the (vast majority of) skipped masks.
//
// The predicate runs a branch-and-bound over relabelings. Masks compare by
// their most significant bit first, and the pair order (u-major, v
// ascending) makes the bits of pair (u,v) for u = n-1 down to 0 the most
// significant run, so the search assigns labels from n-1 downward: placing
// label l fixes the bits of all pairs (l, v) with v > l. A branch whose
// bits exceed the graph's own is pruned; one that goes below proves the
// mask non-minimal and aborts the whole search; branches that stay equal
// continue. The permutations that survive to a full assignment are exactly
// the automorphisms of the graph, so the search also yields |Aut(g)| — and
// with it the orbit size n!/|Aut(g)|, the number of labeled graphs in the
// class — for free.

// MaxEnumNodes bounds the node count of the mask-based enumeration:
// AllClasses yields nothing above it. Masks live in an int, so
// n(n-1)/2 <= 62 — the bound is generous next to the practical n <= 7 of
// exhaustive sweeps.
const MaxEnumNodes = 11

// minMaskAut reports whether the identity labeling of the graph given by
// single-word adjacency rows attains the minimal edge mask over all n!
// relabelings and, when it does, the order of the graph's automorphism
// group. For non-minimal masks it returns (false, 0) as soon as any
// relabeling proves a smaller mask exists.
func minMaskAut(rows []uint64, n int) (minimal bool, aut int64) {
	var vert [MaxEnumNodes]int
	var used uint64
	smaller := false
	var rec func(l int)
	rec = func(l int) {
		if l < 0 {
			aut++
			return
		}
		for x := 0; x < n; x++ {
			if used&(1<<uint(x)) != 0 {
				continue
			}
			// Bits of pairs (l, v), v = n-1 down to l+1, under this
			// assignment versus the identity labeling.
			cmp := 0
			for v := n - 1; v > l; v-- {
				b := (rows[x] >> uint(vert[v])) & 1
				own := (rows[l] >> uint(v)) & 1
				if b != own {
					if b < own {
						cmp = -1
					} else {
						cmp = 1
					}
					break
				}
			}
			if cmp < 0 {
				smaller = true
				return
			}
			if cmp > 0 {
				continue
			}
			vert[l] = x
			used |= 1 << uint(x)
			rec(l - 1)
			used &^= 1 << uint(x)
			if smaller {
				return
			}
		}
	}
	rec(n - 1)
	if smaller {
		return false, 0
	}
	return true, aut
}

// connectedRows reports connectivity of the single-word adjacency rows by
// iterated closure of the reach set from node 0, allocating nothing.
func connectedRows(rows []uint64, n int) bool {
	if n <= 1 {
		return true
	}
	reach := uint64(1)
	for {
		next := reach
		for f := reach; f != 0; f &= f - 1 {
			next |= rows[bits.TrailingZeros64(f)]
		}
		if next == reach {
			return bits.OnesCount64(reach) == n
		}
		reach = next
	}
}

// factorial returns n! in int64; exact for n <= 20, which covers every
// enumerable size by a wide margin.
func factorial(n int) int64 {
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}
