package graph

import "iter"

// EnumOptions controls small-graph enumeration.
type EnumOptions struct {
	// ConnectedOnly skips disconnected graphs.
	ConnectedOnly bool
	// UpToIso yields one representative per isomorphism class instead of
	// every labeled graph.
	UpToIso bool
	// MinEdges/MaxEdges bound the edge count; MaxEdges < 0 means no upper
	// bound.
	MinEdges, MaxEdges int
}

// Class describes one isomorphism class yielded by AllClasses or
// AllFreeTreeClasses.
type Class struct {
	// Key is the canonical form of the class: CanonicalKey for graphs,
	// FreeTreeKey for trees. Identical for isomorphic graphs, distinct
	// otherwise.
	Key string
	// Orbit is the class's orbit size n!/|Aut|: the number of labeled
	// graphs on n nodes isomorphic to the representative. Summed over an
	// enumeration it recovers the labeled count the symmetry pruning
	// skipped.
	Orbit int64
}

// All returns an iterator over the graphs on n nodes matching opts, paired
// with each graph's canonical key (empty when UpToIso is false, in which
// case no canonical form is computed). Breaking out of the range stops the
// enumeration immediately: no further graphs are generated or canonicalized.
// The caller owns each yielded graph. Intended for n <= 7: the labeled
// space has 2^(n(n-1)/2) members; isomorphism reduction prunes non-minimal
// masks by symmetry (see AllClasses) and computes one CanonicalKey per
// class.
func All(n int, opts EnumOptions) iter.Seq2[*Graph, string] {
	return func(yield func(*Graph, string) bool) {
		if opts.UpToIso {
			for g, cl := range AllClasses(n, opts) {
				if !yield(g, cl.Key) {
					return
				}
			}
			return
		}
		if n < 0 {
			return
		}
		pairs := allPairs(n)
		total := 1 << len(pairs)
		maxE := opts.MaxEdges
		if maxE < 0 {
			maxE = len(pairs)
		}
		for mask := 0; mask < total; mask++ {
			m := popcount(mask)
			if m < opts.MinEdges || m > maxE {
				continue
			}
			g := graphFromMask(n, pairs, mask)
			if opts.ConnectedOnly && !g.Connected() {
				continue
			}
			if !yield(g, "") {
				return
			}
		}
	}
}

// AllClasses returns an iterator over one representative per isomorphism
// class of the graphs on n nodes matching opts (UpToIso is implied), paired
// with the class's canonical key and orbit size. The representative of each
// class is its member with the minimal edge mask — the same graph, in the
// same order, that the historical seen-set reduction yielded — but
// non-minimal masks are skipped by an early-aborting symmetry test instead
// of being canonicalized and deduplicated, so only one canonical form is
// computed per class and the enumeration holds no per-class state. It
// yields nothing for n > MaxEnumNodes.
func AllClasses(n int, opts EnumOptions) iter.Seq2[*Graph, Class] {
	return func(yield func(*Graph, Class) bool) {
		if n < 0 || n > MaxEnumNodes {
			return
		}
		pairs := allPairs(n)
		total := 1 << len(pairs)
		maxE := opts.MaxEdges
		if maxE < 0 {
			maxE = len(pairs)
		}
		nfact := factorial(n)
		var rows [MaxEnumNodes]uint64
		for mask := 0; mask < total; mask++ {
			m := popcount(mask)
			if m < opts.MinEdges || m > maxE {
				continue
			}
			for u := 0; u < n; u++ {
				rows[u] = 0
			}
			for i, e := range pairs {
				if mask&(1<<i) != 0 {
					rows[e.U] |= 1 << uint(e.V)
					rows[e.V] |= 1 << uint(e.U)
				}
			}
			if opts.ConnectedOnly && !connectedRows(rows[:n], n) {
				continue
			}
			minimal, aut := minMaskAut(rows[:n], n)
			if !minimal {
				continue
			}
			g := graphFromMask(n, pairs, mask)
			if !yield(g, Class{Key: g.CanonicalKey(), Orbit: nfact / aut}) {
				return
			}
		}
	}
}

func allPairs(n int) []Edge {
	pairs := make([]Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, Edge{U: u, V: v})
		}
	}
	return pairs
}

func graphFromMask(n int, pairs []Edge, mask int) *Graph {
	g := New(n)
	for i, e := range pairs {
		if mask&(1<<i) != 0 {
			g.insertEdge(e.U, e.V)
		}
	}
	return g
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
