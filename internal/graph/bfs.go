package graph

// Unreachable is the distance reported for node pairs in different connected
// components. Callers in the game layer translate it into the paper's
// lexicographic "M" semantics; it is negative so that accidentally summing
// it with real distances fails loudly in tests.
const Unreachable = -1

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph are connected. Graphs on up to 64 nodes answer with the
// word-at-a-time reach closure and allocate nothing.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	if g.bits != nil && g.words == 1 {
		return g.connectedWord()
	}
	_, unreachable, _ := g.BFSAggregates(0, &BFSScratch{})
	return unreachable == 0
}

// Components returns the connected components as sorted node slices, ordered
// by their smallest node.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.neigh[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sortInts(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Eccentricity returns the maximum finite distance from u, or Unreachable if
// some node cannot be reached.
func (g *Graph) Eccentricity(u int) int {
	if _, unreachable, ecc := g.BFSAggregates(u, &BFSScratch{}); unreachable == 0 {
		return ecc
	}
	return Unreachable
}

// Diameter returns the maximum eccentricity, or Unreachable for
// disconnected graphs.
func (g *Graph) Diameter() int {
	diam := 0
	for u := 0; u < g.n; u++ {
		e := g.Eccentricity(u)
		if e == Unreachable {
			return Unreachable
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// TotalDist returns the sum of distances from u to all reachable nodes and
// the count of unreachable nodes. This is the dist(u) of the paper split
// into its finite part and the part the paper prices at M.
func (g *Graph) TotalDist(u int) (sum int64, unreachable int) {
	sum, unreachable, _ = g.BFSAggregates(u, &BFSScratch{})
	return sum, unreachable
}

// IsTree reports whether g is connected with exactly n-1 edges.
func (g *Graph) IsTree() bool {
	return g.n > 0 && g.m == g.n-1 && g.Connected()
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
