package graph

import (
	"fmt"
	"math/rand"
)

// RandomTree returns a uniformly random labeled tree on n nodes by decoding
// a random Prüfer sequence.
func RandomTree(n int, rng *rand.Rand) *Graph {
	if n <= 0 {
		return New(0)
	}
	if n <= 2 {
		g := New(n)
		if n == 2 {
			g.insertEdge(0, 1)
		}
		return g
	}
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	g, err := PruferDecode(n, seq)
	if err != nil {
		// The sequence is valid by construction; a failure is a bug.
		panic(err)
	}
	return g
}

// RandomGraph returns a G(n, m) graph: m distinct edges chosen uniformly.
// It reports an error when m exceeds the number of node pairs.
func RandomGraph(n, m int, rng *rand.Rand) (*Graph, error) {
	maxM := n * (n - 1) / 2
	if m < 0 || m > maxM {
		return nil, fmt.Errorf("graph: %d edges out of range [0,%d] for n=%d", m, maxM, n)
	}
	pairs := allPairs(n)
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	g := New(n)
	for _, e := range pairs[:m] {
		g.insertEdge(e.U, e.V)
	}
	return g, nil
}

// RandomGNP returns an Erdős–Rényi G(n, p) graph: every node pair is an
// edge independently with probability p. p outside [0,1] is an error.
func RandomGNP(n int, p float64, rng *rand.Rand) (*Graph, error) {
	if !(p >= 0 && p <= 1) { // rejects NaN too
		return nil, fmt.Errorf("graph: edge probability %v outside [0,1]", p)
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.insertEdge(u, v)
			}
		}
	}
	return g, nil
}

// RandomConnectedGNP returns a G(n, p) sample patched up to connectivity:
// after sampling, every component beyond the first is joined to an
// earlier one by a single uniformly chosen cross edge. For p above the
// ln(n)/n connectivity threshold the patch almost never fires and the
// distribution is essentially G(n, p); below it the result is the natural
// "G(n, p) plus a spanning forest of shortcuts" initial state the
// simulation workload wants.
func RandomConnectedGNP(n int, p float64, rng *rand.Rand) (*Graph, error) {
	g, err := RandomGNP(n, p, rng)
	if err != nil {
		return nil, err
	}
	comps := g.Components()
	for i := 1; i < len(comps); i++ {
		// Join component i to a uniform node of the already-connected
		// prefix (components 0..i-1 are merged once their bridge lands).
		u := comps[i][rng.Intn(len(comps[i]))]
		prev := comps[rng.Intn(i)]
		v := prev[rng.Intn(len(prev))]
		g.insertEdge(u, v)
	}
	return g, nil
}

// RandomStar returns a star on n nodes with a uniformly chosen center.
func RandomStar(n int, rng *rand.Rand) *Graph {
	g := New(n)
	if n < 2 {
		return g
	}
	c := rng.Intn(n)
	for v := 0; v < n; v++ {
		if v != c {
			g.insertEdge(c, v)
		}
	}
	return g
}

// RandomConnectedGraph returns a connected graph on n nodes with m >= n-1
// edges: a random spanning tree plus m-(n-1) uniformly chosen extra edges.
func RandomConnectedGraph(n, m int, rng *rand.Rand) (*Graph, error) {
	maxM := n * (n - 1) / 2
	if n > 0 && (m < n-1 || m > maxM) {
		return nil, fmt.Errorf("graph: %d edges out of range [%d,%d] for connected n=%d", m, n-1, maxM, n)
	}
	g := RandomTree(n, rng)
	var nonEdges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				nonEdges = append(nonEdges, Edge{U: u, V: v})
			}
		}
	}
	rng.Shuffle(len(nonEdges), func(i, j int) { nonEdges[i], nonEdges[j] = nonEdges[j], nonEdges[i] })
	for _, e := range nonEdges[:m-(n-1)] {
		g.insertEdge(e.U, e.V)
	}
	return g, nil
}
