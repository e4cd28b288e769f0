package core

import (
	"fmt"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/tree"
)

// TreeAllDist returns dist(u) for every node of a tree in O(n) total time
// using the standard rerooting technique, enabling exact social cost and
// max-agent-cost computation on the 10^5-node families of Section 3.3.
func TreeAllDist(g *graph.Graph) ([]int64, error) {
	if !g.IsTree() {
		return nil, fmt.Errorf("core: TreeAllDist on non-tree (n=%d m=%d)", g.N(), g.M())
	}
	n := g.N()
	rt, err := tree.Root(g, 0)
	if err != nil {
		return nil, err
	}
	// down[u]: sum of distances from u to nodes in T_u.
	down := make([]int64, n)
	order := make([]int, 0, n)
	order = append(order, 0)
	for i := 0; i < len(order); i++ {
		order = append(order, rt.Children(order[i])...)
	}
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		for _, c := range rt.Children(u) {
			down[u] += down[c] + int64(rt.SubtreeSize(c))
		}
	}
	// total[u] via rerooting: total[child] =
	// total[u] + (n - 2·size(child)).
	total := make([]int64, n)
	total[0] = down[0]
	for _, u := range order {
		for _, c := range rt.Children(u) {
			total[c] = total[u] + int64(n) - 2*int64(rt.SubtreeSize(c))
		}
	}
	return total, nil
}

// TreeSocialCost returns the exact social cost of a tree at price alpha.
func TreeSocialCost(gm game.Game, g *graph.Graph) (game.Cost, error) {
	dists, err := TreeAllDist(g)
	if err != nil {
		return game.Cost{}, err
	}
	var c game.Cost
	for u, d := range dists {
		c.Dist += d
		c.Buy += int64(g.Degree(u))
	}
	return c, nil
}

// TreeRho returns ρ(G) for a tree in O(n) time.
func TreeRho(gm game.Game, g *graph.Graph) (float64, error) {
	c, err := TreeSocialCost(gm, g)
	if err != nil {
		return 0, err
	}
	return gm.RhoOfCost(c), nil
}

// TreeMaxAgentCost returns the maximal agent cost α·deg(u) + dist(u) over
// all nodes of a tree in O(n) time.
func TreeMaxAgentCost(gm game.Game, g *graph.Graph) (float64, error) {
	dists, err := TreeAllDist(g)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for u, d := range dists {
		v := gm.Alpha.Float()*float64(g.Degree(u)) + float64(d)
		if v > worst {
			worst = v
		}
	}
	return worst, nil
}
