package game

import (
	"fmt"
	"iter"

	"repro/internal/graph"
)

// Ownership assigns every edge of a graph to exactly one incident agent,
// capturing a unilateral NCG strategy vector as in Section 2 of the paper
// ("each edge of the graph G is owned by exactly one incident agent").
type Ownership struct {
	owner map[graph.Edge]int
}

// NewOwnership builds an ownership for g from owner[e] entries. Every edge
// of g must be assigned to one of its endpoints.
func NewOwnership(g *graph.Graph, owner map[graph.Edge]int) (*Ownership, error) {
	o := &Ownership{owner: make(map[graph.Edge]int, g.M())}
	for _, e := range g.Edges() {
		w, ok := owner[e.Normalize()]
		if !ok {
			return nil, fmt.Errorf("game: edge %v has no owner", e)
		}
		if w != e.U && w != e.V {
			return nil, fmt.Errorf("game: owner %d of edge %v is not an endpoint", w, e)
		}
		o.owner[e.Normalize()] = w
	}
	if len(owner) != g.M() {
		return nil, fmt.Errorf("game: %d ownership entries for %d edges", len(owner), g.M())
	}
	return o, nil
}

// Owner returns the agent that pays for edge uv.
func (o *Ownership) Owner(u, v int) (int, bool) {
	w, ok := o.owner[graph.Edge{U: u, V: v}.Normalize()]
	return w, ok
}

// Bought returns the number of edges u pays for.
func (o *Ownership) Bought(u int) int {
	n := 0
	for _, w := range o.owner {
		if w == u {
			n++
		}
	}
	return n
}

// Clone returns a deep copy.
func (o *Ownership) Clone() *Ownership {
	c := &Ownership{owner: make(map[graph.Edge]int, len(o.owner))}
	for e, w := range o.owner {
		c.owner[e] = w
	}
	return c
}

// AllOwnerships returns an iterator over every possible ownership of g's
// edges. There are 2^m of them; intended for the small gadgets of Section
// 2. The yielded ownership is reused: clone it to keep it past the step.
func AllOwnerships(g *graph.Graph) iter.Seq[*Ownership] {
	return func(yield func(*Ownership) bool) {
		edges := g.Edges()
		o := &Ownership{owner: make(map[graph.Edge]int, len(edges))}
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == len(edges) {
				return yield(o)
			}
			e := edges[i]
			o.owner[e] = e.U
			if !rec(i + 1) {
				return false
			}
			o.owner[e] = e.V
			return rec(i + 1)
		}
		rec(0)
	}
}

// NCGAgentCost returns agent u's cost in the unilateral NCG: α times the
// edges u owns, plus total distance (lexicographic disconnection as in the
// BNCG).
func (gm Game) NCGAgentCost(g *graph.Graph, o *Ownership, u int) Cost {
	sum, unreachable := g.TotalDist(u)
	return Cost{
		Unreachable: int64(unreachable),
		Buy:         int64(o.Bought(u)),
		Dist:        sum,
	}
}
