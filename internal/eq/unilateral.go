package eq

import (
	"fmt"

	"repro/internal/game"
	"repro/internal/graph"
)

// The ownership-resolved NE check below is the only code specific to the
// unilateral NCG, the paper's baseline. Ownership-free unilateral checks
// are Check or Certify under unilateral consent.

// NCGStrategyChange is the witness of a unilateral NE violation: agent U
// replaces her bought-edge set with Buy.
type NCGStrategyChange struct {
	U   int
	Buy []int
}

// Apply is unsupported: NCG strategy changes act on (graph, ownership)
// pairs, not bare graphs. It exists to satisfy move.Move for witness
// reporting.
func (m NCGStrategyChange) Apply(*graph.Graph) (func(), error) {
	return nil, fmt.Errorf("move: NCG strategy change cannot apply to a bare graph")
}

// Actors implements move.Move.
func (m NCGStrategyChange) Actors() []int { return []int{m.U} }

func (m NCGStrategyChange) String() string {
	return fmt.Sprintf("ncg-strategy(%d buys %v)", m.U, m.Buy)
}

// CheckUnilateralNE reports whether (g, o) is a pure Nash equilibrium of
// the unilateral NCG: no agent improves by replacing her entire bought-edge
// set. The check enumerates all 2^(n-1) strategies per agent and is
// intended for the small Section 2 gadgets; it panics past the
// move-space guard (n-1 > 30 targets).
func CheckUnilateralNE(gm game.Game, g *graph.Graph, o *game.Ownership) Result {
	n := g.N()
	for u := 0; u < n; u++ {
		before := gm.NCGAgentCost(g, o, u)
		// Edges present independently of u's strategy: all edges not owned
		// by u (owned edges of others persist even towards u).
		base := graph.New(n)
		for _, e := range g.Edges() {
			owner, _ := o.Owner(e.U, e.V)
			if owner != u {
				base.AddEdge(e.U, e.V)
			}
		}
		var targets []int
		for v := 0; v < n; v++ {
			if v != u {
				targets = append(targets, v)
			}
		}
		guardMoveSpace(len(targets))
		for mask := 0; mask < 1<<len(targets); mask++ {
			buy := subsetOf(targets, mask)
			trial := base.Clone()
			for _, v := range buy {
				trial.AddEdge(u, v) // no-op if the other side already buys it
			}
			sum, unreachable := trial.TotalDist(u)
			after := game.Cost{
				Unreachable: int64(unreachable),
				Buy:         int64(len(buy)),
				Dist:        sum,
			}
			if after.Less(before, gm.Alpha) {
				return unstable(NCGStrategyChange{U: u, Buy: buy})
			}
		}
	}
	return stable()
}

// ExistsUnilateralNE reports whether some edge ownership makes g a pure NE
// of the unilateral NCG, returning the first stabilizing ownership in
// AllOwnerships order if so. It enumerates up to 2^m ownerships; for small
// gadget graphs.
func ExistsUnilateralNE(gm game.Game, g *graph.Graph) (*game.Ownership, bool) {
	for o := range game.AllOwnerships(g) {
		if CheckUnilateralNE(gm, g, o).Stable {
			return o.Clone(), true
		}
	}
	return nil, false
}
