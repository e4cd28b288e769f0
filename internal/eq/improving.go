package eq

import (
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// Improving reports whether applying m to g strictly lowers the cost of
// every actor of m. The graph is restored before returning. Moves that do
// not fit the graph report false.
//
// It lets experiments certify specific witness moves on instances too
// large for the exhaustive scans (e.g. the Figure 5 and Figure 7 gadgets).
func Improving(gm game.Game, g *graph.Graph, m move.Move) bool {
	var c checker
	c.reset(gm, g)
	return c.tryMove(m)
}

// ImprovingBound evaluates a candidate move against the state bound by the
// last Bind without recomputing the baseline costs: every probe applies
// and reverts the move, so the baseline stays valid across a whole scan of
// candidates over one unchanged state. It must not be called before Bind,
// and the bound graph must not have been mutated since.
func (ev *Evaluator) ImprovingBound(m move.Move) bool {
	return ev.c.tryMove(m)
}

// CostDelta applies m, returns each actor's (before, after) costs in actor
// order, and restores the graph. The error reports a move that does not fit.
func CostDelta(gm game.Game, g *graph.Graph, m move.Move) (before, after []game.Cost, err error) {
	actors := m.Actors()
	before = make([]game.Cost, len(actors))
	for i, u := range actors {
		before[i] = gm.AgentCost(g, u)
	}
	undo, err := m.Apply(g)
	if err != nil {
		return nil, nil, err
	}
	defer undo()
	after = make([]game.Cost, len(actors))
	for i, u := range actors {
		after[i] = gm.AgentCost(g, u)
	}
	return before, after, nil
}
