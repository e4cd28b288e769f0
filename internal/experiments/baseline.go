package experiments

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/ncg"
	"repro/internal/sweep"
)

func init() {
	register("NCG-COMPARE", runNCGCompare)
	register("APP-B", runAppendixB)
}

// runNCGCompare reproduces the paper's motivating comparison (Section 1):
// the bilateral game under Pairwise Stability admits socially worse trees
// than the unilateral NCG under NE — "the required cooperation for
// establishing edges leads to socially worse equilibrium states".
// Both sides are computed exhaustively over all free trees.
func runNCGCompare(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "NCG-COMPARE", Title: "Motivation: bilateral PS vs unilateral NE tree PoA"}
	n := 7
	if s == Full {
		n = 8
	}
	alphas := []game.Alpha{game.A(2), game.A(4), game.A(int64(n)), game.A(int64(2 * n))}
	r.addLinef("exhaustive tree PoA, n=%d:", n)
	r.addLinef("%8s %14s %14s", "alpha", "BNCG-PS", "NCG-NE")
	worstGap := 0.0
	cache := sweep.NewCache()
	for _, alpha := range alphas {
		ps, err := core.WorstTree(ctx, n, alpha, eq.PS, cache)
		if err != nil {
			r.addCheck("PS search", false, "%v", err)
			return r
		}
		neRho, neStable, err := ncg.TreePoA(n, alpha)
		if err != nil {
			r.addCheck("NE search", false, "%v", err)
			return r
		}
		r.addLinef("%8s %14.3f %14.3f", alpha, ps.Rho, neRho)
		if neStable == 0 {
			r.addCheck("NE trees exist", false, "α=%s: none", alpha)
			return r
		}
		if gap := ps.Rho - neRho; gap > worstGap {
			worstGap = gap
		}
		// The unilateral baseline respects Fabrikant et al.'s bound.
		r.addCheck("unilateral tree PoA <= 5", neRho <= 5, "α=%s: %.3f", alpha, neRho)
		// Cooperation requirements never help the worst case on trees:
		// bilateral PS is at least as bad as unilateral NE.
		r.addCheck("bilateral at least as bad", ps.Rho >= neRho-1e-9,
			"α=%s: PS %.3f vs NE %.3f", alpha, ps.Rho, neRho)
	}
	r.addCheck("strictly worse somewhere", worstGap > 0,
		"max PoA gap PS−NE = %.3f", worstGap)
	return r
}

// runAppendixB verifies the Appendix B structural facts on exhaustive
// small instances: Lemma B.1 (the social cost of an RE graph is at most
// 2(n−1)(α + dist(u)) for every node u) and the add-equilibrium diameter
// bound (diam ≤ 2√α + 1 in BAE graphs, carried over from the NCG).
func runAppendixB(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "APP-B", Title: "Appendix B: RE cost bound and BAE diameter bound"}
	n := 6
	if s == Full {
		n = 7
	}
	alphas := []game.Alpha{game.A(1), game.A(2), game.AFrac(9, 2), game.A(8), game.A(20)}
	var (
		reChecked, baeChecked int
		lemmaB1Violations     int
		diamViolations        int
		worstDiamRatio        float64
	)
	for _, alpha := range alphas {
		gm, err := game.NewGame(n, alpha)
		if err != nil {
			r.addCheck("setup", false, "%v", err)
			return r
		}
		graph.Enumerate(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}, func(g *graph.Graph) {
			if eq.CheckRE(gm, g).Stable {
				reChecked++
				social := gm.SocialCost(g).Value(alpha)
				for u := 0; u < n; u++ {
					distU, _ := g.TotalDist(u)
					bound := 2 * float64(n-1) * (alpha.Float() + float64(distU))
					if social > bound+1e-9 {
						lemmaB1Violations++
					}
				}
			}
			if eq.CheckBAE(gm, g).Stable {
				baeChecked++
				diam := float64(g.Diameter())
				bound := 2*math.Sqrt(alpha.Float()) + 1
				if ratio := diam / bound; ratio > worstDiamRatio {
					worstDiamRatio = ratio
				}
				if diam > bound+1e-9 {
					diamViolations++
				}
			}
		})
	}
	r.addLinef("n=%d: %d RE states, %d BAE states over %d α values", n, reChecked, baeChecked, len(alphas))
	r.addLinef("worst diameter/(2√α+1) ratio: %.3f", worstDiamRatio)
	r.addCheck("lemma B.1 cost bound", lemmaB1Violations == 0,
		"%d violations over %d RE states (every anchor node)", lemmaB1Violations, reChecked)
	r.addCheck("BAE diameter bound", diamViolations == 0,
		"%d violations over %d BAE states", diamViolations, baeChecked)
	return r
}
