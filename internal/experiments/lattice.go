package experiments

import (
	"context"
	"fmt"

	"repro/internal/construct"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
	"repro/internal/sweep"
)

func init() {
	register("F1a", runF1aLattice)
	register("F1b", runF1bVenn)
}

// latticeAlphas is the α grid for the small-graph sweeps, including every
// value Figure 1b annotates (1/2, 2, 3, 5).
func latticeAlphas() []game.Alpha {
	return []game.Alpha{
		game.AFrac(1, 2), game.A(1), game.AFrac(3, 2),
		game.A(2), game.A(3), game.A(5),
	}
}

// runF1aLattice reproduces Figure 1a: the subset lattice of the solution
// concepts. Over every connected graph on n nodes (up to isomorphism) and
// every α in the grid, the full stability vector is computed with the
// exact checkers and every claimed inclusion is verified; the sweep also
// looks for witnesses making inclusions proper.
func runF1aLattice(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "F1a", Title: "Figure 1a: subset lattice of solution concepts"}
	n := 5
	if s == Full {
		n = 6
	}
	implications := []struct {
		from, to eq.Concept
	}{
		{eq.BSE, eq.ThreeBSE}, {eq.ThreeBSE, eq.TwoBSE}, {eq.TwoBSE, eq.BGE},
		{eq.BGE, eq.PS}, {eq.BGE, eq.BSwE}, {eq.PS, eq.RE}, {eq.PS, eq.BAE},
		{eq.BNE, eq.BGE},
	}
	violations := 0
	stableCount := make(map[eq.Concept]int)
	// properWitness[from→to] records a graph stable for `to` but not `from`.
	properWitness := make(map[string]string)
	// One engine sweep replaces the per-α sequential enumerations; the
	// α-major item order matches the loop nest it replaced, so the report
	// (counts, first proper witnesses) is unchanged.
	res, err := sweep.Run(ctx, sweep.Options{
		N:        n,
		Alphas:   latticeAlphas(),
		Concepts: eq.Concepts(),
		Cache:    sweep.NewCache(),
	})
	if err != nil {
		r.addCheck("setup", false, "%v", err)
		return r
	}
	for _, it := range res.Items {
		alpha := res.Alphas[it.AlphaIndex]
		st := make(map[eq.Concept]bool, len(res.Concepts))
		for i, c := range res.Concepts {
			st[c] = it.Vector.Stable(i)
			if st[c] {
				stableCount[c]++
			}
		}
		for _, imp := range implications {
			if st[imp.from] && !st[imp.to] {
				violations++
			}
			key := fmt.Sprintf("%s⊊%s", imp.from, imp.to)
			if _, have := properWitness[key]; !have && st[imp.to] && !st[imp.from] {
				properWitness[key] = fmt.Sprintf("α=%s %s", alpha, it.Graph)
			}
		}
	}
	r.addLinef("checked %d (graph, α) pairs at n=%d", len(res.Items), n)
	for _, c := range eq.Concepts() {
		r.addLinef("  %-6s stable in %d cases", c, stableCount[c])
	}
	r.addCheck("no inclusion violations", violations == 0, "%d violations", violations)
	for _, imp := range implications {
		key := fmt.Sprintf("%s⊊%s", imp.from, imp.to)
		w, have := properWitness[key]
		if have {
			r.addLinef("  proper: %s via %s", key, w)
		}
	}
	// The sweep separates the coarse levels; the finer proper inclusions
	// use the named witnesses recovered by search (plus the Figure 5/6/7
	// gadgets for BNE, covered by the F5–F7 experiments).
	for _, mustSeparate := range []string{"PS⊊RE", "PS⊊BAE", "BGE⊊BSwE"} {
		_, have := properWitness[mustSeparate]
		r.addCheck("separated "+mustSeparate, have, "witness found in sweep: %v", have)
	}
	verifyNamedSeparations(r)
	return r
}

// verifyNamedSeparations checks the search-recovered witnesses that make
// the remaining Figure 1a inclusions proper.
func verifyNamedSeparations(r *Report) {
	// BGE ⊊ PS: a tree in PS whose improving move is a swap.
	swapTree := construct.SwapTree()
	gm, _ := game.NewGame(swapTree.N(), game.A(construct.SwapTreeAlphaNum))
	ps := eq.CheckPS(gm, swapTree).Stable
	sw := eq.CheckBSwE(gm, swapTree)
	r.addCheck("separated BGE⊊PS", ps && !sw.Stable,
		"SwapTree at α=%d: PS=%v, swap witness %v", construct.SwapTreeAlphaNum, ps, sw.Witness)

	// 2-BSE ⊊ BGE: K_{2,4} at α=5/4.
	k24 := construct.CompleteBipartite(2, 4)
	gmK, _ := game.NewGame(k24.N(), game.AFrac(5, 4))
	bge := eq.CheckBGE(gmK, k24).Stable
	two := eq.CheckKBSE(gmK, k24, 2)
	r.addCheck("separated 2-BSE⊊BGE", bge && !two.Stable,
		"K_{2,4} at α=5/4: BGE=%v, coalition witness %v", bge, two.Witness)

	// 3-BSE ⊊ 2-BSE: the 7-node path-into-star tree at α=17/4.
	tct := construct.ThreeCoalitionTree()
	gmT, _ := game.NewGame(tct.N(), game.AFrac(17, 4))
	twoStable := eq.CheckKBSE(gmT, tct, 2).Stable
	three := eq.CheckKBSE(gmT, tct, 3)
	r.addCheck("separated 3-BSE⊊2-BSE", twoStable && !three.Stable,
		"ThreeCoalitionTree at α=17/4: 2-BSE=%v, coalition witness %v", twoStable, three.Witness)

	// BSE ⊊ 3-BSE: Figure 7 with 4 rows is in 3-BSE, but the hub and all
	// four c-agents jointly improve.
	f7 := construct.NewFigure7(4)
	gm7, _ := game.NewGame(f7.G.N(), game.A(f7.AlphaNum()))
	threeStable := eq.CheckKBSE(gm7, f7.G, 3).Stable
	big := move.Coalition{Members: append([]int{f7.A}, f7.C...)}
	for j := range f7.B {
		big.RemoveEdges = append(big.RemoveEdges, graph.Edge{U: f7.A, V: f7.B[j]})
		big.AddEdges = append(big.AddEdges, graph.Edge{U: f7.A, V: f7.C[j]})
	}
	bigImproves := eq.Improving(gm7, f7.G, big)
	r.addCheck("separated BSE⊊3-BSE", threeStable && bigImproves,
		"Figure7(4) at α=%d: 3-BSE=%v, 5-agent coalition improves=%v",
		f7.AlphaNum(), threeStable, bigImproves)
}

// runF1bVenn reproduces Figure 1b: RE, BAE and BSwE are pairwise
// incomparable — all 8 regions of their Venn diagram are inhabited. The
// sweep classifies every connected graph on up to n nodes against the α
// grid and reports the smallest witness per region.
func runF1bVenn(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "F1b", Title: "Figure 1b: Venn regions of RE / BAE / BSwE"}
	// Full scale at every scale: the three concepts here are the polynomial
	// checkers, so on the sweep engine the n=6 stream costs well under a
	// second — and the loop still stops at the smallest witnesses.
	maxN := 6
	type region struct{ re, bae, bswe bool }
	witness := make(map[region]string)
	cache := sweep.NewCache()
	for n := 3; n <= maxN; n++ {
		// One three-concept engine sweep per size; α-major item order keeps
		// the first-witness-per-region selection identical to the
		// sequential loops it replaced.
		res, err := sweep.Run(ctx, sweep.Options{
			N:        n,
			Alphas:   latticeAlphas(),
			Concepts: []eq.Concept{eq.RE, eq.BAE, eq.BSwE},
			Cache:    cache,
		})
		if err != nil {
			r.addCheck("setup", false, "%v", err)
			return r
		}
		for _, it := range res.Items {
			key := region{
				re:   it.Vector.Stable(0),
				bae:  it.Vector.Stable(1),
				bswe: it.Vector.Stable(2),
			}
			if _, have := witness[key]; !have {
				witness[key] = fmt.Sprintf("n=%d α=%s %s", n, res.Alphas[it.AlphaIndex], it.Graph)
			}
		}
		if len(witness) == 8 {
			break
		}
	}
	// The region RE ∧ BAE ∧ ¬BSwE has no witness among the small graphs;
	// the search-recovered SwapTree (n=10, α=12) inhabits it.
	swapRegion := region{re: true, bae: true, bswe: false}
	if _, have := witness[swapRegion]; !have {
		st := construct.SwapTree()
		gm, _ := game.NewGame(st.N(), game.A(construct.SwapTreeAlphaNum))
		if eq.CheckRE(gm, st).Stable && eq.CheckBAE(gm, st).Stable && !eq.CheckBSwE(gm, st).Stable {
			witness[swapRegion] = fmt.Sprintf("n=%d α=%d SwapTree", st.N(), construct.SwapTreeAlphaNum)
		}
	}
	for _, re := range []bool{true, false} {
		for _, bae := range []bool{true, false} {
			for _, bswe := range []bool{true, false} {
				key := region{re: re, bae: bae, bswe: bswe}
				w, have := witness[key]
				label := fmt.Sprintf("RE=%v BAE=%v BSwE=%v", re, bae, bswe)
				if have {
					r.addLinef("  %-32s %s", label, w)
				}
				r.addCheck("region "+label, have, "%s", w)
			}
		}
	}
	r.addCheck("pairwise incomparable", len(witness) == 8,
		"%d of 8 regions inhabited", len(witness))
	return r
}
