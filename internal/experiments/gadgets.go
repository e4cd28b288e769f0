package experiments

import (
	"context"
	"repro/internal/construct"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

func init() {
	register("F2", runF2CorboParkes)
	register("F5", runF5BNEGap)
	register("F6", runF62BSEGap)
	register("F7", runF7kBSEGap)
	register("F8", runF8AddGap)
}

// runF2CorboParkes reproduces Proposition 2.3 / Figure 2: a graph with an
// edge assignment in pure NE of the unilateral NCG that is not pairwise
// stable in the BNCG, refuting the Corbo–Parkes conjecture. The canonical
// recovered witness is verified, and (in Full scale) re-discovered by
// exhaustive search.
func runF2CorboParkes(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "F2", Title: "Figure 2 / Prop 2.3: NE(NCG) does not imply PS(BNCG)"}
	f2 := construct.NewFigure2()
	gm, err := game.NewGame(f2.G.N(), game.A(2))
	if err != nil {
		r.addCheck("setup", false, "%v", err)
		return r
	}
	o, err := game.NewOwnership(f2.G, f2.Owner)
	if err != nil {
		r.addCheck("ownership", false, "%v", err)
		return r
	}
	ne := eq.CheckUnilateralNE(gm, f2.G, o)
	r.addCheck("unilateral NE", ne.Stable, "witness graph %s at α=2 (violator: %v)", f2.G, ne.Witness)
	ps := eq.Check(gm, f2.G, eq.PS)
	r.addCheck("not PS in BNCG", !ps.Stable, "bilateral improving move: %v", ps.Witness)
	if !ps.Stable {
		if _, ok := ps.Witness.(move.Remove); ok {
			r.addCheck("violation is a removal", true,
				"a non-owner drops an edge it pays for only bilaterally: %v", ps.Witness)
		} else {
			r.addCheck("violation is a removal", false, "unexpected witness kind %v", ps.Witness)
		}
	}
	if s != Full {
		return r
	}
	// Re-discover by search: smallest (n, α) admitting such a witness.
	for n := 3; n <= 5; n++ {
		found := ""
		for _, alpha := range latticeAlphas() {
			gmN, _ := game.NewGame(n, alpha)
			for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
				if eq.Check(gmN, g, eq.RE).Stable {
					continue // need a bilateral removal violation
				}
				if _, ok := eq.ExistsUnilateralNE(gmN, g); ok {
					found = "α=" + alpha.String() + " " + g.String()
					break
				}
			}
			if found != "" {
				break
			}
		}
		r.addLinef("  n=%d: witness %q", n, found)
		if n == 5 {
			r.addCheck("search rediscovery", found != "", "n=5 search: %q", found)
		}
	}
	return r
}

// runF5BNEGap reproduces Figure 5 / Proposition A.4: the two-arm hub
// gadget is in BAE and BGE at α = 209/2 but not in BNE — the hub's double
// swap improves the hub by 2 and each new partner by 105 > α, while each
// single swap offers a partner only 104 < α.
func runF5BNEGap(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "F5", Title: "Figure 5: BAE ∧ BGE but not BNE (α=104.5)"}
	f5 := construct.NewFigure5(100)
	g := f5.G
	gm, err := game.NewGame(g.N(), game.AFrac(209, 2))
	if err != nil {
		r.addCheck("setup", false, "%v", err)
		return r
	}
	r.addLinef("gadget: n=%d, hub with two a–b–c–d arms and 100 leaves", g.N())
	r.addCheck("RE", eq.Check(gm, g, eq.RE).Stable, "tree, removals disconnect")
	r.addCheck("BAE", eq.Check(gm, g, eq.BAE).Stable, "no mutually improving addition")
	r.addCheck("BSwE", eq.Check(gm, g, eq.BSwE).Stable, "no mutually improving swap")

	// Single swap: the hub trades a–b1 for a–c1; c1 gains exactly 104 in
	// distance, below α.
	swap := move.Swap{U: f5.A, Old: f5.B[0], New: f5.C[0]}
	before, after, err := eq.CostDelta(gm, g, swap)
	if err != nil {
		r.addCheck("swap delta", false, "%v", err)
		return r
	}
	cGain := before[1].Dist - after[1].Dist
	r.addCheck("single-swap partner gain is 104", cGain == 104,
		"c1 distance gain %d < α = 104.5", cGain)

	// Double swap as a neighborhood change: improves a and both c's.
	double := move.Neighborhood{
		U:        f5.A,
		RemoveTo: []int{f5.B[0], f5.B[1]},
		AddTo:    []int{f5.C[0], f5.C[1]},
	}
	before, after, err = eq.CostDelta(gm, g, double)
	if err != nil {
		r.addCheck("double delta", false, "%v", err)
		return r
	}
	aGain := before[0].Dist - after[0].Dist
	cGain = before[1].Dist - after[1].Dist
	r.addCheck("hub gains 2", aGain == 2, "hub distance gain %d", aGain)
	r.addCheck("partner gains 105", cGain == 105, "c1 distance gain %d > α", cGain)
	r.addCheck("not BNE", eq.Improving(gm, g, double), "double swap improves all actors")
	return r
}

// runF62BSEGap reproduces Figure 6 / Proposition A.5: the recovered
// 10-node gadget is in BNE at α = 7 but a 2-coalition improves by trading
// its two c-edges for a direct edge. The search that recovered the gadget
// matched the paper's agent costs exactly.
func runF62BSEGap(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "F6", Title: "Figure 6: BNE but not 2-BSE (α=7)"}
	f6 := construct.NewFigure6()
	g := f6.G
	gm, err := game.NewGame(g.N(), game.A(7))
	if err != nil {
		r.addCheck("setup", false, "%v", err)
		return r
	}
	distA, _ := g.TotalDist(f6.A[0])
	distB, _ := g.TotalDist(f6.B[0])
	distC, _ := g.TotalDist(f6.C[0])
	r.addLinef("gadget: %s", g)
	r.addLinef("agent distance costs: a=%d b=%d c=%d (paper: 19, 27, 19)", distA, distB, distC)
	r.addCheck("paper distances", distA == 19 && distB == 27 && distC == 19,
		"a=%d b=%d c=%d", distA, distB, distC)
	r.addCheck("BNE", eq.Check(gm, g, eq.BNE).Stable, "exhaustive neighborhood check, n=10")
	res := eq.CheckKBSE(gm, g, 2)
	r.addCheck("not 2-BSE", !res.Stable, "improving 2-coalition: %v", res.Witness)
	return r
}

// runF7kBSEGap reproduces Figure 7 / Proposition A.7: the hub-and-rows
// gadget at α = 4(i−1) is in 2-BSE (and, for enough rows, 3-BSE) while the
// hub's row-swap neighborhood change always violates BNE. The paper takes
// i = 20k rows for k-BSE; the sweep locates the actual thresholds.
func runF7kBSEGap(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "F7", Title: "Figure 7: k-BSE but not BNE (α=4(i−1))"}
	maxRows := 6
	threeBSERows := 4
	if s == Full {
		maxRows = 8
		threeBSERows = 5
	}
	first2BSE := 0
	bneAlways := true
	for rows := 2; rows <= maxRows; rows++ {
		f7 := construct.NewFigure7(rows)
		gm, err := game.NewGame(f7.G.N(), game.A(f7.AlphaNum()))
		if err != nil {
			r.addCheck("setup", false, "%v", err)
			return r
		}
		two := eq.CheckKBSE(gm, f7.G, 2).Stable
		three := "-"
		if rows <= threeBSERows {
			if eq.CheckKBSE(gm, f7.G, 3).Stable {
				three = "true"
			} else {
				three = "false"
			}
		}
		hubMove := move.Neighborhood{
			U:        f7.A,
			RemoveTo: append([]int(nil), f7.B...),
			AddTo:    append([]int(nil), f7.C...),
		}
		bneViolated := eq.Improving(gm, f7.G, hubMove)
		if !bneViolated {
			bneAlways = false
		}
		if two && first2BSE == 0 {
			first2BSE = rows
		}
		r.addLinef("  rows=%d n=%d α=%d: 2-BSE=%v 3-BSE=%s hub-move-improves=%v",
			rows, f7.G.N(), f7.AlphaNum(), two, three, bneViolated)
	}
	r.addCheck("2-BSE from a threshold on", first2BSE > 0 && first2BSE <= 4,
		"first 2-BSE at rows=%d (paper's conservative bound: 40)", first2BSE)
	r.addCheck("never BNE", bneAlways, "hub swap improves hub and every c-agent at all sizes")
	return r
}

// runF8AddGap reproduces Proposition 2.1 / Figure 8: a graph in BAE of the
// BNCG that is not in Add Equilibrium of the unilateral NCG — unilateral
// addition is strictly more powerful because it needs no partner consent.
func runF8AddGap(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "F8", Title: "Figure 8 / Prop 2.1: BAE does not imply unilateral AE"}
	g := construct.Figure8()
	gm, err := game.NewGame(g.N(), game.A(2))
	if err != nil {
		r.addCheck("setup", false, "%v", err)
		return r
	}
	r.addLinef("gadget (broom): %s at α=2", g)
	r.addCheck("BAE", eq.Check(gm, g, eq.BAE).Stable, "no pair improves jointly")
	gmU := gm
	gmU.Variant.Consent = game.ConsentUnilateral
	ae := eq.Check(gmU, g, eq.BAE)
	r.addCheck("not unilateral AE", !ae.Stable, "solo buyer improves: %v", ae.Witness)

	// The forward direction of Prop 2.1 (AE ⇒ BAE) on the full sweep.
	violations := 0
	for _, alpha := range latticeAlphas() {
		gm5, _ := game.NewGame(5, alpha)
		gm5U := gm5
		gm5U.Variant.Consent = game.ConsentUnilateral
		for h := range graph.All(5, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			if eq.Check(gm5U, h, eq.BAE).Stable && !eq.Check(gm5, h, eq.BAE).Stable {
				violations++
			}
		}
	}
	r.addCheck("AE implies BAE", violations == 0, "%d violations over the n=5 sweep", violations)
	return r
}
