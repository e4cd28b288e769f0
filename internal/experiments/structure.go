package experiments

import (
	"context"
	"math"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
	"repro/internal/sweep"
	"repro/internal/tree"
)

func init() {
	register("F3", runF3Stretched)
	register("F4", runF4Coalition)
	register("L2.4", runL24Cycles)
	register("P3.16", runP316LowAlpha)
	register("P3.22", runP322NoFlat)
}

// runF3Stretched reproduces Figure 3: the k-stretched binary tree and its
// defining identities — node count (2^(d+1)−2)k + 1, depth k·d, distance
// stretching between B-nodes, and the Lemma D.1 average-layer lower bound
// k(d − 3/2).
func runF3Stretched(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "F3", Title: "Figure 3: stretched binary tree identities"}
	maxD := 5
	if s == Full {
		maxD = 7
	}
	for d := 1; d <= maxD; d++ {
		for _, k := range []int{1, 2, 3, 5} {
			st := construct.NewStretched(d, k)
			g := st.G
			wantN := ((1<<(d+1))-2)*k + 1
			if g.N() != wantN || !g.IsTree() {
				r.addCheck("node count", false, "d=%d k=%d: n=%d want %d tree=%v",
					d, k, g.N(), wantN, g.IsTree())
				return r
			}
			rt, err := tree.Root(g, st.Root)
			if err != nil {
				r.addCheck("root", false, "%v", err)
				return r
			}
			if rt.Depth() != k*d {
				r.addCheck("depth", false, "d=%d k=%d: depth %d want %d", d, k, rt.Depth(), k*d)
				return r
			}
			// Every B-node sits at a layer divisible by k (distance
			// stretching of the underlying binary tree).
			for u := 0; u < g.N(); u++ {
				if st.BNodes[u] && rt.Layer(u)%k != 0 {
					r.addCheck("stretching", false, "d=%d k=%d: B-node %d at layer %d", d, k, u, rt.Layer(u))
					return r
				}
			}
			// Lemma D.1: average layer >= k(d - 3/2).
			var layerSum int64
			for u := 0; u < g.N(); u++ {
				layerSum += int64(rt.Layer(u))
			}
			avg := float64(layerSum) / float64(g.N())
			bound := float64(k) * (float64(d) - 1.5)
			if avg < bound {
				r.addCheck("lemma D.1", false, "d=%d k=%d: avg layer %.3f < %.3f", d, k, avg, bound)
				return r
			}
		}
	}
	r.addLinef("verified d=1..%d × k∈{1,2,3,5}: node count, depth, stretching, avg layer", maxD)
	r.addCheck("identities", true, "all stretched-tree identities hold")
	return r
}

// runF4Coalition reproduces Figure 4 / Lemma 3.14: on a tree with two deep
// sibling subtrees, the 3-coalition {x, z, z'} (add xz and zz', drop xy)
// strictly improves all three members — and stops improving when the arms
// are shorter than the lemma's threshold.
func runF4Coalition(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "F4", Title: "Figure 4 / Lemma 3.14: the 3-coalition escape move"}
	alphas := []int64{20, 30, 50}
	if s == Full {
		alphas = append(alphas, 80, 120)
	}
	for _, a := range alphas {
		// Size the gadget so that q = ceil(4α/n) is small and the arms are
		// exactly deep enough: arms of length 2q+3 with enough hub leaves.
		leaves := int(a)
		probe := construct.NewDoubleDeep(1, leaves)
		q := int(math.Ceil(4 * float64(a) / float64(probe.G.N())))
		for {
			arm := 2*q + 3
			n := 1 + 2*arm + leaves
			q2 := int(math.Ceil(4 * float64(a) / float64(n)))
			if q2 == q {
				break
			}
			q = q2
		}
		arm := 2*q + 3
		dd := construct.NewDoubleDeep(arm, leaves)
		gm, err := game.NewGame(dd.G.N(), game.A(a))
		if err != nil {
			r.addCheck("setup", false, "%v", err)
			return r
		}
		co := lemma314Move(dd, q)
		improving := eq.Improving(gm, dd.G, co)
		r.addLinef("  α=%d n=%d q=%d arms=%d: coalition %v improving=%v",
			a, dd.G.N(), q, arm, co.Members, improving)
		r.addCheck("deep arms escape", improving, "α=%d: {x,z,z'} move improves all members", a)

		// Control: with arms below the threshold the same move shape is
		// not available or not improving.
		short := construct.NewDoubleDeep(q+2, leaves)
		gmShort, _ := game.NewGame(short.G.N(), game.A(a))
		available := q+1 < len(short.ArmA)
		shortImproves := false
		if available {
			shortImproves = eq.Improving(gmShort, short.G, lemma314Move(short, 0))
		}
		r.addCheck("shallow arms do not", !shortImproves,
			"α=%d arms=%d: improving=%v", a, q+2, shortImproves)
	}
	return r
}

// lemma314Move builds the Figure 4 coalition on a DoubleDeep gadget: x at
// arm index q+1, y its child, z and z' at index 2q+2 on the two arms.
func lemma314Move(dd *construct.DoubleDeep, q int) move.Coalition {
	last := len(dd.ArmA) - 1
	xi := q + 1
	if xi > last-1 {
		xi = last - 1
	}
	zi := 2*q + 2
	if zi > last {
		zi = last
	}
	x, y := dd.ArmA[xi], dd.ArmA[xi+1]
	z, zp := dd.ArmA[zi], dd.ArmB[zi]
	return move.Coalition{
		Members:     []int{x, z, zp},
		RemoveEdges: []graph.Edge{{U: x, V: y}},
		AddEdges:    []graph.Edge{{U: x, V: z}, {U: z, V: zp}},
	}
}

// runL24Cycles reproduces Lemma 2.4: cycles are in BSE for an α window of
// width Θ(n²), so no tree conjecture can hold in the BNCG. Inside the
// window the exact checker confirms stability; at the window edges it
// reports the violating move.
func runL24Cycles(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "L2.4", Title: "Lemma 2.4: cycles are in BSE for α ∈ Θ(n²)"}
	maxN := 6
	for n := 3; n <= maxN; n++ {
		lo, hi := cycleWindow(n)
		mid := game.AFrac(int64(math.Round((lo+hi)/2*4)), 4)
		above := game.AFrac(int64(math.Ceil(hi*4))+1, 4)
		gm := func(a game.Alpha) game.Game { g, _ := game.NewGame(n, a); return g }
		g := construct.Cycle(n)
		inWindow := eq.CycleBSEWindow(n, mid)
		stableMid := eq.CheckKBSE(gm(mid), g, n).Stable
		stableBelow := false
		if belowNum := int64(math.Floor(lo*4)) - 1; belowNum > 0 {
			below := game.AFrac(belowNum, 4)
			stableBelow = eq.CheckKBSE(gm(below), g, n).Stable
		}
		stableAbove := eq.CheckKBSE(gm(above), g, n).Stable
		r.addLinef("  C%d window (%.2f, %.2f): mid α=%s stable=%v; below=%v above=%v",
			n, lo, hi, mid, stableMid, stableBelow, stableAbove)
		r.addCheck("window certifies", !inWindow || stableMid,
			"C%d at α=%s: window=%v exact=%v", n, mid, inWindow, stableMid)
		if n >= 4 {
			r.addCheck("stable inside window", stableMid, "C%d mid-window BSE", n)
		}
		r.addCheck("unstable above window", !stableAbove,
			"C%d at α=%s: %v", n, above, eq.CheckKBSE(gm(above), g, n).Witness)
	}
	// Larger cycles: the polynomial necessary conditions (RE, BAE, BGE)
	// hold at the window midpoint.
	sizes := []int{10, 20}
	if s == Full {
		sizes = append(sizes, 40)
	}
	for _, n := range sizes {
		lo, hi := cycleWindow(n)
		mid := game.AFrac(int64(math.Round((lo+hi)/2*4)), 4)
		gmN, _ := game.NewGame(n, mid)
		g := construct.Cycle(n)
		ok := eq.Check(gmN, g, eq.BGE).Stable
		r.addCheck("large-cycle BGE inside window", ok, "C%d at α=%s", n, mid)
	}
	return r
}

func cycleWindow(n int) (lo, hi float64) {
	nn := float64(n)
	if n%2 == 0 {
		return nn*nn/4 - (nn - 1), nn * (nn - 2) / 4
	}
	return (nn+1)*(nn-1)/4 - (nn - 1), (nn + 1) * (nn - 1) / 4
}

// runP316LowAlpha reproduces Proposition 3.16: the three α regimes of BSE
// structure — clique only (α<1), diameter ≤ 2 (α=1), star and more (α>1).
func runP316LowAlpha(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "P3.16", Title: "Prop 3.16: BSE structure across α regimes"}
	maxN := 5
	cache := sweep.NewCache()
	for n := 4; n <= maxN; n++ {
		// One engine sweep covers all three α regimes.
		res, err := sweep.Run(ctx, sweep.Options{
			N:        n,
			Alphas:   []game.Alpha{game.AFrac(1, 2), game.A(1), game.A(2)},
			Concepts: []eq.Concept{eq.BSE},
			Cache:    cache,
		})
		if err != nil {
			r.addCheck("setup", false, "%v", err)
			return r
		}
		cliqueOnly := true
		stable := 0
		diamMatches := true
		others := 0
		for _, it := range res.Items {
			bse := it.Vector.Stable(0)
			switch it.AlphaIndex {
			case 0: // α = 1/2
				if bse {
					stable++
					if it.Graph.M() != n*(n-1)/2 {
						cliqueOnly = false
					}
				}
			case 1: // α = 1
				if bse != (it.Graph.Diameter() <= 2) {
					diamMatches = false
				}
			case 2: // α = 2
				if bse {
					others++
				}
			}
		}
		r.addCheck("clique only below 1", cliqueOnly && stable == 1,
			"n=%d α=1/2: %d BSE graphs", n, stable)
		r.addCheck("diameter 2 at 1", diamMatches, "n=%d α=1: BSE ⇔ diam ≤ 2", n)

		gmTwo, _ := game.NewGame(n, game.A(2))
		starStable := eq.CheckKBSE(gmTwo, game.Star(n), n).Stable
		r.addCheck("star and others above 1", starStable && others >= 2,
			"n=%d α=2: star BSE plus %d total BSE classes", n, others)
	}
	gm4, _ := game.NewGame(4, game.A(100))
	r.addCheck("P4 at α=100", eq.CheckKBSE(gm4, construct.Path(4), 4).Stable, "path-4 in BSE")
	return r
}

// runP322NoFlat reproduces Proposition 3.22: at α = n, no graph can keep
// every agent's cost below p·(α+n−1) for a constant p — the counting bound
// p*(n) and the best d-ary tree's normalized worst cost both grow without
// bound.
func runP322NoFlat(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "P3.22", Title: "Prop 3.22: no evenly-cheap graphs at α = n"}
	r.addLinef("counting lower bound p*(n):")
	var ps []float64
	for _, n := range []int{1e2, 1e4, 1e6, 1e9, 1e12} {
		p := core.Prop322MinP(n)
		ps = append(ps, p)
		r.addLinef("  n=%.0e: p* = %.2f", float64(n), p)
	}
	growing := true
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			growing = false
		}
	}
	r.addCheck("p* grows", growing && ps[len(ps)-1] > ps[0], "series %v", ps)

	sizes := []int{100, 1000, 10000}
	if s == Full {
		sizes = append(sizes, 100000)
	}
	r.addLinef("best d-ary normalized worst cost at α=n:")
	var best []float64
	for _, n := range sizes {
		gm, _ := game.NewGame(n, game.A(int64(n)))
		minCost := math.Inf(1)
		for d := 2; d <= n-1; d *= 2 {
			g := construct.AlmostCompleteDAry(n, d)
			worst, err := core.TreeMaxAgentCost(gm, g)
			if err != nil {
				r.addCheck("dary", false, "%v", err)
				return r
			}
			norm := worst / (float64(n) + float64(n-1))
			if norm < minCost {
				minCost = norm
			}
		}
		best = append(best, minCost)
		r.addLinef("  n=%d: min_d max_u cost/(α+n−1) = %.3f", n, minCost)
	}
	increasing := true
	for i := 1; i < len(best); i++ {
		if best[i] <= best[i-1] {
			increasing = false
		}
	}
	r.addCheck("normalized cost grows", increasing, "series %v", best)
	return r
}
