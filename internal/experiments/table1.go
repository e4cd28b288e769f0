package experiments

import (
	"context"
	"math"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/sweep"
)

func init() {
	register("T1-PS", runT1PS)
	register("T1-BSwE", runT1BSwE)
	register("T1-BGE", runT1BGE)
	register("T1-BNE", runT1BNE)
	register("T1-3BSE", runT13BSE)
	register("T1-BSE", runT1BSE)
}

// runT1PS reproduces the PS row of Table 1: the PoA of pairwise stable
// trees is polynomial in α (Θ(min{√α, n/√α})), peaking near α ≈ n — far
// worse than the Θ(log α) of the cooperative concepts.
func runT1PS(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "T1-PS", Title: "Table 1, PS row: PoA Θ(min{√α, n/√α}) on trees"}

	n := 10
	alphas := []game.Alpha{game.A(1), game.A(2), game.A(4), game.A(9), game.A(16), game.A(36), game.A(100)}
	if s == Full {
		n = 11
	}
	r.addLinef("exhaustive worst ρ over all free trees, n=%d:", n)
	r.addLinef("%8s %10s %14s %10s", "alpha", "worst-rho", "min{√α,n/√α}", "#PS-trees")
	rhoAt := make(map[string]float64, len(alphas))
	cache := sweep.NewCache()
	for _, alpha := range alphas {
		res, err := core.WorstTree(ctx, n, alpha, eq.PS, cache)
		if err != nil {
			r.addCheck("search", false, "WorstTree: %v", err)
			return r
		}
		rhoAt[alpha.String()] = res.Rho
		r.addLinef("%8s %10.3f %14.3f %10d", alpha, res.Rho, core.PSUpperBound(n, alpha), res.Equilibria)
	}
	// Shape: the PoA rises towards α ≈ n and falls for α ≫ n².
	r.addCheck("rises to peak", rhoAt["9"] > rhoAt["1"],
		"ρ(α=9)=%.3f > ρ(α=1)=%.3f", rhoAt["9"], rhoAt["1"])
	r.addCheck("falls past peak", rhoAt["100"] < math.Max(rhoAt["9"], rhoAt["16"]),
		"ρ(α=100)=%.3f < peak=%.3f", rhoAt["100"], math.Max(rhoAt["9"], rhoAt["16"]))

	// Growth in n at α ≈ n: the peak worst-case ρ grows with n, the
	// polynomial signature that separates PS from the Θ(log α) rows.
	sizes := []int{6, 8, 10}
	if s == Full {
		sizes = append(sizes, 12)
	}
	r.addLinef("peak worst ρ at α = n:")
	var peaks []float64
	for _, nn := range sizes {
		res, err := core.WorstTree(ctx, nn, game.A(int64(nn)), eq.PS, cache)
		if err != nil {
			r.addCheck("peak search", false, "WorstTree: %v", err)
			return r
		}
		peaks = append(peaks, res.Rho)
		r.addLinef("  n=%2d: worst ρ = %.3f (witness %v)", nn, res.Rho, res.Witness)
	}
	increasing := true
	for i := 1; i < len(peaks); i++ {
		if peaks[i] <= peaks[i-1] {
			increasing = false
		}
	}
	r.addCheck("peak grows with n", increasing, "peaks %v", peaks)
	return r
}

// bgeFamilyPoint builds the Theorem 3.10 stretched tree star (k=1,
// t=α/15), certifies it exactly as BGE (RE ∧ BAE ∧ BSwE — polynomial) and
// returns n and measured ρ.
func bgeFamilyPoint(r *Report, alphaInt int64) (n int, rho float64, ok bool) {
	eta := int(alphaInt) // Theorem 3.10 allows any η >= α; take η = α.
	ts, err := construct.NewTreeStar(1, float64(alphaInt)/15, eta)
	if err != nil {
		r.addCheck("construct", false, "tree star α=%d: %v", alphaInt, err)
		return 0, 0, false
	}
	g := ts.G
	gm, err := game.NewGame(g.N(), game.A(alphaInt))
	if err != nil {
		r.addCheck("game", false, "%v", err)
		return 0, 0, false
	}
	if res := eq.Check(gm, g, eq.RE); !res.Stable {
		r.addCheck("RE", false, "α=%d witness %v", alphaInt, res.Witness)
		return 0, 0, false
	}
	if res := eq.Check(gm, g, eq.BAE); !res.Stable {
		r.addCheck("BAE", false, "α=%d witness %v", alphaInt, res.Witness)
		return 0, 0, false
	}
	if res := eq.Check(gm, g, eq.BSwE); !res.Stable {
		r.addCheck("BSwE", false, "α=%d witness %v", alphaInt, res.Witness)
		return 0, 0, false
	}
	rho, err = core.TreeRho(gm, g)
	if err != nil {
		r.addCheck("rho", false, "%v", err)
		return 0, 0, false
	}
	return g.N(), rho, true
}

// runT1BSwE reproduces the BSwE row: the stretched-tree-star family is
// checker-certified stable and its ρ sits between the Theorem 3.10 lower
// bound and the Theorem 3.6 upper bound, growing logarithmically in α.
func runT1BSwE(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "T1-BSwE", Title: "Table 1, BSwE row: PoA Θ(log α) on trees"}
	alphas := []int64{60, 120, 240}
	if s == Full {
		alphas = append(alphas, 480, 960)
	}
	r.addLinef("%8s %6s %8s %12s %12s %10s", "alpha", "n", "rho", "lower(3.10)", "upper(3.6)", "rho/logα")
	var rhos, norm []float64
	for _, a := range alphas {
		n, rho, ok := bgeFamilyPoint(r, a)
		if !ok {
			return r
		}
		lower := core.Thm310Lower(game.A(a))
		upper := core.Thm36Upper(game.A(a))
		r.addLinef("%8d %6d %8.3f %12.3f %12.3f %10.3f", a, n, rho, lower, upper, rho/core.Log2(float64(a)))
		r.addCheck("within bounds", rho >= math.Max(1, lower) && rho <= upper,
			"α=%d: %.3f ∈ [%.3f, %.3f]", a, rho, math.Max(1, lower), upper)
		rhos = append(rhos, rho)
		norm = append(norm, rho/core.Log2(float64(a)))
	}
	r.addCheck("grows with alpha", rhos[len(rhos)-1] > rhos[0],
		"ρ(α=%d)=%.3f > ρ(α=%d)=%.3f", alphas[len(alphas)-1], rhos[len(rhos)-1], alphas[0], rhos[0])
	lo, hi := minMax(norm)
	r.addCheck("log-normalized flat", hi/lo < 2.5,
		"ρ/log α spans [%.3f, %.3f] (ratio %.2f)", lo, hi, hi/lo)
	return r
}

// runT1BGE reproduces the BGE row. Since the certification in runT1BSwE is
// the full RE ∧ BAE ∧ BSwE check, the same family certifies the BGE row;
// this runner additionally cross-validates Proposition 3.7 (BGE ⇔ 2-BSE on
// trees) on a family member small enough for the exact coalition checker.
func runT1BGE(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "T1-BGE", Title: "Table 1, BGE row: PoA Θ(log α) on trees (= 2-BSE)"}
	n, rho, ok := bgeFamilyPoint(r, 60)
	if !ok {
		return r
	}
	r.addLinef("family point α=60: n=%d ρ=%.3f", n, rho)
	r.addCheck("family is BGE", true, "certified by exact RE+BAE+BSwE checks")

	// Prop 3.7 on a small tree star: exact BGE ⇔ exact 2-BSE.
	ts, err := construct.NewTreeStar(1, 3, 7)
	if err != nil {
		r.addCheck("small star", false, "%v", err)
		return r
	}
	for _, a := range []game.Alpha{game.A(2), game.A(8), game.A(40)} {
		gm, _ := game.NewGame(ts.G.N(), a)
		bge := eq.Check(gm, ts.G, eq.BGE).Stable
		two := eq.CheckKBSE(gm, ts.G, 2).Stable
		r.addCheck("prop 3.7 agreement", bge == two, "α=%s: BGE=%v 2-BSE=%v", a, bge, two)
	}
	return r
}

// runT1BNE reproduces the BNE row: Θ(log α) for α above the √n threshold
// (via Lemma 3.11-certified tree stars), constant (≤ 4, Theorem 3.13) for
// α ≤ √n (via exhaustive search over BNE trees).
func runT1BNE(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "T1-BNE", Title: "Table 1, BNE row: Θ(log α) above √n, Θ(1) below"}

	// High-α regime (Theorem 3.12 family shape): stretched tree stars with
	// k = 1 and the largest subtree size t for which the exact Lemma 3.11
	// inequality certifies BNE stability. The theorem's literal parameters
	// need astronomically large η; the certified family realizes the same
	// logarithmic growth at buildable scale.
	alphaGrid := []int64{10_000, 40_000, 160_000}
	if s == Full {
		alphaGrid = append(alphaGrid, 640_000, 2_560_000)
	}
	r.addLinef("high-α regime (largest Lemma 3.11-certified star, k=1, η=α):")
	r.addLinef("%9s %9s %6s %8s %12s", "alpha", "n", "|T|", "rho", "upper(3.6)")
	var highRhos []float64
	for _, a := range alphaGrid {
		ts, ok := largestCertifiedBNEStar(a)
		if !ok {
			r.addCheck("lemma 3.11", false, "α=%d: no certified family member", a)
			return r
		}
		alpha := game.A(a)
		gm, _ := game.NewGame(ts.G.N(), alpha)
		rho, err := core.TreeRho(gm, ts.G)
		if err != nil {
			r.addCheck("rho", false, "%v", err)
			return r
		}
		upper := core.Thm36Upper(alpha)
		r.addLinef("%9d %9d %6d %8.3f %12.3f", a, ts.G.N(), ts.SubtreeSize, rho, upper)
		r.addCheck("within upper bound", rho <= upper, "α=%d: %.3f <= %.3f", a, rho, upper)
		highRhos = append(highRhos, rho)
	}
	r.addCheck("grows with alpha", highRhos[len(highRhos)-1] > highRhos[0],
		"ρ series %v", highRhos)

	// Low-α regime: exhaustive over trees, α <= √n ⇒ constant PoA.
	n := 11
	if s == Full {
		n = 12
	}
	r.addLinef("low-α regime (exhaustive BNE trees, n=%d):", n)
	worst := 0.0
	cache := sweep.NewCache()
	for _, alpha := range []game.Alpha{game.A(1), game.AFrac(3, 2), game.A(2), game.A(3)} {
		res, err := core.WorstTree(ctx, n, alpha, eq.BNE, cache)
		if err != nil {
			r.addCheck("search", false, "%v", err)
			return r
		}
		r.addLinef("  α=%-4s worst ρ = %.3f over %d BNE trees", alpha, res.Rho, res.Equilibria)
		if res.Rho > worst {
			worst = res.Rho
		}
	}
	r.addCheck("constant below √n", worst <= core.Thm313Upper,
		"worst ρ = %.3f <= %.0f (Thm 3.13)", worst, core.Thm313Upper)
	return r
}

// largestCertifiedBNEStar returns the stretched tree star (k=1, η=α) with
// the largest power-of-two subtree-size target whose BNE stability the
// exact Lemma 3.11 inequality certifies.
func largestCertifiedBNEStar(alphaInt int64) (*construct.TreeStar, bool) {
	alpha := game.A(alphaInt)
	var best *construct.TreeStar
	for t := 3.0; t < float64(alphaInt)/2; t *= 2 {
		ts, err := construct.NewTreeStar(1, t, int(alphaInt))
		if err != nil {
			break
		}
		if eq.TreeStarBNE(ts.G.N(), ts.SubtreeSize, ts.Depth(), ts.K, alpha) {
			best = ts
		}
	}
	return best, best != nil
}

// runT13BSE reproduces the 3-BSE row: exhaustive search over trees shows a
// small constant PoA across the α grid, the Lemma 3.14 depth invariant
// holds on every 3-BSE tree, and 2-BSE (= BGE) remains logarithmically bad
// on the stretched star family — pinpointing coalition size 3 as the
// cooperation threshold.
func runT13BSE(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "T1-3BSE", Title: "Table 1, 3-BSE row: constant PoA on trees"}
	n := 8
	if s == Full {
		n = 9
	}
	alphas := []game.Alpha{game.A(1), game.A(2), game.A(4), game.A(8), game.A(16), game.A(64)}
	r.addLinef("exhaustive worst ρ over 3-BSE trees, n=%d:", n)
	worst := 0.0
	lemmaViolations := 0
	cache := sweep.NewCache()
	for _, alpha := range alphas {
		res, err := core.WorstTree(ctx, n, alpha, eq.ThreeBSE, cache)
		if err != nil {
			r.addCheck("search", false, "%v", err)
			return r
		}
		r.addLinef("  α=%-4s worst ρ = %.3f over %d equilibria", alpha, res.Rho, res.Equilibria)
		if res.Rho > worst {
			worst = res.Rho
		}
		if res.Witness != nil {
			if err := core.VerifyLemma314(res.Witness, alpha); err != nil {
				lemmaViolations++
			}
		}
	}
	r.addCheck("constant PoA", worst <= core.Thm315Upper,
		"worst ρ = %.3f <= %.0f (Thm 3.15)", worst, core.Thm315Upper)
	r.addCheck("lemma 3.14 invariant", lemmaViolations == 0,
		"%d violations on worst witnesses", lemmaViolations)

	// Contrast: 2-BSE (= BGE on trees) is already Ω(log α): the stretched
	// star family point from the BGE row at α=240 exceeds the 3-BSE worst.
	_, rho2, ok := bgeFamilyPoint(r, 240)
	if !ok {
		return r
	}
	r.addLinef("contrast: 2-BSE family ρ at α=240: %.3f vs 3-BSE worst %.3f", rho2, worst)
	r.addCheck("3 beats 2", rho2 > worst,
		"2-BSE family ρ %.3f > 3-BSE exhaustive worst %.3f", rho2, worst)
	return r
}

// runT1BSE reproduces the general-graph BSE rows: exact small-n BSE PoA is
// essentially optimal, and the Lemma 3.17/3.18 machinery yields the
// Theorem 3.19/3.20/3.21 bound curves — constant for α <= n^(1-ε) and
// α >= n·log n, o(log n) in the gap.
func runT1BSE(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "T1-BSE", Title: "Table 1, BSE rows: constant PoA except an o(log n) gap"}

	// Exact: worst BSE ρ over all connected graphs on 5 nodes.
	nExact := 5
	if s == Full {
		nExact = 6
	}
	worst := 0.0
	cache := sweep.NewCache()
	for _, alpha := range []game.Alpha{game.AFrac(1, 2), game.AFrac(3, 2), game.A(3), game.A(10)} {
		res, err := core.WorstGraph(ctx, nExact, alpha, eq.BSE, cache)
		if err != nil {
			r.addCheck("exact search", false, "%v", err)
			return r
		}
		r.addLinef("exact n=%d α=%-4s: worst BSE ρ = %.3f over %d equilibria",
			nExact, alpha, res.Rho, res.Equilibria)
		if res.Rho > worst {
			worst = res.Rho
		}
	}
	r.addCheck("small-n BSE near-optimal", worst <= 1.5, "worst exact ρ = %.3f", worst)

	// Bound curves via d-ary trees (Lemma 3.17 + 3.18).
	sizes := []int{1 << 10, 1 << 14, 1 << 17}
	if s == Full {
		sizes = append(sizes, 1<<20)
	}
	r.addLinef("%10s %16s %16s %16s %12s", "n", "α=√n·√n (ε=½)", "α=n·log n", "α=n (gap)", "2+llog+...")
	var gapNorm []float64
	for _, n := range sizes {
		low := bseBoundPoint(n, int64(math.Sqrt(float64(n))), int(math.Ceil(math.Sqrt(float64(n))))) // α=n^(1/2), d=⌈n^(1/2)⌉... d=⌈n^ε⌉ with ε=1/2
		high := bseBoundPoint(n, int64(float64(n)*core.Log2(float64(n))), 2)
		d := int(math.Ceil(core.Log2(core.Log2(float64(n)))))
		if d < 2 {
			d = 2
		}
		gap := bseBoundPoint(n, int64(n), d)
		r.addLinef("%10d %16.3f %16.3f %16.3f %12.3f", n, low, high, gap, core.Thm321Upper(n))
		r.addCheck("thm 3.20 regime", low <= core.Thm320Upper(0.5),
			"n=%d: bound %.3f <= %.3f", n, low, core.Thm320Upper(0.5))
		r.addCheck("thm 3.19 regime", high <= core.Thm319Upper,
			"n=%d: bound %.3f <= %.0f", n, high, core.Thm319Upper)
		r.addCheck("thm 3.21 regime", gap <= core.Thm321Upper(n),
			"n=%d: bound %.3f <= %.3f", n, gap, core.Thm321Upper(n))
		gapNorm = append(gapNorm, gap/core.Log2(float64(n)))
	}
	decreasing := true
	for i := 1; i < len(gapNorm); i++ {
		if gapNorm[i] >= gapNorm[i-1] {
			decreasing = false
		}
	}
	r.addCheck("gap bound is o(log n)", decreasing, "bound/log n series %v", gapNorm)
	return r
}

// bseBoundPoint computes the Lemma 3.17 PoA bound from the exact maximal
// agent cost of the almost complete d-ary tree on n nodes at price alpha.
func bseBoundPoint(n int, alphaInt int64, d int) float64 {
	g := construct.AlmostCompleteDAry(n, d)
	gm, err := game.NewGame(n, game.A(alphaInt))
	if err != nil {
		return math.NaN()
	}
	worst, err := core.TreeMaxAgentCost(gm, g)
	if err != nil {
		return math.NaN()
	}
	return core.Lemma317Bound(n, game.A(alphaInt), worst)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}
