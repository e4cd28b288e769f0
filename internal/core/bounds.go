package core

import (
	"math"

	"repro/internal/game"
)

// Closed-form PoA bounds from the paper. All logarithms are base 2, as in
// the paper. These are reporting-level formulas (float64); stability
// certification stays exact.

// Log2 is the paper's log (base 2).
func Log2(x float64) float64 { return math.Log2(x) }

// PSUpperBound is the known PS bound Θ(min{√α, n/√α}) reported in Table 1.
func PSUpperBound(n int, alpha game.Alpha) float64 {
	a := alpha.Float()
	return math.Min(math.Sqrt(a), float64(n)/math.Sqrt(a))
}

// Thm36Upper is Theorem 3.6: trees in BSwE have ρ(G) <= 2 + 2·log α.
func Thm36Upper(alpha game.Alpha) float64 {
	return 2 + 2*Log2(alpha.Float())
}

// Thm310Lower is Theorem 3.10: the stretched tree star achieves
// ρ(G) >= (1/4)·log α − 17/8 in BGE.
func Thm310Lower(alpha game.Alpha) float64 {
	return Log2(alpha.Float())/4 - 17.0/8
}

// Thm313Upper is Theorem 3.13: trees in BNE with α <= √n and n > 15 have
// ρ(G) <= 4.
const Thm313Upper = 4.0

// Thm315Upper is Theorem 3.15: trees in 3-BSE have ρ(G) <= 25.
const Thm315Upper = 25.0

// Thm319Upper is Theorem 3.19: BSE graphs with α >= n·log n have ρ <= 5.
const Thm319Upper = 5.0

// Thm320Upper is Theorem 3.20: BSE graphs with α <= n^(1−ε) have
// ρ <= 3 + 2/ε.
func Thm320Upper(eps float64) float64 { return 3 + 2/eps }

// Thm321Upper is Theorem 3.21: any BSE graph has
// ρ <= 2 + loglog n + 2·log n / logloglog n.
func Thm321Upper(n int) float64 {
	ln := Log2(float64(n))
	lln := Log2(ln)
	llln := Log2(lln)
	return 2 + lln + 2*ln/llln
}

// Lemma317Bound is Lemma 3.17: for any graph G with worst-off agent cost c,
// every BSE H on the same n and α has ρ(H) <= c / (α + n − 1).
func Lemma317Bound(n int, alpha game.Alpha, worstCost float64) float64 {
	return worstCost / (alpha.Float() + float64(n-1))
}

// Prop322MinP returns, for α = n, the smallest constant p (granularity
// 1/4) for which Proposition 3.22's counting argument does not rule out a
// graph whose agents all have cost <= p·(α + n − 1): p is feasible only if
// a node of degree at most 2p can reach at least n/2 nodes within 4p hops,
// i.e. Σ_{i=0..⌊4p⌋} (2p)^i >= n/2. The returned value grows without bound
// in n, reproducing the proposition's impossibility.
func Prop322MinP(n int) float64 {
	for q := 2; ; q++ { // p = q/4
		p := float64(q) / 4
		d := 2 * p
		radius := int(4 * p)
		reach := 1.0
		layer := 1.0
		for i := 1; i <= radius && reach < float64(n)/2; i++ {
			layer *= d
			reach += layer
		}
		if reach >= float64(n)/2 {
			return p
		}
	}
}
