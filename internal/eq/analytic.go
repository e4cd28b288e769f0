package eq

import (
	"math/big"

	"repro/internal/game"
)

// Analytic stability conditions proven in the paper for the structured
// lower-bound families. They let the experiments certify stability at
// scales far beyond the exact checkers; the overlap region (small
// instances) is cross-validated against the exact checkers in tests.

// alphaRat returns α as an exact big rational.
func alphaRat(a game.Alpha) *big.Rat {
	return new(big.Rat).SetFrac64(a.Num(), a.Den())
}

// CycleBSEWindow reports whether the cycle C_n is certified to be in BSE at
// edge price alpha by Lemma 2.4:
//
//	n even: n²/4 − (n−1) < α < n(n−2)/4
//	n odd:  (n+1)(n−1)/4 − (n−1) < α < (n+1)(n−1)/4
func CycleBSEWindow(n int, alpha game.Alpha) bool {
	if n < 3 {
		return false
	}
	a := alphaRat(alpha)
	var lo, hi *big.Rat
	nn := int64(n)
	if n%2 == 0 {
		lo = new(big.Rat).SetFrac64(nn*nn-4*(nn-1), 4)
		hi = new(big.Rat).SetFrac64(nn*(nn-2), 4)
	} else {
		lo = new(big.Rat).SetFrac64((nn+1)*(nn-1)-4*(nn-1), 4)
		hi = new(big.Rat).SetFrac64((nn+1)*(nn-1), 4)
	}
	return a.Cmp(lo) > 0 && a.Cmp(hi) < 0
}

// TreeStarBNE reports whether Lemma 3.11 certifies a stretched tree star to
// be in BNE. n is the node count of the star, subtreeSize is |T| (one copy
// subtree), depth is depth(G), k the stretch factor:
//
//	(k = 1 or α ≥ 6kn)  and  3n·depth/α + 1 ≤ α / (3|T|·depth).
func TreeStarBNE(n, subtreeSize, depth, k int, alpha game.Alpha) bool {
	a := alphaRat(alpha)
	if k != 1 {
		if a.Cmp(new(big.Rat).SetInt64(6*int64(k)*int64(n))) < 0 {
			return false
		}
	}
	// lhs = 3n·depth/α + 1; rhs = α/(3|T|·depth).
	lhs := new(big.Rat).SetInt64(3 * int64(n) * int64(depth))
	lhs.Quo(lhs, a)
	lhs.Add(lhs, new(big.Rat).SetInt64(1))
	rhs := new(big.Rat).Set(a)
	rhs.Quo(rhs, new(big.Rat).SetInt64(3*int64(subtreeSize)*int64(depth)))
	return lhs.Cmp(rhs) <= 0
}
