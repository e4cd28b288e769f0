package game

import (
	"math"
	"math/big"
	"testing"
)

// FuzzCostLess checks Cost.Less and Alpha.Cmp against math/big over the
// whole int64 range: the price is any non-negative p/q, every cost
// component and the compared rational any int64. The first seed is agent
// 0 of the 6-cycle dropping an edge at α = 2^62 (buy 2 → 1, dist 9 → 15),
// which int64 products ordered the wrong way.
func FuzzCostLess(f *testing.F) {
	f.Add(int64(1<<62), int64(1), int64(0), int64(1), int64(15), int64(0), int64(2), int64(9))
	f.Add(int64(math.MaxInt64), int64(1), int64(0), int64(3), int64(6), int64(0), int64(2), int64(9))
	f.Add(int64(math.MaxInt64), int64(math.MaxInt64-1), int64(1), int64(math.MinInt64), int64(math.MaxInt64),
		int64(1), int64(math.MaxInt64), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, p, q, u1, b1, d1, u2, b2, d2 int64) {
		alpha, err := NewAlpha(p&math.MaxInt64, max(q&math.MaxInt64, 1))
		if err != nil {
			t.Fatal(err)
		}
		linear := func(c Cost) *big.Int {
			x := new(big.Int).Mul(big.NewInt(alpha.Num()), big.NewInt(c.Buy))
			return x.Add(x, new(big.Int).Mul(big.NewInt(alpha.Den()), big.NewInt(c.Dist)))
		}
		c, d := Cost{Unreachable: u1, Buy: b1, Dist: d1}, Cost{Unreachable: u2, Buy: b2, Dist: d2}
		want := u1 < u2
		if u1 == u2 {
			want = linear(c).Cmp(linear(d)) < 0
		}
		if got := c.Less(d, alpha); got != want {
			t.Fatalf("%v.Less(%v, %s) = %v, math/big says %v", c, d, alpha, got, want)
		}
		den := max(d2&math.MaxInt64, 1)
		ref := new(big.Rat).SetFrac64(alpha.Num(), alpha.Den()).Cmp(new(big.Rat).SetFrac64(b1, den))
		if got := alpha.Cmp(b1, den); got != ref {
			t.Fatalf("%s.Cmp(%d, %d) = %d, math/big says %d", alpha, b1, den, got, ref)
		}
	})
}
