// Package game defines the (Bilateral) Network Creation Game: exact edge
// prices, agent and social costs, social optima and the social cost ratio ρ.
//
// Cost arithmetic is exact. The edge price α is a rational number and agent
// costs are compared lexicographically as (unreachable-node count, exact
// α·buy + dist). The lexicographic first component implements the paper's
// device of pricing disconnection at M > α·n³: an agent always prefers
// reaching more agents, and among states with equal reachability compares
// exact costs.
package game

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Alpha is an exact non-negative rational edge price num/den.
type Alpha struct {
	num int64
	den int64
}

// NewAlpha returns the edge price num/den. It reports an error unless
// num >= 0 and den > 0.
func NewAlpha(num, den int64) (Alpha, error) {
	if den <= 0 {
		return Alpha{}, fmt.Errorf("game: alpha denominator %d must be positive", den)
	}
	if num < 0 {
		return Alpha{}, fmt.Errorf("game: alpha numerator %d must be non-negative", num)
	}
	g := gcd64(num, den)
	return Alpha{num: num / g, den: den / g}, nil
}

// A returns the integer edge price n (a convenience for the common case).
// It panics for negative n.
func A(n int64) Alpha {
	a, err := NewAlpha(n, 1)
	if err != nil {
		panic(err)
	}
	return a
}

// AFrac returns the edge price num/den, panicking on invalid input. Use it
// for statically known prices such as the paper's α = 9/2.
func AFrac(num, den int64) Alpha {
	a, err := NewAlpha(num, den)
	if err != nil {
		panic(err)
	}
	return a
}

// Num returns the reduced numerator.
func (a Alpha) Num() int64 { return a.num }

// Den returns the reduced denominator (1 for the zero value, by convention
// of IsZero below).
func (a Alpha) Den() int64 {
	if a.den == 0 {
		return 1
	}
	return a.den
}

// Float returns the price as a float64 for reporting only; comparisons must
// use the exact forms.
func (a Alpha) Float() float64 { return float64(a.num) / float64(a.Den()) }

// Cmp compares a with the rational p/q and returns -1, 0 or 1.
func (a Alpha) Cmp(p, q int64) int {
	if q <= 0 {
		panic("game: Cmp with non-positive denominator")
	}
	return CmpProducts(a.num, q, p, a.Den())
}

// LessThanInt reports a < k.
func (a Alpha) LessThanInt(k int64) bool { return a.Cmp(k, 1) < 0 }

// CmpProducts compares a·b with c·d exactly and returns -1, 0 or 1. The
// products are formed in 128 bits, so no int64 operands overflow; every
// exact price comparison (Alpha.Cmp, Cost.Less, the certificate
// endpoints) goes through this arithmetic.
func CmpProducts(a, b, c, d int64) int { return mul128(a, b).cmp(mul128(c, d)) }

// int128 is a two's-complement 128-bit integer: wide enough for any sum
// of two int64 products whose first factors are non-negative.
type int128 struct {
	hi int64
	lo uint64
}

// mul128 returns a·b exactly.
func mul128(a, b int64) int128 {
	hi, lo := bits.Mul64(abs64(a), abs64(b))
	x := int128{int64(hi), lo}
	if (a < 0) != (b < 0) {
		lo, borrow := bits.Sub64(0, x.lo, 0)
		x = int128{-x.hi - int64(borrow), lo}
	}
	return x
}

// abs64 returns |a|, exact for math.MinInt64 too.
func abs64(a int64) uint64 {
	if a < 0 {
		return -uint64(a)
	}
	return uint64(a)
}

func (x int128) add(y int128) int128 {
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	return int128{x.hi + y.hi + int64(carry), lo}
}

func (x int128) cmp(y int128) int {
	switch {
	case x.hi < y.hi, x.hi == y.hi && x.lo < y.lo:
		return -1
	case x == y:
		return 0
	}
	return 1
}

// ParseAlpha parses the forms String renders — "3" or "9/2" — back into
// an exact price, so grids round-trip through flags, lease tables and URLs.
func ParseAlpha(s string) (Alpha, error) {
	if s == "" {
		return Alpha{}, fmt.Errorf("game: empty alpha")
	}
	num, den := s, "1"
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, den = s[:i], s[i+1:]
	}
	p, err1 := strconv.ParseInt(num, 10, 64)
	q, err2 := strconv.ParseInt(den, 10, 64)
	if err1 != nil || err2 != nil {
		return Alpha{}, fmt.Errorf("game: bad alpha %q (want p or p/q)", s)
	}
	return NewAlpha(p, q)
}

// ParseAlphas parses a comma-separated price list ("1/2,1,2"), ignoring
// spaces around each entry: the α-grid grammar of the CLI and the daemon.
func ParseAlphas(s string) ([]Alpha, error) {
	parts := strings.Split(s, ",")
	alphas := make([]Alpha, 0, len(parts))
	for _, p := range parts {
		a, err := ParseAlpha(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		alphas = append(alphas, a)
	}
	return alphas, nil
}

// String renders the price ("3" or "9/2").
func (a Alpha) String() string {
	var buf [41]byte // two int64s and the slash
	return string(a.appendTo(buf[:0]))
}

// MarshalJSON renders the price as its exact string form ("3" or "9/2"),
// never a float, so JSON output is stable and lossless.
func (a Alpha) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 43), '"')
	return append(a.appendTo(b), '"'), nil
}

// appendTo appends the String form of the price to b.
func (a Alpha) appendTo(b []byte) []byte {
	b = strconv.AppendInt(b, a.num, 10)
	if a.Den() != 1 {
		b = strconv.AppendInt(append(b, '/'), a.Den(), 10)
	}
	return b
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
