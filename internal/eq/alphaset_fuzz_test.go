package eq

import (
	"math"
	"math/big"
	"slices"
	"testing"
)

// refCmp is the math/big reference order on α-axis endpoints, +∞ (a zero
// denominator) above every finite point.
func refCmp(a, b Rat) int {
	switch {
	case a.IsInf() && b.IsInf():
		return 0
	case a.IsInf():
		return 1
	case b.IsInf():
		return -1
	}
	return big.NewRat(a.Num, a.Den).Cmp(big.NewRat(b.Num, b.Den))
}

// refValid is the math/big reference for NewAlphaSet on non-negative
// endpoints: finite lower ends, no open end at +∞, non-empty intervals,
// and each interval strictly below the next (touching only where at
// least one of the shared endpoints is open).
func refValid(ivs []AlphaInterval) bool {
	for i, iv := range ivs {
		if iv.Lo.IsInf() || iv.Hi.IsInf() && iv.HiOpen {
			return false
		}
		if c := refCmp(iv.Lo, iv.Hi); c > 0 || c == 0 && (iv.LoOpen || iv.HiOpen) {
			return false
		}
		if i > 0 {
			prev := ivs[i-1]
			if c := refCmp(prev.Hi, iv.Lo); c > 0 || c == 0 && !prev.HiOpen && !iv.LoOpen {
				return false
			}
		}
	}
	return true
}

// FuzzRatCmp is the differential for the one endpoint comparison: over
// the whole non-negative int64 range, +∞ included (a zero denominator),
// Rat.Cmp must agree with math/big on every pair of four fuzzed
// endpoints, and NewAlphaSet must accept exactly the one- or
// two-interval lists the math/big reference validator accepts, keeping
// every endpoint as given. The seeds include [2^62, 2^62/3], which an
// int64 cross-multiplying comparison wrongly ordered.
func FuzzRatCmp(f *testing.F) {
	f.Add(uint64(1<<62), uint64(1), uint64(1<<62), uint64(3), uint64(0), uint64(1), uint64(1), uint64(0), uint8(0))
	f.Add(uint64(math.MaxInt64), uint64(math.MaxInt64-1), uint64(math.MaxInt64-1), uint64(math.MaxInt64-2), uint64(1), uint64(2), uint64(1), uint64(0), uint8(16))
	f.Add(uint64(0), uint64(1), uint64(1), uint64(2), uint64(2), uint64(4), uint64(3), uint64(1), uint8(18))
	f.Add(uint64(1), uint64(2), uint64(1), uint64(2), uint64(1), uint64(2), uint64(5), uint64(0), uint8(31))
	f.Fuzz(func(t *testing.T, n1, d1, n2, d2, n3, d3, n4, d4 uint64, flags uint8) {
		rat := func(num, den uint64) Rat {
			r := Rat{Num: int64(num & math.MaxInt64), Den: int64(den & math.MaxInt64)}
			if r.Den == 0 {
				r = RatInf()
			}
			return r
		}
		rs := []Rat{rat(n1, d1), rat(n2, d2), rat(n3, d3), rat(n4, d4)}
		for _, a := range rs {
			for _, b := range rs {
				if got, want := a.Cmp(b), refCmp(a, b); got != want {
					t.Fatalf("(%d/%d).Cmp(%d/%d) = %d, math/big says %d", a.Num, a.Den, b.Num, b.Den, got, want)
				}
			}
		}
		ivs := []AlphaInterval{{Lo: rs[0], Hi: rs[1], LoOpen: flags&1 != 0, HiOpen: flags&2 != 0}}
		if flags&16 != 0 {
			ivs = append(ivs, AlphaInterval{Lo: rs[2], Hi: rs[3], LoOpen: flags&4 != 0, HiOpen: flags&8 != 0})
		}
		set, err := NewAlphaSet(ivs)
		if want := refValid(ivs); (err == nil) != want {
			t.Fatalf("NewAlphaSet(%v) error %v, math/big reference valid=%v", ivs, err, want)
		}
		if err == nil && !slices.Equal(set.ivs, ivs) {
			t.Fatalf("NewAlphaSet changed the endpoints: %v -> %v", ivs, set.ivs)
		}
	})
}
