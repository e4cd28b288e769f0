package eq

import (
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"

	"repro/internal/game"
)

// This file implements the exact α-interval arithmetic behind the
// parametric certificates: every deviation of every solution concept
// improves its actors on a single interval of edge prices (costs compare
// by the α-linear form num·Buy + den·Dist, so each comparison flips at one
// rational breakpoint α* = −ΔDist/ΔBuy), and a state's stable-α set is the
// complement of the union of those intervals within [0, ∞). All endpoint
// arithmetic is exact int64 rational — no floats ever enter a verdict.

// Rat is an exact non-negative rational α-axis point num/den, or +∞
// (Den == 0 by convention). Finite values keep Den > 0. RatOf reduces,
// but endpoints decoded from a store keep their encoded form, so compare
// endpoints with Cmp, not ==.
type Rat struct {
	Num, Den int64
}

// RatOf returns the reduced rational num/den. It panics on den <= 0 or
// num < 0: certificate endpoints live on the α-axis [0, ∞).
func RatOf(num, den int64) Rat {
	if den <= 0 || num < 0 {
		panic("eq: rational endpoint outside [0, ∞)")
	}
	g := gcdRat(num, den)
	return Rat{Num: num / g, Den: den / g}
}

func gcdRat(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// RatInf returns the +∞ endpoint.
func RatInf() Rat { return Rat{Num: 1, Den: 0} }

// IsInf reports whether r is +∞.
func (r Rat) IsInf() bool { return r.Den == 0 }

// Cmp compares two endpoints exactly, returning -1, 0 or 1, by the
// 128-bit cross products of game.CmpProducts: exact over the whole
// non-negative int64 range. Giving +∞ the numerator 1 makes the same
// products order it above every finite point (num·0 < 1·den) and equal
// to itself.
func (r Rat) Cmp(o Rat) int {
	rNum, oNum := r.Num, o.Num
	if r.Den == 0 {
		rNum = 1
	}
	if o.Den == 0 {
		oNum = 1
	}
	return game.CmpProducts(rNum, o.Den, oNum, r.Den)
}

// Alpha converts a finite endpoint to a game.Alpha. It panics on +∞.
func (r Rat) Alpha() game.Alpha {
	a, err := game.NewAlpha(r.Num, r.Den)
	if err != nil {
		panic("eq: infinite endpoint has no α value")
	}
	return a
}

// String renders the endpoint ("3", "9/2" or "∞").
func (r Rat) String() string {
	if r.IsInf() {
		return "∞"
	}
	return r.Alpha().String()
}

func ratOfAlpha(a game.Alpha) Rat { return Rat{Num: a.Num(), Den: a.Den()} }

// AlphaInterval is one interval of an AlphaSet: Lo..Hi with each finite
// endpoint either included (closed) or excluded (open). Hi may be +∞, in
// which case HiOpen is irrelevant and kept false.
type AlphaInterval struct {
	Lo, Hi         Rat
	LoOpen, HiOpen bool
}

// empty reports whether the interval contains no point.
func (iv AlphaInterval) empty() bool {
	switch iv.Lo.Cmp(iv.Hi) {
	case -1:
		return false
	case 0:
		return iv.LoOpen || iv.HiOpen
	default:
		return true
	}
}

// contains reports whether the exact point p lies in the interval.
func (iv AlphaInterval) contains(p Rat) bool {
	switch iv.Lo.Cmp(p) {
	case 1:
		return false
	case 0:
		if iv.LoOpen {
			return false
		}
	}
	switch p.Cmp(iv.Hi) {
	case 1:
		return false
	case 0:
		if iv.HiOpen {
			return false
		}
	}
	return true
}

// String renders the interval with standard bracket notation.
func (iv AlphaInterval) String() string {
	var b strings.Builder
	if iv.LoOpen {
		b.WriteByte('(')
	} else {
		b.WriteByte('[')
	}
	b.WriteString(iv.Lo.String())
	b.WriteString(", ")
	b.WriteString(iv.Hi.String())
	if iv.HiOpen || iv.Hi.IsInf() {
		b.WriteByte(')')
	} else {
		b.WriteByte(']')
	}
	return b.String()
}

// intersect returns the intersection of two intervals (possibly empty).
func intersect(a, b AlphaInterval) AlphaInterval {
	out := a
	switch c := b.Lo.Cmp(out.Lo); {
	case c > 0:
		out.Lo, out.LoOpen = b.Lo, b.LoOpen
	case c == 0:
		out.LoOpen = out.LoOpen || b.LoOpen
	}
	switch c := b.Hi.Cmp(out.Hi); {
	case c < 0:
		out.Hi, out.HiOpen = b.Hi, b.HiOpen
	case c == 0:
		out.HiOpen = out.HiOpen || b.HiOpen
	}
	return out
}

// fullAxis is the whole α-axis [0, ∞).
func fullAxis() AlphaInterval {
	return AlphaInterval{Lo: Rat{Num: 0, Den: 1}, Hi: RatInf()}
}

// AlphaSet is a finite union of disjoint, sorted α intervals within
// [0, ∞) — the exact set of edge prices at which one state is stable for
// one solution concept. The zero value is the empty set. An AlphaSet is
// immutable after construction and safe to share between goroutines.
type AlphaSet struct {
	ivs []AlphaInterval
}

// NewAlphaSet builds an AlphaSet from a copy of ivs, or fails when they
// are not a valid certificate (see Validate). This is the check a
// certificate passes on its way out of a store, so a corrupted record can
// never answer queries.
func NewAlphaSet(ivs []AlphaInterval) (AlphaSet, error) {
	if err := validIntervals(ivs); err != nil {
		return AlphaSet{}, err
	}
	return AlphaSet{ivs: append([]AlphaInterval(nil), ivs...)}, nil
}

// Validate checks s in place against NewAlphaSet's conditions: every
// interval has a finite non-negative lower endpoint and a non-negative
// upper endpoint (HiOpen false when it is +∞), contains at least one
// price, and lies strictly below the next with a gap or a shared endpoint
// that is not included twice. All comparisons are exact. Every
// constructor keeps these conditions; a store checks them again before it
// writes s, because a frame that decode refuses would cut recovery short.
func (s AlphaSet) Validate() error { return validIntervals(s.ivs) }

func validIntervals(ivs []AlphaInterval) error {
	for i, iv := range ivs {
		switch {
		case iv.Lo.IsInf() || iv.Lo.Num < 0 || iv.Lo.Den < 0:
			return fmt.Errorf("eq: interval %d has lower endpoint %d/%d outside [0, ∞)", i, iv.Lo.Num, iv.Lo.Den)
		case iv.Hi.Num < 0 || iv.Hi.Den < 0:
			return fmt.Errorf("eq: interval %d has upper endpoint %d/%d outside [0, ∞]", i, iv.Hi.Num, iv.Hi.Den)
		case iv.Hi.IsInf() && iv.HiOpen:
			return fmt.Errorf("eq: interval %d is open at ∞", i)
		case iv.empty():
			return fmt.Errorf("eq: interval %d %s is empty", i, iv)
		case i > 0 && !ivs[i-1].disjointBelow(iv):
			return fmt.Errorf("eq: intervals %d and %d are unsorted or overlap", i-1, i)
		}
	}
	return nil
}

// disjointBelow reports whether a lies strictly below b with a genuine gap
// or touching endpoints that are not both included.
func (iv AlphaInterval) disjointBelow(b AlphaInterval) bool {
	switch c := iv.Hi.Cmp(b.Lo); {
	case c < 0:
		return true
	case c == 0:
		return iv.HiOpen || b.LoOpen
	default:
		return false
	}
}

// IsEmpty reports whether the set contains no price.
func (s AlphaSet) IsEmpty() bool { return len(s.ivs) == 0 }

// Len returns the number of intervals in the set.
func (s AlphaSet) Len() int { return len(s.ivs) }

// All yields the set's intervals in increasing order, with their indices,
// without copying them.
func (s AlphaSet) All() iter.Seq2[int, AlphaInterval] { return slices.All(s.ivs) }

// Contains reports whether the exact price alpha lies in the set, by
// binary search over the interval endpoints — O(log B) per query, the
// whole point of answering a dense α-grid from one certificate.
func (s AlphaSet) Contains(alpha game.Alpha) bool {
	p := ratOfAlpha(alpha)
	// First interval whose Hi is not below p.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi.Cmp(p) >= 0 })
	return i < len(s.ivs) && s.ivs[i].contains(p)
}

// ContainsAbove reports whether the set holds every price in (alpha,
// alpha+ε) for some ε > 0: its verdict just above alpha, read from the
// interval endpoints without constructing a price there.
func (s AlphaSet) ContainsAbove(alpha game.Alpha) bool {
	p := ratOfAlpha(alpha)
	// First interval whose Hi lies above p.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi.Cmp(p) > 0 })
	return i < len(s.ivs) && s.ivs[i].Lo.Cmp(p) <= 0
}

// Equal reports exact set equality.
func (s AlphaSet) Equal(o AlphaSet) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i, iv := range s.ivs {
		ov := o.ivs[i]
		if iv.Lo.Cmp(ov.Lo) != 0 || iv.Hi.Cmp(ov.Hi) != 0 ||
			iv.LoOpen != ov.LoOpen || (iv.HiOpen != ov.HiOpen && !iv.Hi.IsInf()) {
			return false
		}
	}
	return true
}

// Breakpoints returns the exact critical prices at which the verdict
// flips, in increasing order. A closed start at 0 is not a breakpoint —
// there is no price below it to flip from; every other finite endpoint
// separates membership on its two sides.
func (s AlphaSet) Breakpoints() []game.Alpha {
	var out []game.Alpha
	add := func(r Rat) {
		if len(out) == 0 || ratOfAlpha(out[len(out)-1]).Cmp(r) != 0 {
			out = append(out, r.Alpha())
		}
	}
	for _, iv := range s.ivs {
		if !(iv.Lo.Cmp(RatOf(0, 1)) == 0 && !iv.LoOpen) {
			add(iv.Lo)
		}
		if !iv.Hi.IsInf() {
			add(iv.Hi)
		}
	}
	return out
}

// String renders the set ("∅", "[0, 1/2] ∪ (2, ∞)").
func (s AlphaSet) String() string {
	if len(s.ivs) == 0 {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}

// MarshalJSON renders the set as its exact string form, so certificates
// appear in JSON as human-readable interval notation and never as floats.
func (s AlphaSet) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('"')
	b.WriteString(s.String())
	b.WriteByte('"')
	return []byte(b.String()), nil
}

// ---- union accumulation and complement ----

// unionAdd inserts iv into the sorted disjoint union ivs, merging every
// interval it overlaps or touches-with-coverage, and returns the new
// union. Touching open endpoints ((a,b) then (b,c)) do NOT merge: the
// point b stays uncovered, which the complement must see — it is exactly
// the degenerate single-price stable point.
//
// The slice is edited in place (the certificate scans call this once per
// improving deviation, millions of times per sweep); it only allocates
// when a genuine insertion outgrows the capacity.
func unionAdd(ivs []AlphaInterval, iv AlphaInterval) []AlphaInterval {
	if iv.empty() {
		return ivs
	}
	// Find the window [i, j) of intervals connected to iv.
	i := 0
	for i < len(ivs) && ivs[i].disjointBelow(iv) {
		i++
	}
	j := i
	for j < len(ivs) && !iv.disjointBelow(ivs[j]) {
		j++
	}
	if i < j {
		// Merge with the connected run.
		first, last := ivs[i], ivs[j-1]
		switch c := first.Lo.Cmp(iv.Lo); {
		case c < 0:
			iv.Lo, iv.LoOpen = first.Lo, first.LoOpen
		case c == 0:
			iv.LoOpen = iv.LoOpen && first.LoOpen
		}
		switch c := last.Hi.Cmp(iv.Hi); {
		case c > 0:
			iv.Hi, iv.HiOpen = last.Hi, last.HiOpen
		case c == 0:
			iv.HiOpen = iv.HiOpen && last.HiOpen
		}
		ivs[i] = iv
		if j > i+1 {
			ivs = append(ivs[:i+1], ivs[j:]...)
		}
		return ivs
	}
	// Pure insertion at i.
	ivs = append(ivs, AlphaInterval{})
	copy(ivs[i+1:], ivs[i:])
	ivs[i] = iv
	return ivs
}

// coversAxis reports whether the union is the whole axis [0, ∞) — the
// certificate scans' early-exit: once every price has an improving
// deviation, no further scanning can change the (empty) stable set.
func coversAxis(ivs []AlphaInterval) bool {
	return len(ivs) == 1 &&
		ivs[0].Lo.Cmp(RatOf(0, 1)) == 0 && !ivs[0].LoOpen &&
		ivs[0].Hi.IsInf()
}

// complementAxis returns [0, ∞) minus the sorted disjoint union ivs: the
// stable set, whose finite endpoints are exactly the union's endpoints
// with inverted openness (a strict-improvement comparison is indifferent
// at its breakpoint, so stable sets are closed where improving sets were
// open — including degenerate single-point intervals between two touching
// open improving intervals).
func complementAxis(ivs []AlphaInterval) AlphaSet {
	var out []AlphaInterval
	lo, loOpen := RatOf(0, 1), false
	for _, iv := range ivs {
		gap := AlphaInterval{Lo: lo, LoOpen: loOpen, Hi: iv.Lo, HiOpen: !iv.LoOpen}
		if iv.Lo.IsInf() {
			gap.HiOpen = false
		}
		if !gap.empty() {
			out = append(out, gap)
		}
		if iv.Hi.IsInf() {
			return AlphaSet{ivs: out}
		}
		lo, loOpen = iv.Hi, !iv.HiOpen
	}
	out = append(out, AlphaInterval{Lo: lo, LoOpen: loOpen, Hi: RatInf()})
	return AlphaSet{ivs: out}
}
