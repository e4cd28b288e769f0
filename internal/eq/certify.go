package eq

import (
	"fmt"
	"math"

	"repro/internal/game"
	"repro/internal/graph"
)

// This file is the parametric face of the deviation scans: one pass over
// a state's deviation space yields the exact set of edge prices at which
// the state is stable — an AlphaSet — instead of one verdict at one α. It
// runs the same scans as Check (scan.go) with the whole axis [0, ∞) as
// target: instead of testing Cost.Less at one α, each actor contributes
// its improving α-interval from the exact cost deltas, and the stable set
// is the complement of the union of the deviations' intervals.
//
// Two early exits keep certification competitive with a single check:
//
//   - per deviation, the running intersection of the actors' improving
//     intervals is abandoned as soon as it is empty;
//   - per scan, the whole search aborts once the accumulated improving
//     union covers [0, ∞) — a state unstable at every price certifies as
//     fast as Check refutes it.

// Certify returns the exact set of edge prices at which g is stable for
// concept c, reusing the evaluator's BFS, baseline and scan buffers. The
// α carried by gm is irrelevant — only the node count is read — because
// the certificate covers the whole axis; it exists in the signature so
// Certify mirrors Check. The baseline agent costs are α-independent (they
// are exact (unreachable, buy, dist) triples), so one Bind serves both
// CheckBound and CertifyBound.
func (ev *Evaluator) Certify(gm game.Game, g *graph.Graph, c Concept) AlphaSet {
	ev.c.reset(gm, g)
	return ev.c.certify(c)
}

// CertifyBound certifies concept c on the state bound by the last Bind.
// It must not be called before Bind. Every scan restores the graph before
// returning, so CheckBound and CertifyBound can interleave freely on one
// bound state.
func (ev *Evaluator) CertifyBound(c Concept) AlphaSet { return ev.c.certify(c) }

// certify runs concept's scan on the whole-axis target and folds the
// accumulated improving union into the stable AlphaSet.
func (c *checker) certify(concept Concept) AlphaSet {
	c.begin(false)
	c.scan(concept)
	return complementAxis(c.union)
}

// ImprovingIntervalOf is the exported face of the certificate engine's
// per-deviation arithmetic: the exact α-interval on which `after` is
// strictly cheaper than `before` for an agent whose edge price is α·p/q
// (p = q = 1 without a multiplier), and whether it is non-empty. The
// dynamics engine uses it to compare costs at heterogeneous prices and to
// rank improving moves by how far α sits from the price at which they
// stop improving. p and q must satisfy ValidateVariant's bound.
func ImprovingIntervalOf(before, after game.Cost, p, q int64) (AlphaInterval, bool) {
	return improvingIntervalOf(before, after, p, q)
}

// ValidateVariant reports an error unless v is a valid variant for n
// agents (game.Variant.Validate) whose price multipliers keep the exact
// arithmetic of the given concepts in int64. An agent with multiplier p/q
// compares costs through p·ΔBuy and q·ΔDist, so p times the largest
// |ΔBuy| one of the concepts' deviations gives one agent, and q times the
// largest |ΔDist|, must fit. A larger multiplier could put a breakpoint
// outside the int64 rationals, and is refused rather than answered
// wrongly. The dynamics engine's moves are BGE's: removals, purchases and
// swaps.
func ValidateVariant(n int, v game.Variant, concepts []Concept) error {
	if err := v.Validate(n); err != nil {
		return err
	}
	if len(v.Prices) == 0 {
		return nil
	}
	// One deviation of RE, BAE, PS, BSwE or BGE changes an agent's degree
	// by at most one; a neighborhood or coalition deviation (BNE and the
	// concepts after it) by up to n−1.
	buy := int64(1)
	for _, c := range concepts {
		if c >= BNE {
			buy = int64(max(n-1, 1))
		}
	}
	// A distance sum lies in [0, n(n−1)/2], an eccentricity in [0, n−1].
	dist := int64(max(n*(n-1)/2, 1))
	if v.Dist == game.DistMax {
		dist = int64(max(n-1, 1))
	}
	maxP, maxQ := math.MaxInt64/buy, math.MaxInt64/dist
	for _, ap := range v.Prices {
		if ap.Mul.Num() > maxP || ap.Mul.Den() > maxQ {
			return fmt.Errorf("eq: price multiplier %s for agent %d is out of exact range on %d nodes (numerator at most %d, denominator at most %d)",
				ap.Mul, ap.Agent, n, maxP, maxQ)
		}
	}
	return nil
}

// Contains reports whether α lies in the interval.
func (iv AlphaInterval) Contains(a game.Alpha) bool {
	return iv.contains(ratOfAlpha(a))
}

// improvingIntervalOf returns the exact α-interval on which `after` is
// strictly cheaper than `before` under the lexicographic cost order at
// edge price α·p/q, and whether that interval is non-empty. With equal
// reachability the comparison α·(p/q)·ΔBuy + ΔDist < 0 clears
// denominators as α·(p·ΔBuy) + q·ΔDist < 0, which flips at the single
// rational breakpoint α* = −q·ΔDist/(p·ΔBuy) — still exact in the global
// α. ValidateVariant keeps both products in int64. Unequal reachability
// decides independently of α (the paper's M > α·n³ disconnection price).
func improvingIntervalOf(before, after game.Cost, p, q int64) (AlphaInterval, bool) {
	if after.Unreachable != before.Unreachable {
		if after.Unreachable < before.Unreachable {
			return fullAxis(), true
		}
		return AlphaInterval{}, false
	}
	dBuy := (after.Buy - before.Buy) * p
	dDist := (after.Dist - before.Dist) * q
	switch {
	case dBuy == 0:
		if dDist < 0 {
			return fullAxis(), true
		}
		return AlphaInterval{}, false
	case dBuy > 0:
		// Improves iff α < −ΔDist/ΔBuy: a half-open prefix of the axis.
		if dDist >= 0 {
			return AlphaInterval{}, false // breakpoint at or below 0
		}
		return AlphaInterval{Lo: RatOf(0, 1), Hi: RatOf(-dDist, dBuy), HiOpen: true}, true
	default:
		// Improves iff α > ΔDist/(−ΔBuy): an open suffix of the axis.
		if dDist < 0 {
			return fullAxis(), true // breakpoint below 0
		}
		return AlphaInterval{Lo: RatOf(dDist, -dBuy), LoOpen: true, Hi: RatInf()}, true
	}
}

// improvingInterval returns agent u's improving interval from her cost
// `after` in the current (mutated) graph against the bound baseline, at
// her price multiplier.
func (c *checker) improvingInterval(u int, after game.Cost) (AlphaInterval, bool) {
	if c.hetero {
		return improvingIntervalOf(c.base[u], after, c.pmul[u], c.qmul[u])
	}
	return improvingIntervalOf(c.base[u], after, 1, 1)
}
