package eq

import (
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
// concept c. The α carried by gm is irrelevant — only the node count is
// read — because the certificate covers the whole axis; it exists in the
// signature so Certify mirrors Check. Like Check it allocates fresh
// buffers per call; hot loops use Evaluator.Certify or
// Evaluator.CertifyBound.
func Certify(gm game.Game, g *graph.Graph, c Concept) AlphaSet {
	var ch checker
	ch.reset(gm, g)
	return ch.certify(c)
}

// Certify is the evaluator counterpart of the package-level Certify,
// reusing the evaluator's BFS, baseline and scan buffers. The baseline
// agent costs are α-independent (they are exact (unreachable, buy, dist)
// triples), so one Bind serves both CheckBound and CertifyBound.
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
// strictly cheaper than `before`, and whether it is non-empty. The
// breakpoint-guided dynamics scheduler uses it to rank improving moves by
// how far α sits from the price at which they stop improving. Heterogeneous
// price multipliers are the caller's concern: scale both costs by the
// agent's (p, q) first, exactly as Certify does.
func ImprovingIntervalOf(before, after game.Cost) (AlphaInterval, bool) {
	return improvingIntervalOf(before, after)
}

// Contains reports whether α lies in the interval.
func (iv AlphaInterval) Contains(a game.Alpha) bool {
	return iv.contains(ratOfAlpha(a))
}

// improvingIntervalOf returns the exact α-interval on which `after` is
// strictly cheaper than `before` under the lexicographic cost order, and
// whether that interval is non-empty. With equal reachability the
// comparison is num·ΔBuy + den·ΔDist < 0, which flips at the single
// rational breakpoint α* = −ΔDist/ΔBuy; unequal reachability decides
// independently of α (the paper's M > α·n³ disconnection price).
func improvingIntervalOf(before, after game.Cost) (AlphaInterval, bool) {
	if after.Unreachable != before.Unreachable {
		if after.Unreachable < before.Unreachable {
			return fullAxis(), true
		}
		return AlphaInterval{}, false
	}
	dBuy := after.Buy - before.Buy
	dDist := after.Dist - before.Dist
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
// `after` in the current (mutated) graph against the bound baseline. With
// a price multiplier p/q on agent u the improving condition
// α·(p/q)·ΔBuy + ΔDist < 0 clears denominators as
// α·(p·ΔBuy) + (q·ΔDist) < 0, so scaling both costs' (Buy, Dist) by (p, q)
// reduces the heterogeneous case to the uniform interval computation with
// the breakpoints still exact in the global α.
func (c *checker) improvingInterval(u int, after game.Cost) (AlphaInterval, bool) {
	before := c.base[u]
	if c.hetero {
		p, q := c.pmul[u], c.qmul[u]
		before = game.Cost{Unreachable: before.Unreachable, Buy: before.Buy * p, Dist: before.Dist * q}
		after = game.Cost{Unreachable: after.Unreachable, Buy: after.Buy * p, Dist: after.Dist * q}
	}
	return improvingIntervalOf(before, after)
}
