package dynamics

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// Scheduler selects the candidate-scan policy of the incremental engine.
type Scheduler int

const (
	// SchedulerUniform scans the pair pool in a fresh uniformly random
	// order every step and takes the first improving move — the classic
	// randomized best-response walk, and the default. The order is drawn
	// lazily, one rng.Intn per pair examined, so the committed pair is
	// uniform over the pairs with an improving candidate (candidates
	// inside a pair keep their fixed order).
	SchedulerUniform Scheduler = iota
	// SchedulerRoundRobin scans pairs in a fixed cyclic order, resuming
	// each scan where the previous improving move was found. No
	// randomness: the walk is fully determined by the initial state.
	SchedulerRoundRobin
	// SchedulerBreakpoint scans every candidate and plays the improving
	// move whose exact α-interval (eq.ImprovingIntervalOf — the same
	// arithmetic that powers Evaluator.Certify) keeps α farthest from its
	// breakpoints: the move that stays improving under the largest price
	// perturbation. Deterministic; costs a full scan per step.
	SchedulerBreakpoint
)

// ParseScheduler parses "uniform", "roundrobin" or "breakpoint".
func ParseScheduler(s string) (Scheduler, bool) {
	switch s {
	case "", "uniform":
		return SchedulerUniform, true
	case "roundrobin", "round-robin":
		return SchedulerRoundRobin, true
	case "breakpoint", "breakpoint-guided":
		return SchedulerBreakpoint, true
	}
	return 0, false
}

// ParseMoves parses a move set named by its target concept: "ps" (or
// "") is removals and additions, "bge" adds swaps.
func ParseMoves(s string) ([]Kind, error) {
	switch s {
	case "", "ps":
		return []Kind{RemoveKind, AddKind}, nil
	case "bge":
		return []Kind{RemoveKind, AddKind, SwapKind}, nil
	}
	return nil, fmt.Errorf("dynamics: unknown move set %q (want ps or bge)", s)
}

func (s Scheduler) String() string {
	switch s {
	case SchedulerRoundRobin:
		return "roundrobin"
	case SchedulerBreakpoint:
		return "breakpoint"
	default:
		return "uniform"
	}
}

// candidate is an unboxed move: probes never build move.Move values, only
// the one move per step that actually commits gets boxed for the history.
type candidate struct {
	kind Kind
	u, v int // Remove: drop (u,v), actor u. Add: buy (u,v), actors u,v.
	w    int // Swap: u trades old neighbor v for w, actors u,w.
}

// engine is the incremental-distance dynamics core. It owns the graph
// through an IncDist kernel, and only commits mutate the kernel: probes
// read it. An edge purchase is priced in closed form from the two
// endpoints' live distance rows (addCost). Removal and swap probes toggle
// the edges on the graph alone, price each actor with one aggregate-only
// BFS (BFSAggregates), and restore the graph before the next kernel call.
// The pair pool, scan permutation and BFS scratch are allocated once per
// run.
type engine struct {
	gm    game.Game
	g     *graph.Graph
	inc   *graph.IncDist
	sched Scheduler

	pairs  []graph.Edge // all u<v pairs, fixed for the run
	order  []int32      // scan permutation over pairs, redrawn lazily (uniform scheduler)
	cursor int          // round-robin resume position

	examined int // pairs examined by all scans so far (Trace.PairsExamined)

	allowRemove, allowAdd, allowSwap bool
	hetero                           bool
	maxDist                          bool
	alphaF                           float64 // α as float, for breakpoint margins

	nbuf []int // neighbor snapshot: probes mutate adjacency in place
	bfs  graph.BFSScratch
}

func newEngine(gm game.Game, g *graph.Graph, opts Options) *engine {
	n := g.N()
	e := &engine{
		gm:      gm,
		g:       g,
		inc:     graph.NewIncDist(g),
		sched:   opts.Scheduler,
		pairs:   make([]graph.Edge, 0, n*(n-1)/2),
		hetero:  len(gm.Variant.Prices) > 0,
		maxDist: gm.Variant.Dist == game.DistMax,
		alphaF:  gm.Alpha.Float(),
		nbuf:    make([]int, 0, n),
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			e.pairs = append(e.pairs, graph.Edge{U: u, V: v})
		}
	}
	e.order = make([]int32, len(e.pairs))
	for i := range e.order {
		e.order[i] = int32(i)
	}
	for _, k := range opts.Kinds {
		switch k {
		case RemoveKind:
			e.allowRemove = true
		case AddKind:
			e.allowAdd = true
		case SwapKind:
			e.allowSwap = true
		}
	}
	return e
}

// cost reads agent a's current cost off the kernel aggregates: O(1) for
// the SUM aggregate, one row scan for MAX.
func (e *engine) cost(a int) game.Cost {
	c := game.Cost{
		Unreachable: int64(e.inc.UnreachableFrom(a)),
		Buy:         int64(e.g.Degree(a)),
	}
	if e.maxDist {
		c.Dist = e.inc.MaxDist(a)
	} else {
		c.Dist = e.inc.SumDist(a)
	}
	return c
}

// addCost returns agent a's cost after buying the absent edge (a,b),
// read off the live rows of a and b in one pass without touching the
// graph: every shortest path the new edge creates from a starts with it,
// so d'(a,x) = min(d(a,x), 1+d(b,x)). Widening each entry through uint32
// to 64 bits turns Unreachable (−1) into 2³²−1, above every distance, so
// the merge is branch-free mins and an x that stays unreachable adds
// exactly 2³²−1 to the sum; truncated back to int32 it is −1 again and
// drops out of the eccentricity. How many stay unreachable needs no scan:
// if a already reaches b the purchase joins no components and a's count
// stands; otherwise b's whole component, its n − unreach[b] vertices,
// becomes reachable.
func (e *engine) addCost(a, b int) game.Cost {
	rowA, rowB := e.inc.Row(a), e.inc.Row(b)
	rowB = rowB[:len(rowA)]
	var sum uint64
	var ecc int32
	for x, d := range rowA {
		nd := min(uint64(uint32(d)), uint64(uint32(rowB[x]))+1)
		sum += nd
		ecc = max(ecc, int32(nd))
	}
	unreach := e.inc.UnreachableFrom(a)
	if rowA[b] < 0 {
		unreach -= len(rowA) - e.inc.UnreachableFrom(b)
	}
	sum -= uint64(unreach) * math.MaxUint32
	c := game.Cost{Unreachable: int64(unreach), Buy: int64(e.g.Degree(a)) + 1, Dist: int64(sum)}
	if e.maxDist {
		c.Dist = int64(ecc)
	}
	return c
}

// bfsCost returns agent a's cost on the graph as it stands, with one
// aggregate-only BFS. Probes call it while a removal or swap is toggled on
// the graph and the kernel is stale.
func (e *engine) bfsCost(a int) game.Cost {
	sum, unreach, ecc := e.g.BFSAggregates(a, &e.bfs)
	c := game.Cost{Unreachable: int64(unreach), Buy: int64(e.g.Degree(a)), Dist: sum}
	if e.maxDist {
		c.Dist = int64(ecc)
	}
	return c
}

// improves mirrors eq's checker.improves: strict lexicographic improvement
// at the agent's effective price, which for a multiplied agent is whether
// her exact improving interval holds α.
func (e *engine) improves(a int, before, after game.Cost) bool {
	if !e.hetero {
		return after.Less(before, e.gm.Alpha)
	}
	iv, ok := e.interval(a, before, after)
	return ok && iv.Contains(e.gm.Alpha)
}

// interval returns agent a's exact improving α-interval at her price
// multiplier.
func (e *engine) interval(a int, before, after game.Cost) (eq.AlphaInterval, bool) {
	p, q := e.gm.Variant.MulFor(a)
	return eq.ImprovingIntervalOf(before, after, p, q)
}

// toggle plays a removal or swap candidate on the graph alone: u drops
// (u,v) and, for a swap, buys (u,w). The kernel goes stale until untoggle.
func (e *engine) toggle(c candidate) {
	e.g.RemoveEdge(c.u, c.v)
	if c.kind == SwapKind {
		e.g.AddEdge(c.u, c.w)
	}
}

// untoggle restores the graph a toggle changed. Neighbor lists are kept
// sorted, so they come back in the same order.
func (e *engine) untoggle(c candidate) {
	if c.kind == SwapKind {
		e.g.RemoveEdge(c.u, c.w)
	}
	e.g.AddEdge(c.u, c.v)
}

// probe reports whether c strictly improves all its actors (the sets
// move.Move.Actors() reports): u for a removal, u and v for an add, u
// and w for a swap. A swap's second actor is priced only if u improves.
func (e *engine) probe(c candidate) bool {
	if c.kind == AddKind {
		return e.improves(c.u, e.cost(c.u), e.addCost(c.u, c.v)) &&
			e.improves(c.v, e.cost(c.v), e.addCost(c.v, c.u))
	}
	b0 := e.cost(c.u)
	var b1 game.Cost
	if c.kind == SwapKind {
		b1 = e.cost(c.w)
	}
	e.toggle(c)
	ok := e.improves(c.u, b0, e.bfsCost(c.u))
	if ok && c.kind == SwapKind {
		ok = e.improves(c.w, b1, e.bfsCost(c.w))
	}
	e.untoggle(c)
	return ok
}

// probeMargin is probe for the breakpoint scheduler: when c improves, it
// also returns how far α sits from the nearest breakpoint of the move's
// exact improving interval (the minimum over actors; +Inf when the move
// improves at every price).
func (e *engine) probeMargin(c candidate) (float64, bool) {
	if c.kind == AddKind {
		m0, ok := e.actorMargin(c.u, e.cost(c.u), e.addCost(c.u, c.v))
		if !ok {
			return 0, false
		}
		m1, ok := e.actorMargin(c.v, e.cost(c.v), e.addCost(c.v, c.u))
		return math.Min(m0, m1), ok
	}
	b0 := e.cost(c.u)
	var b1 game.Cost
	if c.kind == SwapKind {
		b1 = e.cost(c.w)
	}
	e.toggle(c)
	margin, ok := e.actorMargin(c.u, b0, e.bfsCost(c.u))
	if ok && c.kind == SwapKind {
		var m1 float64
		if m1, ok = e.actorMargin(c.w, b1, e.bfsCost(c.w)); ok && m1 < margin {
			margin = m1
		}
	}
	e.untoggle(c)
	return margin, ok
}

// actorMargin computes agent a's exact improving interval via the
// certificate arithmetic and returns α's distance to its boundary.
func (e *engine) actorMargin(a int, before, after game.Cost) (float64, bool) {
	iv, ok := e.interval(a, before, after)
	if !ok || !iv.Contains(e.gm.Alpha) {
		return 0, false
	}
	margin := math.Inf(1)
	if !iv.Lo.IsInf() {
		margin = e.alphaF - float64(iv.Lo.Num)/float64(iv.Lo.Den)
	}
	if !iv.Hi.IsInf() {
		if m := float64(iv.Hi.Num)/float64(iv.Hi.Den) - e.alphaF; m < margin {
			margin = m
		}
	}
	return margin, true
}

// tryPair probes every allowed candidate over the pair (u,v) in a fixed
// order and returns the first improving one.
func (e *engine) tryPair(p graph.Edge) (candidate, bool) {
	u, v := p.U, p.V
	if e.g.HasEdge(u, v) {
		if e.allowRemove {
			if c := (candidate{kind: RemoveKind, u: u, v: v}); e.probe(c) {
				return c, true
			}
			if c := (candidate{kind: RemoveKind, u: v, v: u}); e.probe(c) {
				return c, true
			}
		}
		return candidate{}, false
	}
	if e.allowAdd {
		if c := (candidate{kind: AddKind, u: u, v: v}); e.probe(c) {
			return c, true
		}
	}
	if e.allowSwap {
		if c, ok := e.trySwaps(u, v); ok {
			return c, true
		}
		if c, ok := e.trySwaps(v, u); ok {
			return c, true
		}
	}
	return candidate{}, false
}

// trySwaps probes u trading each current neighbor for the non-neighbor w.
// The neighbor list is snapshotted first: probes mutate it in place.
func (e *engine) trySwaps(u, w int) (candidate, bool) {
	e.nbuf = append(e.nbuf[:0], e.g.Neighbors(u)...)
	for _, old := range e.nbuf {
		if c := (candidate{kind: SwapKind, u: u, v: old, w: w}); e.probe(c) {
			return c, true
		}
	}
	return candidate{}, false
}

// find locates the next move under the configured scheduler.
func (e *engine) find(rng *rand.Rand) (candidate, bool) {
	switch e.sched {
	case SchedulerRoundRobin:
		return e.findRoundRobin()
	case SchedulerBreakpoint:
		return e.findBreakpoint()
	default:
		return e.findUniform(rng)
	}
}

// findUniform scans the pairs in a fresh uniformly random order and
// returns the first improving candidate. The order is drawn lazily by a
// forward Fisher–Yates over the persistent permutation: position k is
// fixed (one rng.Intn) just before pair k is probed, so a scan that
// commits the k-th pair it examines consumes k draws, and only a
// converging scan pays for a full permutation. Whatever permutation the
// previous scan left behind, the order drawn is uniform, so the committed
// pair is uniform over the pairs that have an improving candidate — the
// same distribution a full shuffle gives.
func (e *engine) findUniform(rng *rand.Rand) (candidate, bool) {
	ord := e.order
	for k := range ord {
		j := k + rng.Intn(len(ord)-k)
		ord[k], ord[j] = ord[j], ord[k]
		if c, ok := e.tryPair(e.pairs[ord[k]]); ok {
			e.examined += k + 1
			return c, true
		}
	}
	e.examined += len(ord)
	return candidate{}, false
}

// findRoundRobin scans the cyclic pair order starting where the previous
// improving move was found (the same pair may improve again).
func (e *engine) findRoundRobin() (candidate, bool) {
	n := len(e.pairs)
	for k := 0; k < n; k++ {
		idx := e.cursor + k
		if idx >= n {
			idx -= n
		}
		if c, ok := e.tryPair(e.pairs[idx]); ok {
			e.cursor = idx
			e.examined += k + 1
			return c, true
		}
	}
	e.examined += n
	return candidate{}, false
}

// findBreakpoint scans every candidate and keeps the improving move with
// the largest breakpoint margin; ties keep the first in pair order.
func (e *engine) findBreakpoint() (candidate, bool) {
	var best candidate
	bestMargin := math.Inf(-1)
	found := false
	consider := func(c candidate) {
		if m, ok := e.probeMargin(c); ok && m > bestMargin {
			best, bestMargin, found = c, m, true
		}
	}
	e.examined += len(e.pairs)
	for _, p := range e.pairs {
		u, v := p.U, p.V
		if e.g.HasEdge(u, v) {
			if e.allowRemove {
				consider(candidate{kind: RemoveKind, u: u, v: v})
				consider(candidate{kind: RemoveKind, u: v, v: u})
			}
			continue
		}
		if e.allowAdd {
			consider(candidate{kind: AddKind, u: u, v: v})
		}
		if e.allowSwap {
			e.nbuf = append(e.nbuf[:0], e.g.Neighbors(u)...)
			for _, old := range e.nbuf {
				consider(candidate{kind: SwapKind, u: u, v: old, w: v})
			}
			e.nbuf = append(e.nbuf[:0], e.g.Neighbors(v)...)
			for _, old := range e.nbuf {
				consider(candidate{kind: SwapKind, u: v, v: old, w: u})
			}
		}
	}
	return best, found
}

// commit applies c through the kernel, repairing every row, and boxes it
// for the history — the only move.Move allocation a step performs.
func (e *engine) commit(c candidate) move.Move {
	switch c.kind {
	case RemoveKind:
		e.inc.RemoveEdge(c.u, c.v)
		return move.Remove{U: c.u, V: c.v}
	case AddKind:
		e.inc.AddEdge(c.u, c.v)
		return move.Add{U: c.u, V: c.v}
	default:
		e.inc.RemoveEdge(c.u, c.v)
		e.inc.AddEdge(c.u, c.w)
		return move.Swap{U: c.u, Old: c.v, New: c.w}
	}
}

// final records the kernel's view of the state in tr: the distance
// aggregates summed over agents, the largest finite distance, and the
// commit-side repair counters.
func (e *engine) final(tr *Trace) {
	for s := 0; s < e.inc.N(); s++ {
		tr.SumDist += e.inc.SumDist(s)
		tr.Unreachable += int64(e.inc.UnreachableFrom(s))
		tr.MaxDist = max(tr.MaxDist, int(e.inc.MaxDist(s)))
	}
	tr.Kernel = e.inc.Stats()
}
