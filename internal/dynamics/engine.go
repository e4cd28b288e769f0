package dynamics

import (
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
	// arithmetic that powers eq.Certify) keeps α farthest from its
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
// through an IncDist kernel and never re-binds an evaluator or runs a
// fresh BFS per probe. An edge purchase is priced in closed form from the
// two endpoints' live distance rows (addCost) without touching the graph.
// Removal and swap probes flip the edge, repair only the actors' distance
// rows, read their costs off the kernel's aggregates, and flip it back.
// The pair pool and scan permutation are allocated once per run.
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

	rowsBuf [2]int
	nbuf    []int // neighbor snapshot: probes mutate adjacency in place
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
// so d'(a,x) = min(d(a,x), 1+d(b,x)), and x becomes reachable from a
// exactly when b reaches it.
func (e *engine) addCost(a, b int) game.Cost {
	const noDist = int32(graph.Unreachable)
	rowB := e.inc.Row(b)
	var sum, unreach int64
	var ecc int32
	for x, d := range e.inc.Row(a) {
		if db := rowB[x]; db != noDist && (d == noDist || db+1 < d) {
			d = db + 1
		}
		if d == noDist {
			unreach++
			continue
		}
		sum += int64(d)
		if d > ecc {
			ecc = d
		}
	}
	c := game.Cost{Unreachable: unreach, Buy: int64(e.g.Degree(a)) + 1, Dist: sum}
	if e.maxDist {
		c.Dist = int64(ecc)
	}
	return c
}

// improves mirrors eq's checker.improves: strict lexicographic improvement
// at the agent's effective price.
func (e *engine) improves(a int, before, after game.Cost) bool {
	return after.Less(before, e.gm.AlphaFor(a))
}

// apply performs the candidate's edge toggles, repairing either just the
// actors' rows (removal and swap probes) or every row (commit). Add
// candidates are only ever applied by commit.
func (e *engine) apply(c candidate, rows []int) {
	switch c.kind {
	case RemoveKind:
		if rows == nil {
			e.inc.RemoveEdge(c.u, c.v)
		} else {
			e.inc.RemoveEdgePartial(c.u, c.v, rows)
		}
	case AddKind:
		e.inc.AddEdge(c.u, c.v)
	case SwapKind:
		if rows == nil {
			e.inc.RemoveEdge(c.u, c.v)
			e.inc.AddEdge(c.u, c.w)
		} else {
			e.inc.RemoveEdgePartial(c.u, c.v, rows)
			e.inc.AddEdgePartial(c.u, c.w, rows)
		}
	}
}

// revert undoes a partial apply with the same rows, in reverse order.
func (e *engine) revert(c candidate, rows []int) {
	switch c.kind {
	case RemoveKind:
		e.inc.AddEdgePartial(c.u, c.v, rows)
	case SwapKind:
		e.inc.RemoveEdgePartial(c.u, c.w, rows)
		e.inc.AddEdgePartial(c.u, c.v, rows)
	}
}

// actors fills rowsBuf with the actor set of a removal or swap candidate
// (the agents that must strictly improve — same sets move.Move.Actors()
// reports).
func (e *engine) actors(c candidate) []int {
	if c.kind == RemoveKind {
		e.rowsBuf[0] = c.u
		return e.rowsBuf[:1]
	}
	e.rowsBuf[0], e.rowsBuf[1] = c.u, c.w
	return e.rowsBuf[:2]
}

// probe reports whether c strictly improves all its actors. An add is
// priced in closed form; removals and swaps restore the graph and kernel
// before it returns.
func (e *engine) probe(c candidate) bool {
	if c.kind == AddKind {
		return e.improves(c.u, e.cost(c.u), e.addCost(c.u, c.v)) &&
			e.improves(c.v, e.cost(c.v), e.addCost(c.v, c.u))
	}
	rows := e.actors(c)
	var b0, b1 game.Cost
	b0 = e.cost(rows[0])
	if len(rows) == 2 {
		b1 = e.cost(rows[1])
	}
	e.apply(c, rows)
	ok := e.improves(rows[0], b0, e.cost(rows[0]))
	if ok && len(rows) == 2 {
		ok = e.improves(rows[1], b1, e.cost(rows[1]))
	}
	e.revert(c, rows)
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
	rows := e.actors(c)
	var b0, b1 game.Cost
	b0 = e.cost(rows[0])
	if len(rows) == 2 {
		b1 = e.cost(rows[1])
	}
	e.apply(c, rows)
	margin, ok := e.actorMargin(rows[0], b0, e.cost(rows[0]))
	if ok && len(rows) == 2 {
		var m2 float64
		if m2, ok = e.actorMargin(rows[1], b1, e.cost(rows[1])); ok && m2 < margin {
			margin = m2
		}
	}
	e.revert(c, rows)
	return margin, ok
}

// actorMargin computes agent a's exact improving interval via the
// certificate arithmetic and returns α's distance to its boundary.
func (e *engine) actorMargin(a int, before, after game.Cost) (float64, bool) {
	if e.hetero {
		p, q := e.gm.Variant.MulFor(a)
		before = game.Cost{Unreachable: before.Unreachable, Buy: before.Buy * p, Dist: before.Dist * q}
		after = game.Cost{Unreachable: after.Unreachable, Buy: after.Buy * p, Dist: after.Dist * q}
	}
	iv, ok := eq.ImprovingIntervalOf(before, after)
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

// commit applies c for real (every row repaired) and boxes it for the
// history — the only move.Move allocation a step performs.
func (e *engine) commit(c candidate) move.Move {
	e.apply(c, nil)
	switch c.kind {
	case RemoveKind:
		return move.Remove{U: c.u, V: c.v}
	case AddKind:
		return move.Add{U: c.u, V: c.v}
	default:
		return move.Swap{U: c.u, Old: c.v, New: c.w}
	}
}
