package eq

import (
	"fmt"
	"math/bits"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// This file holds the one deviation scan per family — single removals,
// single additions, swaps, neighborhood changes and coalition moves — that
// both Check and Certify run. A scan enumerates its family in a fixed
// order, applies each deviation in place, asks its actors whether they
// improve, reverts it, and stops as soon as the improving deviations found
// so far cover the scan's target:
//
//   - Check's target is the single price gm.Alpha. Each actor's test is
//     Cost.Less at its effective price, with no interval arithmetic, and
//     the first deviation whose actors all improve covers the target. It
//     stays in checker scratch, and only Check boxes it into the witness
//     move.Move.
//   - Certify's target is the whole axis [0, ∞). Each actor contributes
//     its exact improving α-interval (certify.go), the deviation improves
//     on their intersection, and the scan accumulates the union of those
//     intersections until it covers the axis.
//
// The scans mutate edges directly instead of building move.Move values:
// boxing a move into the interface allocates, and the scans run millions
// of candidates per sweep. The enumeration orders are the historical move
// orders, so witnesses are byte-identical across releases. The subset
// scans (neighborhoods and coalitions) keep that order — removal mask
// outer, addition mask inner, both counting up — and move the graph from
// one pair of masks to the next by toggling only the edges in their XOR
// difference rather than applying and reverting each pair whole. Every
// actor is priced by Graph.BFSAggregates, which writes no distance row.

// CheckKBSE reports whether g is a Bilateral k-Strong Equilibrium: no
// coalition Γ of size at most k has a move — deleting edges that touch Γ
// and adding edges inside Γ — from which every member of Γ strictly
// benefits. CheckKBSE(gm, g, g.N()) is the full BSE check.
//
// The search is exact: it enumerates every coalition, every removable edge
// subset and every addable edge subset, with early-exit cost evaluation.
// Complexity is exponential; it is intended for n ≤ 6 at k = n and n ≤ ~12
// for k ≤ 3.
func CheckKBSE(gm game.Game, g *graph.Graph, k int) Result {
	var c checker
	c.reset(gm, g)
	c.begin(true)
	c.scanCoalitions(k)
	return c.verdict()
}

// maxMoveSpace bounds every list whose subsets an exhaustive scan
// enumerates as int masks (removable and addable edges, NE strategies).
const maxMoveSpace = 30

// guardMoveSpace refuses an exhaustive scan over the 2^width subsets of a
// list wider than maxMoveSpace: past it the scan is intractable, and from
// width 63 on the 1<<width mask bound wraps to an empty loop that would
// report stability without scanning anything.
func guardMoveSpace(width int) {
	if width > maxMoveSpace {
		panic(fmt.Sprintf("eq: move space too large for an exact scan (%d-element subset list; limit %d)", width, maxMoveSpace))
	}
}

// devKind names the family of a deviation.
type devKind uint8

const (
	devRemove       devKind = iota + 1 // u drops edge uv
	devAdd                             // u (and v, under bilateral consent) add edge uv
	devSwap                            // u swaps edge uv for uw
	devNeighborhood                    // u drops removable[rMask] and adds addable[aMask]
	devCoalition                       // members drop removable[rMask] and add addable[aMask]
)

// deviation describes the deviation under evaluation compactly enough to
// record once per candidate; witness expands it into a move.Move.
type deviation struct {
	kind         devKind
	u, v, w      int
	rMask, aMask int
}

// begin resets the scan state for a target: the single price gm.Alpha
// (point) or the whole axis.
func (c *checker) begin(point bool) {
	c.point = point
	c.covered = false
	c.union = c.union[:0]
}

// scan runs concept's deviation families in order against the current
// target, stopping once it is covered.
func (c *checker) scan(concept Concept) {
	switch concept {
	case RE:
		c.scanRemovals()
	case BAE:
		c.scanAdditions()
	case PS:
		c.scanRemovals()
		c.scanAdditions()
	case BSwE:
		c.scanSwaps()
	case BGE:
		c.scanRemovals()
		c.scanAdditions()
		c.scanSwaps()
	case BNE:
		c.scanNeighborhoods()
	case TwoBSE:
		c.scanCoalitions(2)
	case ThreeBSE:
		c.scanCoalitions(3)
	case BSE:
		c.scanCoalitions(c.g.N())
	default:
		panic(fmt.Sprintf("eq: unknown concept %d", int(concept)))
	}
}

// The per-deviation protocol is a begin/actor/commit triple on plain
// checker fields rather than closures, so the hot path (run millions of
// times per sweep) allocates nothing:
//
//	c.devBegin()
//	c.devActor(u) && c.devActor(v) ...   // false once some actor fails
//	done := c.devCommit(d)               // true once the target is covered

// devBegin starts evaluating a deviation.
func (c *checker) devBegin() {
	c.devAlive = true
	c.devIval = fullAxis()
}

// devActor tests agent u in the current (mutated) graph: at a point
// target whether u strictly improves, on the axis by narrowing the running
// intersection with u's improving interval. It reports whether the
// deviation can still improve all its actors somewhere on the target.
func (c *checker) devActor(u int) bool {
	after := c.cost(u)
	if c.point {
		c.devAlive = c.improvesTo(u, after)
		return c.devAlive
	}
	iv, ok := c.improvingInterval(u, after)
	if ok {
		c.devIval = intersect(c.devIval, iv)
	}
	c.devAlive = ok && !c.devIval.empty()
	return c.devAlive
}

// devCommit records deviation d if all its actors improve — it covers a
// point target outright, and on the axis its interval joins the union —
// and reports whether the target is now covered, the scans' abort signal.
// The deviation that completes the cover is kept for witness.
func (c *checker) devCommit(d deviation) bool {
	if c.devAlive {
		if c.point {
			c.covered = true
		} else {
			c.commitInterval()
		}
		if c.covered {
			c.dev = d
		}
	}
	return c.covered
}

// commitInterval merges the deviation's improving interval into the union.
func (c *checker) commitInterval() {
	c.union = unionAdd(c.union, c.devIval)
	c.covered = coversAxis(c.union)
}

// try evaluates deviation d, whose initiator d.u must improve, and so must
// partner — the node d connects d.u to — unless partner < 0 or consent is
// unilateral.
func (c *checker) try(d deviation, partner int) bool {
	c.devBegin()
	if c.devActor(d.u) && partner >= 0 && !c.unilateral {
		c.devActor(partner)
	}
	return c.devCommit(d)
}

// scanRemovals scans the single-edge removals: edges in canonical (U<V)
// lexicographic order, the smaller endpoint as remover first.
func (c *checker) scanRemovals() {
	for u := 0; u < c.g.N() && !c.covered; u++ {
		for _, v := range c.snapshotNeighbors(u) {
			if v < u {
				continue // already scanned from the smaller endpoint
			}
			c.g.RemoveEdge(u, v)
			done := c.try(deviation{kind: devRemove, u: u, v: v}, -1) ||
				c.try(deviation{kind: devRemove, u: v, v: u}, -1)
			c.g.AddEdge(u, v)
			if done {
				return
			}
		}
	}
}

// scanAdditions scans the single-edge additions: unordered pairs with both
// endpoints as actors or, under unilateral consent, ordered (buyer,
// target) pairs with the buyer as sole actor.
func (c *checker) scanAdditions() {
	n := c.g.N()
	for u := 0; u < n && !c.covered; u++ {
		v := u + 1
		if c.unilateral {
			v = 0
		}
		for ; v < n; v++ {
			if v == u || c.g.HasEdge(u, v) {
				continue
			}
			c.g.AddEdge(u, v)
			done := c.try(deviation{kind: devAdd, u: u, v: v}, v)
			c.g.RemoveEdge(u, v)
			if done {
				return
			}
		}
	}
}

// scanSwaps scans the edge swaps uv → uw; the new partner w must consent.
func (c *checker) scanSwaps() {
	for u := 0; u < c.g.N() && !c.covered; u++ {
		for _, v := range c.snapshotNeighbors(u) {
			for w := 0; w < c.g.N(); w++ {
				if w == u || w == v || c.g.HasEdge(u, w) {
					continue
				}
				c.g.RemoveEdge(u, v)
				c.g.AddEdge(u, w)
				done := c.try(deviation{kind: devSwap, u: u, v: v, w: w}, w)
				c.g.RemoveEdge(u, w)
				c.g.AddEdge(u, v)
				if done {
					return
				}
			}
		}
	}
}

// scanNeighborhoods scans every neighborhood change of every agent u: drop
// any subset of its incident edges and add any subset of its absent ones.
// The actors are u and, under bilateral consent, every new partner.
func (c *checker) scanNeighborhoods() {
	n := c.g.N()
	for u := 0; u < n && !c.covered; u++ {
		removable, addable := c.removable[:0], c.addable[:0]
		for v := 0; v < n; v++ {
			switch {
			case c.g.HasEdge(u, v):
				removable = append(removable, graph.Edge{U: u, V: v})
			case v != u:
				addable = append(addable, graph.Edge{U: u, V: v})
			}
		}
		c.removable, c.addable = removable, addable
		c.scanSubsets(devNeighborhood, u)
	}
}

// scanCoalitions scans every coalition of size at most k and every legal
// (removals, additions) move of it.
func (c *checker) scanCoalitions(k int) {
	c.members = c.members[:0]
	c.coalitions(0, min(k, c.g.N()))
}

// coalitions enumerates coalitions Γ ⊆ V with |Γ| ≤ maxK in lexicographic
// order (members strictly increasing, starting at from), scanning each
// coalition's moves before its extensions. The members scratch grows and
// shrinks in place; once the target is covered it is left holding the
// covering coalition.
func (c *checker) coalitions(from, maxK int) {
	if len(c.members) > 0 {
		c.coalitionSpace()
		c.scanSubsets(devCoalition, -1)
		if c.covered {
			return
		}
	}
	if len(c.members) >= maxK {
		return
	}
	for v := from; v < c.g.N(); v++ {
		c.members = append(c.members, v)
		c.coalitions(v+1, maxK)
		if c.covered {
			return
		}
		c.members = c.members[:len(c.members)-1]
	}
}

// coalitionSpace fills the move space of the current coalition: removable
// are the existing edges touching it, in canonical lexicographic (U<V)
// order; addable the absent edges inside it, in member order.
func (c *checker) coalitionSpace() {
	n := c.g.N()
	if cap(c.inCoal) < n {
		c.inCoal = make([]bool, n)
	}
	inCoal := c.inCoal[:n]
	clear(inCoal)
	for _, u := range c.members {
		inCoal[u] = true
	}
	removable := c.removable[:0]
	for u := 0; u < n; u++ {
		for _, v := range c.g.Neighbors(u) {
			if u < v && (inCoal[u] || inCoal[v]) {
				removable = append(removable, graph.Edge{U: u, V: v})
			}
		}
	}
	addable := c.addable[:0]
	for i, u := range c.members {
		for _, v := range c.members[i+1:] {
			if !c.g.HasEdge(u, v) {
				addable = append(addable, graph.Edge{U: u, V: v})
			}
		}
	}
	c.removable, c.addable = removable, addable
}

// scanSubsets enumerates every non-empty (removals, additions) pair over
// the current move space and evaluates it as a deviation of the given
// kind: a neighborhood change of agent u, whose actors are u and (under
// bilateral consent) its new partners, or a move of the coalition in
// c.members, whose actors are its members. The order is the historical
// one, rMask outer and aMask inner, each counting up from 0, because the
// first improving pair is Check's witness. The graph steps from one pair
// to the next by toggling only the edges in their XOR difference (about
// two per step of a binary counter), and every exit steps it back to the
// empty pair.
func (c *checker) scanSubsets(kind devKind, u int) {
	removable, addable := c.removable, c.addable
	guardMoveSpace(len(removable))
	guardMoveSpace(len(addable))
	r, a := 0, 0 // the pair the graph holds
	for rMask := 0; rMask < 1<<len(removable) && !c.covered; rMask++ {
		for aMask := 0; aMask < 1<<len(addable); aMask++ {
			if rMask == 0 && aMask == 0 {
				continue
			}
			c.stepSubsets(r, a, rMask, aMask)
			r, a = rMask, aMask
			c.devBegin()
			if kind == devNeighborhood {
				if c.devActor(u) && !c.unilateral {
					for i, e := range addable {
						if aMask&(1<<i) != 0 && !c.devActor(e.V) {
							break
						}
					}
				}
			} else {
				for _, m := range c.members {
					if !c.devActor(m) {
						break
					}
				}
			}
			if c.devCommit(deviation{kind: kind, u: u, rMask: rMask, aMask: aMask}) {
				break
			}
		}
	}
	c.stepSubsets(r, a, 0, 0)
}

// stepSubsets moves the graph from the (removals, additions) pair
// (rFrom, aFrom) of the current move space to (rTo, aTo), toggling only
// the edges whose selection differs.
func (c *checker) stepSubsets(rFrom, aFrom, rTo, aTo int) {
	for d := rFrom ^ rTo; d != 0; d &= d - 1 {
		i := bits.TrailingZeros(uint(d))
		if e := c.removable[i]; rTo&(1<<i) != 0 {
			c.g.RemoveEdge(e.U, e.V)
		} else {
			c.g.AddEdge(e.U, e.V)
		}
	}
	for d := aFrom ^ aTo; d != 0; d &= d - 1 {
		i := bits.TrailingZeros(uint(d))
		if e := c.addable[i]; aTo&(1<<i) != 0 {
			c.g.AddEdge(e.U, e.V)
		} else {
			c.g.RemoveEdge(e.U, e.V)
		}
	}
}

// witness boxes the deviation that covered a point target into its move.
// The scan's scratch (move space, coalition members) still describes it.
func (c *checker) witness() move.Move {
	d := c.dev
	switch d.kind {
	case devRemove:
		return move.Remove{U: d.u, V: d.v}
	case devAdd:
		return move.Add{U: d.u, V: d.v}
	case devSwap:
		return move.Swap{U: d.u, Old: d.v, New: d.w}
	case devNeighborhood:
		return move.Neighborhood{
			U:        d.u,
			RemoveTo: farEnds(subsetOf(c.removable, d.rMask)),
			AddTo:    farEnds(subsetOf(c.addable, d.aMask)),
		}
	default:
		return move.Coalition{
			Members:     append([]int(nil), c.members...),
			RemoveEdges: subsetOf(c.removable, d.rMask),
			AddEdges:    subsetOf(c.addable, d.aMask),
		}
	}
}

// subsetOf returns the elements of s selected by mask, or nil for none.
func subsetOf[T any](s []T, mask int) []T {
	if mask == 0 {
		return nil
	}
	out := make([]T, 0, len(s))
	for i, v := range s {
		if mask&(1<<i) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// farEnds returns the V endpoints of es, or nil for none.
func farEnds(es []graph.Edge) []int {
	if es == nil {
		return nil
	}
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.V
	}
	return out
}
