package eq

import (
	"fmt"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// This file keeps the per-α checkers that Check replaced, verbatim, as the
// differential oracle of the unified deviation scans: referenceCheck must
// agree with Check on every verdict and every witness move. They scan the
// same deviation families in the same order but stop at the first
// deviation that improves at gm.Alpha by testing Cost.Less directly,
// without the scans' target protocol.

// referenceChecker is a checker plus the non-neighbor scratch the
// reference neighborhood scan keeps.
type referenceChecker struct {
	checker
	nnbuf []int
}

// referenceCheck is the reference counterpart of Check.
func referenceCheck(gm game.Game, g *graph.Graph, concept Concept) Result {
	var c referenceChecker
	c.reset(gm, g)
	switch concept {
	case RE:
		return c.checkRE()
	case BAE:
		return c.checkBAE()
	case PS:
		return c.checkPS()
	case BSwE:
		return c.checkBSwE()
	case BGE:
		return c.checkBGE()
	case BNE:
		return c.checkBNE()
	case TwoBSE:
		return c.checkKBSE(2)
	case ThreeBSE:
		return c.checkKBSE(3)
	case BSE:
		return c.checkKBSE(c.g.N())
	default:
		panic(fmt.Sprintf("eq: unknown concept %d", int(concept)))
	}
}

// The scans below mutate edges directly and revert them in place instead
// of constructing move.Move values: boxing a move into the interface
// allocates, and the scans run millions of candidates per sweep. A move is
// only materialized on the cold path, as the witness of a violation. Scan
// order matches the historical move enumeration exactly, so witnesses are
// byte-identical.

func (c *referenceChecker) checkRE() Result {
	// Edges in canonical (U<V) lexicographic order — the Edges() order —
	// trying the smaller endpoint as the remover first.
	for u := 0; u < c.g.N(); u++ {
		nb := c.snapshotNeighbors(u)
		for _, v := range nb {
			if v < u {
				continue // already scanned from the smaller endpoint
			}
			for flip := 0; flip < 2; flip++ {
				a, b := u, v
				if flip == 1 {
					a, b = v, u
				}
				c.g.RemoveEdge(a, b)
				imp := c.improves(a)
				c.g.AddEdge(a, b)
				if imp {
					return unstable(move.Remove{U: a, V: b})
				}
			}
		}
	}
	return stable()
}

func (c *referenceChecker) checkBAE() Result {
	if c.unilateral {
		// Unilateral consent: any agent may buy any absent edge on her
		// own, so the scan is over ordered (buyer, target) pairs and only
		// the buyer must improve. The enumeration order is exactly the
		// historical unilateral Add Equilibrium scan (referenceUnilateralAE),
		// keeping witnesses byte-identical.
		for u := 0; u < c.g.N(); u++ {
			for v := 0; v < c.g.N(); v++ {
				if v == u || c.g.HasEdge(u, v) {
					continue
				}
				c.g.AddEdge(u, v)
				imp := c.improves(u)
				c.g.RemoveEdge(u, v)
				if imp {
					return unstable(move.Add{U: u, V: v})
				}
			}
		}
		return stable()
	}
	for u := 0; u < c.g.N(); u++ {
		for v := u + 1; v < c.g.N(); v++ {
			if c.g.HasEdge(u, v) {
				continue
			}
			c.g.AddEdge(u, v)
			imp := c.improves(u) && c.improves(v)
			c.g.RemoveEdge(u, v)
			if imp {
				return unstable(move.Add{U: u, V: v})
			}
		}
	}
	return stable()
}

func (c *referenceChecker) checkPS() Result {
	if r := c.checkRE(); !r.Stable {
		return r
	}
	return c.checkBAE()
}

func (c *referenceChecker) checkBSwE() Result {
	for u := 0; u < c.g.N(); u++ {
		nb := c.snapshotNeighbors(u)
		for _, v := range nb {
			for w := 0; w < c.g.N(); w++ {
				if w == u || w == v || c.g.HasEdge(u, w) {
					continue
				}
				c.g.RemoveEdge(u, v)
				c.g.AddEdge(u, w)
				// Bilateral: the new partner w must consent by strictly
				// improving; unilateral: only the swapper u must.
				imp := c.improves(u) && (c.unilateral || c.improves(w))
				c.g.RemoveEdge(u, w)
				c.g.AddEdge(u, v)
				if imp {
					return unstable(move.Swap{U: u, Old: v, New: w})
				}
			}
		}
	}
	return stable()
}

func (c *referenceChecker) checkBGE() Result {
	if r := c.checkPS(); !r.Stable {
		return r
	}
	return c.checkBSwE()
}

func (c *referenceChecker) checkBNE() Result {
	n := c.g.N()
	for u := 0; u < n; u++ {
		nb := c.snapshotNeighbors(u)
		nn := c.nnbuf[:0]
		for v := 0; v < n; v++ {
			if v != u && !c.g.HasEdge(u, v) {
				nn = append(nn, v)
			}
		}
		c.nnbuf = nn
		if w, ok := c.searchNeighborhood(u, nb, nn); ok {
			return unstable(w)
		}
	}
	return stable()
}

// searchNeighborhood looks for an improving neighborhood change around u:
// drop the neighbors selected by rMask, connect to the non-neighbors
// selected by aMask, and require u and every new partner to strictly
// improve (in that order, with early exit).
func (c *referenceChecker) searchNeighborhood(u int, neighbors, nonNeighbors []int) (move.Neighborhood, bool) {
	for rMask := 0; rMask < 1<<len(neighbors); rMask++ {
		for aMask := 0; aMask < 1<<len(nonNeighbors); aMask++ {
			if rMask == 0 && aMask == 0 {
				continue
			}
			for i, v := range neighbors {
				if rMask&(1<<i) != 0 {
					c.g.RemoveEdge(u, v)
				}
			}
			for i, w := range nonNeighbors {
				if aMask&(1<<i) != 0 {
					c.g.AddEdge(u, w)
				}
			}
			imp := c.improves(u)
			if imp && !c.unilateral {
				// Bilateral consent: every new partner must improve too.
				for i, w := range nonNeighbors {
					if aMask&(1<<i) != 0 && !c.improves(w) {
						imp = false
						break
					}
				}
			}
			for i, w := range nonNeighbors {
				if aMask&(1<<i) != 0 {
					c.g.RemoveEdge(u, w)
				}
			}
			for i, v := range neighbors {
				if rMask&(1<<i) != 0 {
					c.g.AddEdge(u, v)
				}
			}
			if imp {
				return move.Neighborhood{
					U:        u,
					RemoveTo: subsetOf(neighbors, rMask),
					AddTo:    subsetOf(nonNeighbors, aMask),
				}, true
			}
		}
	}
	return move.Neighborhood{}, false
}

func (c *referenceChecker) checkKBSE(k int) Result {
	if k < 1 {
		return stable()
	}
	if k > c.g.N() {
		k = c.g.N()
	}
	c.members = c.members[:0]
	if w, ok := c.searchCoalitions(0, k); ok {
		return unstable(w)
	}
	return stable()
}

// searchCoalitions enumerates coalitions Γ ⊆ V with |Γ| ≤ maxK in
// lexicographic order (members strictly increasing, starting at from),
// growing and shrinking the shared members scratch in place.
func (c *referenceChecker) searchCoalitions(from, maxK int) (move.Coalition, bool) {
	if len(c.members) > 0 {
		if w, ok := c.searchCoalitionMoves(); ok {
			return w, true
		}
	}
	if len(c.members) == maxK {
		return move.Coalition{}, false
	}
	for v := from; v < c.g.N(); v++ {
		c.members = append(c.members, v)
		if w, ok := c.searchCoalitions(v+1, maxK); ok {
			return w, true
		}
		c.members = c.members[:len(c.members)-1]
	}
	return move.Coalition{}, false
}

// searchCoalitionMoves enumerates every (removals, additions) pair legal
// for the current coalition scratch and tests whether all members strictly
// improve. Edge subsets are applied and reverted in place; a Coalition
// value is only built as the witness of a violation.
func (c *referenceChecker) searchCoalitionMoves() (move.Coalition, bool) {
	n := c.g.N()
	if cap(c.inCoal) < n {
		c.inCoal = make([]bool, n)
	}
	inCoal := c.inCoal[:n]
	for i := range inCoal {
		inCoal[i] = false
	}
	for _, u := range c.members {
		inCoal[u] = true
	}
	// Removable: existing edges touching the coalition, in canonical
	// lexicographic (U<V) order. Addable: absent edges inside the
	// coalition, in member order.
	removable := c.removable[:0]
	for u := 0; u < n; u++ {
		for _, v := range c.g.Neighbors(u) {
			if u < v && (inCoal[u] || inCoal[v]) {
				removable = append(removable, graph.Edge{U: u, V: v})
			}
		}
	}
	addable := c.addable[:0]
	for i := 0; i < len(c.members); i++ {
		for j := i + 1; j < len(c.members); j++ {
			if !c.g.HasEdge(c.members[i], c.members[j]) {
				addable = append(addable, graph.Edge{U: c.members[i], V: c.members[j]})
			}
		}
	}
	c.removable, c.addable = removable, addable
	if len(removable) > 30 || len(addable) > 30 {
		// Guard against accidental astronomically large searches; the
		// exact checker is documented for small instances only.
		panic("eq: coalition move space too large for exact k-BSE check")
	}
	for rMask := 0; rMask < 1<<len(removable); rMask++ {
		for aMask := 0; aMask < 1<<len(addable); aMask++ {
			if rMask == 0 && aMask == 0 {
				continue
			}
			for i, e := range removable {
				if rMask&(1<<i) != 0 {
					c.g.RemoveEdge(e.U, e.V)
				}
			}
			for i, e := range addable {
				if aMask&(1<<i) != 0 {
					c.g.AddEdge(e.U, e.V)
				}
			}
			imp := true
			for _, u := range c.members {
				if !c.improves(u) {
					imp = false
					break
				}
			}
			for i, e := range addable {
				if aMask&(1<<i) != 0 {
					c.g.RemoveEdge(e.U, e.V)
				}
			}
			for i, e := range removable {
				if rMask&(1<<i) != 0 {
					c.g.AddEdge(e.U, e.V)
				}
			}
			if imp {
				return move.Coalition{
					Members:     append([]int(nil), c.members...),
					RemoveEdges: edgeSubset(removable, rMask),
					AddEdges:    edgeSubset(addable, aMask),
				}, true
			}
		}
	}
	return move.Coalition{}, false
}

func edgeSubset(s []graph.Edge, mask int) []graph.Edge {
	if mask == 0 {
		return nil
	}
	out := make([]graph.Edge, 0, len(s))
	for i, e := range s {
		if mask&(1<<i) != 0 {
			out = append(out, e)
		}
	}
	return out
}

// referenceBestResponse returns an exhaustive best-response strategy (set
// of bought edge targets) for agent u against the fixed strategies of
// everyone else in (g, o), together with its cost. It is the oracle of
// CheckUnilateralNE: 2^(n-1) candidate strategies, for the small instances
// of the Section 2 comparisons.
func referenceBestResponse(gm game.Game, g *graph.Graph, o *game.Ownership, u int) ([]int, game.Cost) {
	n := g.N()
	// Edges that persist regardless of u's strategy: those owned by others.
	base := graph.New(n)
	for _, e := range g.Edges() {
		if owner, _ := o.Owner(e.U, e.V); owner != u {
			base.AddEdge(e.U, e.V)
		}
	}
	var targets []int
	for v := 0; v < n; v++ {
		if v != u {
			targets = append(targets, v)
		}
	}
	var (
		bestBuy  []int
		bestCost game.Cost
		first    = true
	)
	for mask := 0; mask < 1<<len(targets); mask++ {
		trial := base.Clone()
		var buy []int
		for i, v := range targets {
			if mask&(1<<i) != 0 {
				buy = append(buy, v)
				trial.AddEdge(u, v)
			}
		}
		sum, unreachable := trial.TotalDist(u)
		cost := game.Cost{Unreachable: int64(unreachable), Buy: int64(len(buy)), Dist: sum}
		if first || cost.Less(bestCost, gm.Alpha) {
			first = false
			bestCost = cost
			bestBuy = buy
		}
	}
	return bestBuy, bestCost
}
