// Package eq implements exact equilibrium checkers for every solution
// concept of the paper — RE, BAE, PS, BSwE, BGE, BNE, k-BSE, BSE for the
// bilateral game, and the ownership-resolved RE/NE for the unilateral NCG
// — plus the paper's analytic stability conditions for the structured
// lower-bound families.
//
// Each bilateral concept is one deviation scan (scan.go) run against a
// target: Check runs it at a single price and returns the first improving
// deviation as the witness move; Certify runs it over the whole α-axis and
// returns the exact stable set.
//
// The package-level Check and Certify allocate fresh working buffers per
// call. Hot loops that evaluate many states — notably the parallel sweep
// engine in repro/internal/sweep — use an Evaluator instead, which reuses
// its BFS and baseline-cost buffers across calls. The scans explore moves by
// mutating the graph in place and undoing, so neither an Evaluator nor a
// Graph under evaluation may be shared between goroutines.
package eq

import (
	"fmt"
	"strings"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// Concept identifies a solution concept of the bilateral game.
type Concept int

// The solution concepts in the paper's order of increasing cooperation.
const (
	RE Concept = iota + 1
	BAE
	PS
	BSwE
	BGE
	BNE
	TwoBSE
	ThreeBSE
	BSE
)

// String implements fmt.Stringer.
func (c Concept) String() string {
	switch c {
	case RE:
		return "RE"
	case BAE:
		return "BAE"
	case PS:
		return "PS"
	case BSwE:
		return "BSwE"
	case BGE:
		return "BGE"
	case BNE:
		return "BNE"
	case TwoBSE:
		return "2-BSE"
	case ThreeBSE:
		return "3-BSE"
	case BSE:
		return "BSE"
	default:
		return fmt.Sprintf("Concept(%d)", int(c))
	}
}

// MarshalJSON renders the concept as its paper name ("PS", "2-BSE", ...),
// so JSON output is stable across reorderings of the enum.
func (c Concept) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", c.String())), nil
}

// Concepts lists all bilateral concepts in cooperation order.
func Concepts() []Concept {
	return []Concept{RE, BAE, PS, BSwE, BGE, BNE, TwoBSE, ThreeBSE, BSE}
}

// ParseConcept parses a concept's paper name ("PS", "2-BSE", …) — the form
// String renders — so concepts round-trip through flags, lease tables and
// URLs.
func ParseConcept(s string) (Concept, error) {
	for _, c := range Concepts() {
		if s == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("eq: unknown concept %q (want RE, BAE, PS, BSwE, BGE, BNE, 2-BSE, 3-BSE, BSE)", s)
}

// ParseConcepts parses a comma-separated concept list, ignoring spaces
// around each entry; "all" selects every concept. It is the concept-list
// grammar of the CLI and the daemon.
func ParseConcepts(s string) ([]Concept, error) {
	if s == "all" {
		return Concepts(), nil
	}
	var concepts []Concept
	for _, part := range strings.Split(s, ",") {
		c, err := ParseConcept(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		concepts = append(concepts, c)
	}
	return concepts, nil
}

// Result is a stability verdict with the violating move when unstable.
type Result struct {
	Stable  bool
	Witness move.Move
}

func stable() Result { return Result{Stable: true} }

func unstable(w move.Move) Result { return Result{Stable: false, Witness: w} }

// Check reports whether g is stable for concept c at the price gm.Alpha,
// with the first improving deviation as the witness when it is not. BSE
// uses coalitions of size up to n.
func Check(gm game.Game, g *graph.Graph, c Concept) Result {
	var ch checker
	ch.reset(gm, g)
	return ch.check(c)
}

// Evaluator is a reusable equilibrium evaluator: it keeps the BFS scratch,
// the baseline-cost slice and the deviation-scan buffers alive between
// calls, so sweeps over many states allocate nothing per stability check
// (at sweep sizes) instead of re-allocating per state. The hot-path scans
// mutate edges directly and only materialize a move.Move on the cold
// unstable path, for the witness.
//
// An Evaluator is deliberately not safe for concurrent use — and neither is
// the Graph it evaluates, because the scans apply candidate moves in place
// (always undoing them before returning). A parallel sweep therefore gives
// each worker goroutine its own Evaluator and its own private Graph clone.
type Evaluator struct {
	c checker
}

// NewEvaluator returns an Evaluator for use by a single goroutine.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// Check evaluates concept c on state g at game gm, reusing the evaluator's
// buffers. It is equivalent to the package-level Check.
func (ev *Evaluator) Check(gm game.Game, g *graph.Graph, c Concept) Result {
	ev.c.reset(gm, g)
	return ev.c.check(c)
}

// Bind points the evaluator at a state and computes the baseline agent
// costs once; subsequent CheckBound calls evaluate concepts against the
// bound state without recomputing the baseline. Bind/CheckBound is the
// sweep engine's path for checking several concepts per (graph, α) task:
// every scan restores the graph before returning, so the baseline stays
// valid across the whole concept grid.
func (ev *Evaluator) Bind(gm game.Game, g *graph.Graph) { ev.c.reset(gm, g) }

// CheckBound evaluates concept c on the state bound by the last Bind. It
// must not be called before Bind.
func (ev *Evaluator) CheckBound(c Concept) Result { return ev.c.check(c) }

// Rho returns the social cost ratio ρ(g) — identical to Game.Rho bit for
// bit — computed with the evaluator's scratch buffers, so PoA reductions
// over a sweep allocate nothing per graph.
func (ev *Evaluator) Rho(gm game.Game, g *graph.Graph) float64 {
	n := g.N()
	if cap(ev.c.dist) < n {
		ev.c.dist = make([]int, n)
	}
	dist := ev.c.dist[:n]
	var total game.Cost
	for u := 0; u < n; u++ {
		g.BFSScratchInto(u, dist, &ev.c.bfs)
		cst := gm.AgentCostFromDist(g, u, dist)
		total.Unreachable += cst.Unreachable
		total.Buy += cst.Buy
		total.Dist += cst.Dist
	}
	return gm.RhoOfCost(total)
}

// checker bundles the state shared by the deviation scans: the game, the
// graph under test, the baseline agent costs, the BFS scratch and the
// deviation-scan buffers. All buffers grow to the largest instance seen
// and are then reused, so a long-lived checker (via Evaluator) performs
// zero allocations per check at sweep sizes.
type checker struct {
	gm   game.Game
	g    *graph.Graph
	base []game.Cost
	dist []int
	bfs  graph.BFSScratch
	// Scratch of the deviation scans. nbuf snapshots the neighbor list of
	// the agent under scan (the scans mutate the graph while exploring
	// moves); removable and addable are the edge lists of the current
	// neighborhood or coalition move space; members and inCoal carry the
	// coalition search.
	nbuf      []int
	members   []int
	inCoal    []bool
	removable []graph.Edge
	addable   []graph.Edge
	// Scan state (see scan.go): whether the target is the single price
	// gm.Alpha or the whole axis, whether the improving deviations found
	// so far cover it, the deviation under evaluation and whether all its
	// actors improve so far, the running intersection of their improving
	// α-intervals, and the merged union of improving intervals.
	point    bool
	covered  bool
	dev      deviation
	devAlive bool
	devIval  AlphaInterval
	union    []AlphaInterval
	// Variant state, latched at reset so the hot loops branch on plain
	// booleans: unilateral consent switches the add/swap/neighborhood
	// scans to initiator-only improvement; hetero switches cost
	// comparisons and certificate intervals to multiplier-scaled deltas
	// (pmul/qmul), a point comparison testing whether the agent's
	// improving interval holds alpha.
	unilateral bool
	hetero     bool
	alpha      Rat
	pmul       []int64
	qmul       []int64
}

// reset points the checker at a new state and recomputes the baseline agent
// costs, growing the buffers only when the node count does.
func (c *checker) reset(gm game.Game, g *graph.Graph) {
	c.gm = gm
	c.g = g
	n := g.N()
	if cap(c.base) < n {
		c.base = make([]game.Cost, n)
		c.dist = make([]int, n)
	}
	c.base = c.base[:n]
	c.dist = c.dist[:n]
	c.unilateral = gm.Variant.Consent == game.ConsentUnilateral
	c.hetero = len(gm.Variant.Prices) > 0
	if c.hetero {
		if cap(c.pmul) < n {
			c.pmul = make([]int64, n)
			c.qmul = make([]int64, n)
		}
		c.pmul = c.pmul[:n]
		c.qmul = c.qmul[:n]
		for u := 0; u < n; u++ {
			c.pmul[u], c.qmul[u] = gm.Variant.MulFor(u)
		}
		c.alpha = ratOfAlpha(gm.Alpha)
	}
	for u := 0; u < n; u++ {
		g.BFSScratchInto(u, c.dist, &c.bfs)
		c.base[u] = gm.AgentCostFromDist(g, u, c.dist)
	}
}

// snapshotNeighbors copies u's current neighbor list into the checker's
// scratch. Scans iterate the copy because exploring a move mutates the
// live list. The returned slice is invalidated by the next snapshot.
func (c *checker) snapshotNeighbors(u int) []int {
	c.nbuf = append(c.nbuf[:0], c.g.Neighbors(u)...)
	return c.nbuf
}

// check runs concept's scan on the point target gm.Alpha and boxes the
// covering deviation, if any, into the witness move.
func (c *checker) check(concept Concept) Result {
	c.begin(true)
	c.scan(concept)
	return c.verdict()
}

// verdict turns a finished point scan into a Result.
func (c *checker) verdict() Result {
	if !c.covered {
		return stable()
	}
	return unstable(c.witness())
}

// cost returns agent u's cost in the current (possibly mutated) graph.
func (c *checker) cost(u int) game.Cost {
	c.g.BFSScratchInto(u, c.dist, &c.bfs)
	return c.gm.AgentCostFromDist(c.g, u, c.dist)
}

// improves reports whether agent u's current cost is strictly below her
// baseline cost, at u's effective edge price.
func (c *checker) improves(u int) bool {
	return c.improvesTo(u, c.cost(u))
}

// improvesTo reports whether cost `after` is strictly below agent u's
// baseline cost at her effective edge price α·p/q. That price need not be
// an int64 rational, so a multiplied agent is tested by whether her exact
// improving interval holds α.
func (c *checker) improvesTo(u int, after game.Cost) bool {
	if !c.hetero {
		return after.Less(c.base[u], c.gm.Alpha)
	}
	iv, ok := c.improvingInterval(u, after)
	return ok && iv.contains(c.alpha)
}

// allImprove reports whether every listed agent strictly improves over the
// baseline in the current graph, with early exit.
func (c *checker) allImprove(agents []int) bool {
	for _, u := range agents {
		if !c.improves(u) {
			return false
		}
	}
	return true
}

// tryMove applies m, evaluates whether all actors strictly improve, and
// reverts the graph. Moves that do not fit the graph report false.
func (c *checker) tryMove(m move.Move) bool {
	undo, err := m.Apply(c.g)
	if err != nil {
		return false
	}
	defer undo()
	return c.allImprove(m.Actors())
}
