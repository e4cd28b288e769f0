package game

import (
	"fmt"

	"repro/internal/graph"
)

// Cost is an agent's exact cost in a given state: the number of agents she
// cannot reach, the number of edges she buys, and her total finite hop
// distance. Costs compare lexicographically by (Unreachable, α·Buy + Dist),
// which is the paper's cost function with disconnection priced at
// M > α·n³.
type Cost struct {
	Unreachable int64 // agents in other components
	Buy         int64 // edges paid for (in equilibrium form: the degree)
	Dist        int64 // sum of finite hop distances
}

// Less reports whether c is strictly cheaper than d under edge price alpha.
func (c Cost) Less(d Cost, alpha Alpha) bool {
	if c.Unreachable != d.Unreachable {
		return c.Unreachable < d.Unreachable
	}
	// c < d  ⟺  num·cBuy + den·cDist < num·dBuy + den·dDist, in 128 bits.
	num, den := alpha.Num(), alpha.Den()
	lhs := mul128(num, c.Buy).add(mul128(den, c.Dist))
	return lhs.cmp(mul128(num, d.Buy).add(mul128(den, d.Dist))) < 0
}

// Value returns the scalar α·Buy + Dist as a float64 for reporting. It is
// meaningless when Unreachable > 0.
func (c Cost) Value(alpha Alpha) float64 {
	return alpha.Float()*float64(c.Buy) + float64(c.Dist)
}

// String renders the cost for diagnostics.
func (c Cost) String() string {
	if c.Unreachable > 0 {
		return fmt.Sprintf("{unreachable:%d buy:%d dist:%d}", c.Unreachable, c.Buy, c.Dist)
	}
	return fmt.Sprintf("{buy:%d dist:%d}", c.Buy, c.Dist)
}

// Game couples a node count with an edge price and a model variant. The
// created graph is the state; in the BNCG the graph and the strategy vector
// are in bijection (each agent's strategy is exactly her neighborhood), so
// all BNCG costs are functions of the graph alone. The zero Variant is the
// paper's exact model, so Game{N, Alpha} literals keep their historical
// meaning.
type Game struct {
	N       int
	Alpha   Alpha
	Variant Variant
}

// NewGame returns the BNCG on n agents with edge price alpha. It reports an
// error for n < 1.
func NewGame(n int, alpha Alpha) (Game, error) {
	if n < 1 {
		return Game{}, fmt.Errorf("game: need at least one agent, got %d", n)
	}
	return Game{N: n, Alpha: alpha}, nil
}

// AgentCost returns agent u's cost in state g (BNCG equilibrium form: the
// agent pays for each incident edge). Under DistMax the distance term is
// u's eccentricity instead of her distance sum.
func (gm Game) AgentCost(g *graph.Graph, u int) Cost {
	return gm.AgentCostWith(g, u, &graph.BFSScratch{})
}

// AgentCostWith is AgentCost with caller-owned BFS scratch, so
// move-evaluation hot loops price agents without allocating.
func (gm Game) AgentCostWith(g *graph.Graph, u int, s *graph.BFSScratch) Cost {
	dist, unreachable, ecc := g.BFSAggregates(u, s)
	if gm.Variant.Dist == DistMax {
		dist = int64(ecc)
	}
	return Cost{Unreachable: int64(unreachable), Buy: int64(g.Degree(u)), Dist: dist}
}

// SocialCost returns the sum of all agent costs: total buying cost
// 2·m·α plus total distance cost (and the number of unreachable ordered
// pairs, zero for connected graphs).
func (gm Game) SocialCost(g *graph.Graph) Cost {
	var total Cost
	for u := 0; u < g.N(); u++ {
		c := gm.AgentCost(g, u)
		total.Unreachable += c.Unreachable
		total.Buy += c.Buy
		total.Dist += c.Dist
	}
	return total
}

// OptCost returns the social optimum cost for the game (Section 3.1):
// for α < 1 the clique with cost n(n-1)(1+α); for α >= 1 the star with cost
// 2(n-1)(α+n-1). Both are returned in exact Cost form (Buy counts edge
// endpoints, i.e. 2m).
//
// The closed forms are specific to the paper's exact model; OptCost panics
// for non-default variants rather than report a wrong optimum. The sweep,
// server and CLI layers reject ρ/PoA requests for non-default variants
// before reaching it.
func (gm Game) OptCost() Cost {
	if !gm.Variant.IsDefault() {
		panic("game: OptCost is defined for the default variant only")
	}
	n := int64(gm.N)
	if n == 1 {
		return Cost{}
	}
	if gm.Alpha.LessThanInt(1) {
		// Clique: n(n-1) bought edge-endpoints, distance n(n-1).
		return Cost{Buy: n * (n - 1), Dist: n * (n - 1)}
	}
	// Star: 2(n-1) endpoints; distances 2(n-1)(n-2) among leaves plus
	// 2(n-1) to/from the center.
	return Cost{Buy: 2 * (n - 1), Dist: 2*(n-1)*(n-2) + 2*(n-1)}
}

// Rho returns the social cost ratio ρ(G) = cost(G)/cost(OPT) as a float64.
// It returns +Inf semantics via a large ratio if g is disconnected (the
// paper never takes ρ of disconnected graphs; callers should check).
func (gm Game) Rho(g *graph.Graph) float64 {
	return gm.RhoOfCost(gm.SocialCost(g))
}

// RhoOfCost returns the social cost ratio of a precomputed social cost,
// with the same disconnection sentinel as Rho. It exists so callers that
// compute the social cost with their own scratch buffers (the sweep
// engine's evaluators) produce bit-identical ratios. On one node the
// optimum costs 0 and the lone node is that optimum, so ρ is 1.
func (gm Game) RhoOfCost(c Cost) float64 {
	if c.Unreachable > 0 {
		return float64(c.Unreachable) * 1e18 // sentinel: disconnected
	}
	opt := gm.OptCost().Value(gm.Alpha)
	if opt == 0 {
		return 1
	}
	return c.Value(gm.Alpha) / opt
}

// Star returns the star graph on n nodes with center 0, the social optimum
// for α >= 1.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}

// Clique returns the complete graph on n nodes, the social optimum for
// α < 1.
func Clique(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}
