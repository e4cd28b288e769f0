package eq

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/construct"
	"repro/internal/game"
	"repro/internal/graph"
)

func starOwnership(t *testing.T, g *graph.Graph, centerOwns bool) *game.Ownership {
	t.Helper()
	owners := make(map[graph.Edge]int, g.M())
	for _, e := range g.Edges() {
		owner := e.U // center is node 0 in game.Star
		if !centerOwns {
			owner = e.V
		}
		owners[e] = owner
	}
	o, err := game.NewOwnership(g, owners)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestStarIsNEBothOwnerships(t *testing.T) {
	for _, centerOwns := range []bool{true, false} {
		g := game.Star(5)
		gm := mustGame(t, 5, game.A(2))
		o := starOwnership(t, g, centerOwns)
		if r := CheckUnilateralNE(gm, g, o); !r.Stable {
			t.Fatalf("star (centerOwns=%v) not NE: %v", centerOwns, r.Witness)
		}
	}
}

func TestBestResponseOnStar(t *testing.T) {
	// A leaf of a star already plays a best response: buying nothing
	// (when the center owns the edges) keeps her connected for free.
	g := game.Star(5)
	gm := mustGame(t, 5, game.A(2))
	o := starOwnership(t, g, true)
	buy, cost := referenceBestResponse(gm, g, o, 1)
	if len(buy) != 0 {
		t.Fatalf("leaf best response buys %v, want nothing", buy)
	}
	if cost.Buy != 0 || cost.Dist != 1+2*3 {
		t.Fatalf("leaf best-response cost %v", cost)
	}
	// The center's best response keeps the graph connected.
	buyC, costC := referenceBestResponse(gm, g, o, 0)
	if costC.Unreachable != 0 || len(buyC) == 0 {
		t.Fatalf("center best response %v cost %v", buyC, costC)
	}
}

// A state is NE exactly if every agent's best response matches her current
// cost (differential test of CheckUnilateralNE vs referenceBestResponse).
func TestNEAgreesWithBestResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(3)
		m := n - 1 + rng.Intn(2)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g, err := graph.RandomConnectedGraph(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		gm := mustGame(t, n, game.AFrac(int64(1+rng.Intn(8)), 2))
		for o := range game.AllOwnerships(g) {
			oc := o.Clone()
			ne := CheckUnilateralNE(gm, g, oc).Stable
			allBest := true
			for u := 0; u < n; u++ {
				current := gm.NCGAgentCost(g, oc, u)
				if _, best := referenceBestResponse(gm, g, oc, u); best.Less(current, gm.Alpha) {
					allBest = false
					break
				}
			}
			if ne != allBest {
				t.Fatalf("NE=%v but best-response agreement=%v on %s", ne, allBest, g)
			}
		}
	}
}

func TestExistsUnilateralNE(t *testing.T) {
	gm := mustGame(t, 5, game.A(2))
	o, ok := ExistsUnilateralNE(gm, game.Star(5))
	if !ok {
		t.Fatal("star admits no NE ownership at α=2")
	}
	if !CheckUnilateralNE(gm, game.Star(5), o).Stable {
		t.Fatal("returned ownership is not NE")
	}
	// The path P5 at α=1/2 is not NE under any ownership: shortcuts are
	// cheap enough that some agent always buys one.
	gmCheap := mustGame(t, 5, game.AFrac(1, 2))
	if _, ok := ExistsUnilateralNE(gmCheap, construct.Path(5)); ok {
		t.Fatal("P5 at α=1/2 should admit no NE ownership")
	}
}

// TestUnilateralNEWideStrategyRefused: the 65-node star at α=1/2 with
// the center owning every edge is not unilateral AE, so it cannot be
// unilateral NE. Each agent's strategy space is the 2^64 subsets of the
// other nodes, past the exhaustive scan's width guard, and the NE check
// must refuse it rather than report stability (an unguarded 1<<64 mask
// bound wraps to an empty loop).
func TestUnilateralNEWideStrategyRefused(t *testing.T) {
	const n = 65
	gm := mustGame(t, n, game.AFrac(1, 2))
	star := game.Star(n)
	o := starOwnership(t, star, true)
	gmU := gm
	gmU.Variant = game.Variant{Consent: game.ConsentUnilateral}
	if Check(gmU, star, BAE).Stable {
		t.Fatal("premise broken: star65 at α=1/2 is unilateral-AE-stable")
	}
	stable, msg := scanOrGuard(func() bool { return CheckUnilateralNE(gm, star, o).Stable })
	if stable {
		t.Error("CheckUnilateralNE reports star65 NE-stable at α=1/2")
	}
	if !strings.Contains(msg, "move space too large") {
		t.Errorf("want the move-space guard to refuse the scan, got panic %q", msg)
	}
}
