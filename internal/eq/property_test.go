package eq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/game"
	"repro/internal/graph"
)

// Stability of every concept is a graph property: invariant under
// relabeling the agents.
func TestStabilityIsIsomorphismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(3)
		m := rng.Intn(n*(n-1)/2 + 1)
		g, err := graph.RandomGraph(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(n)
		h, err := g.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		gm := mustGame(t, n, game.AFrac(int64(1+rng.Intn(12)), int64(1+rng.Intn(2))))
		for _, c := range Concepts() {
			if Check(gm, g, c).Stable != Check(gm, h, c).Stable {
				t.Fatalf("%s stability not invariant under %v on %s", c, perm, g)
			}
		}
	}
}

// A disconnected graph is never in BAE: bridging two components reduces
// both endpoints' unreachable count, which dominates any buying cost under
// the lexicographic ordering.
func TestDisconnectedNeverBAE(t *testing.T) {
	f := func(seed int64, alphaNum uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		// Two components: a tree on the first half, isolated rest.
		k := 2 + rng.Intn(n-2)
		g := graph.New(n)
		sub := graph.RandomTree(k, rng)
		for _, e := range sub.Edges() {
			g.AddEdge(e.U, e.V)
		}
		gm, err := game.NewGame(n, game.AFrac(int64(alphaNum%50)+1, 2))
		if err != nil {
			return false
		}
		return !Check(gm, g, BAE).Stable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Cost comparison under a fixed α is a strict weak ordering: exactly one
// of a<b, b<a, a≈b holds, and equality is agreement on the scalar.
func TestCostOrderingProperties(t *testing.T) {
	f := func(u1, b1, d1, u2, b2, d2 uint16, num, den uint8) bool {
		alpha, err := game.NewAlpha(int64(num%40)+1, int64(den%4)+1)
		if err != nil {
			return false
		}
		a := game.Cost{Unreachable: int64(u1 % 3), Buy: int64(b1 % 50), Dist: int64(d1)}
		b := game.Cost{Unreachable: int64(u2 % 3), Buy: int64(b2 % 50), Dist: int64(d2)}
		less, greater := a.Less(b, alpha), b.Less(a, alpha)
		equal := a.Unreachable == b.Unreachable &&
			alpha.Num()*a.Buy+alpha.Den()*a.Dist == alpha.Num()*b.Buy+alpha.Den()*b.Dist
		count := 0
		for _, x := range []bool{less, greater, equal} {
			if x {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Single-agent and two-agent games are trivially stable for everything
// (the only move anyone could make is an addition at n=2, which pays off
// exactly when α < 1).
func TestTinyGames(t *testing.T) {
	gm := mustGame(t, 2, game.A(2))
	g := graph.New(2)
	if !Check(gm, g, RE).Stable {
		t.Fatal("empty 2-graph should be RE")
	}
	if Check(gm, g, BAE).Stable {
		t.Fatal("disconnected 2-graph must fail BAE (connectivity dominates)")
	}
	g.AddEdge(0, 1)
	for _, c := range Concepts() {
		if !Check(gm, g, c).Stable {
			t.Fatalf("K2 unstable for %s", c)
		}
	}
}

// The BNE checker agrees with a brute-force reimplementation on random
// small graphs (differential test of the subset enumeration).
func TestBNEAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(3)
		m := rng.Intn(n*(n-1)/2 + 1)
		g, err := graph.RandomGraph(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		gm := mustGame(t, n, game.AFrac(int64(1+rng.Intn(8)), 2))
		want := bruteForceBNE(gm, g)
		got := Check(gm, g, BNE).Stable
		if got != want {
			t.Fatalf("BNE checker %v, brute force %v on %s at α=%s", got, want, g, gm.Alpha)
		}
	}
}

// bruteForceBNE re-derives BNE stability by materializing every candidate
// graph that differs from g only in edges incident to a single agent.
func bruteForceBNE(gm game.Game, g *graph.Graph) bool {
	n := g.N()
	base := make([]game.Cost, n)
	for u := 0; u < n; u++ {
		base[u] = gm.AgentCost(g, u)
	}
	for u := 0; u < n; u++ {
		var others []int
		for v := 0; v < n; v++ {
			if v != u {
				others = append(others, v)
			}
		}
		for mask := 0; mask < 1<<len(others); mask++ {
			trial := g.Clone()
			var added []int
			changed := false
			for i, v := range others {
				want := mask&(1<<i) != 0
				have := g.HasEdge(u, v)
				if want == have {
					continue
				}
				changed = true
				if want {
					trial.AddEdge(u, v)
					added = append(added, v)
				} else {
					trial.RemoveEdge(u, v)
				}
			}
			if !changed {
				continue
			}
			ok := gm.AgentCost(trial, u).Less(base[u], gm.Alpha)
			for _, v := range added {
				if !ok {
					break
				}
				ok = gm.AgentCost(trial, v).Less(base[v], gm.Alpha)
			}
			if ok {
				return false
			}
		}
	}
	return true
}
