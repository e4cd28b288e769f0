package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/construct"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
)

func TestTreeAllDistMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		g := graph.RandomTree(n, rng)
		got, err := TreeAllDist(g)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			want, unreachable := g.TotalDist(u)
			if unreachable != 0 || got[u] != want {
				t.Fatalf("TreeAllDist[%d] = %d, BFS says %d (%s)", u, got[u], want, g)
			}
		}
	}
}

func TestTreeAllDistRejectsNonTree(t *testing.T) {
	if _, err := TreeAllDist(construct.Cycle(4)); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestTreeRhoMatchesRho(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		g := graph.RandomTree(n, rng)
		gm, _ := game.NewGame(n, game.AFrac(int64(1+rng.Intn(10)), 2))
		fast, err := TreeRho(gm, g)
		if err != nil {
			t.Fatal(err)
		}
		slow := gm.Rho(g)
		if math.Abs(fast-slow) > 1e-9 {
			t.Fatalf("TreeRho %.9f vs Rho %.9f on %s", fast, slow, g)
		}
	}
}

func TestTreeMaxAgentCost(t *testing.T) {
	gm, _ := game.NewGame(5, game.A(3))
	g := game.Star(5)
	got, err := TreeMaxAgentCost(gm, g)
	if err != nil {
		t.Fatal(err)
	}
	// Center: 4α + 4 = 16; leaf: α + 7 = 10.
	if got != 16 {
		t.Fatalf("max agent cost = %v, want 16", got)
	}
}

func TestWorstTreeStarIsOptimalAtAlphaOverOne(t *testing.T) {
	// For α > 1 the star is the unique social optimum, so the worst
	// PS-stable tree ratio is >= 1 with the star among equilibria.
	res, err := WorstTree(context.Background(), 7, game.A(3), eq.PS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Equilibria == 0 || res.Rho < 1 {
		t.Fatalf("WorstTree: %+v", res)
	}
	if res.Candidates != 11 { // free trees on 7 nodes
		t.Fatalf("candidates = %d, want 11", res.Candidates)
	}
}

func TestWorstGraphCliqueOnlyBelowOne(t *testing.T) {
	res, err := WorstGraph(context.Background(), 4, game.AFrac(1, 2), eq.BSE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Equilibria != 1 || res.Rho != 1 {
		t.Fatalf("α<1 BSE: %+v (want exactly the clique at ρ=1)", res)
	}
}

func TestRhoOfFamily(t *testing.T) {
	gm, _ := game.NewGame(4, game.A(2))
	if _, err := RhoOfFamily(gm, game.Star(4), false, "star"); err == nil {
		t.Fatal("uncertified family accepted")
	}
	rho, err := RhoOfFamily(gm, game.Star(4), true, "star")
	if err != nil || rho != 1 {
		t.Fatalf("rho = %v, err = %v", rho, err)
	}
}

func TestBoundFormulas(t *testing.T) {
	if got := Thm36Upper(game.A(4)); got != 6 {
		t.Fatalf("Thm36Upper(4) = %v, want 6", got)
	}
	if got := Thm310Lower(game.A(256)); math.Abs(got-(2-17.0/8)) > 1e-12 {
		t.Fatalf("Thm310Lower(256) = %v", got)
	}
	if got := Cor32Bound(10, game.A(100)); got != 2 {
		t.Fatalf("Cor32Bound = %v, want 2", got)
	}
	if got := Prop31Bound(10, game.A(1), 9); got != 1 {
		t.Fatalf("Prop31Bound = %v, want 1 (star distances)", got)
	}
	if got := PSUpperBound(100, game.A(25)); got != 5 {
		t.Fatalf("PSUpperBound = %v, want √25", got)
	}
	if got := PSUpperBound(100, game.A(10000)); got != 1 {
		t.Fatalf("PSUpperBound = %v, want n/√α = 1", got)
	}
	if got := Thm320Upper(0.5); got != 7 {
		t.Fatalf("Thm320Upper(1/2) = %v, want 7", got)
	}
	if Thm321Upper(1<<20) <= 0 {
		t.Fatal("Thm321Upper must be positive")
	}
	if got := Lemma317Bound(10, game.A(1), 20); got != 2 {
		t.Fatalf("Lemma317Bound = %v, want 2", got)
	}
}

// TestLemma318BoundHolds: the closed form of Lemma 3.18 dominates the
// exact maximal agent cost of almost complete d-ary trees.
func TestLemma318BoundHolds(t *testing.T) {
	for _, n := range []int{10, 50, 200, 1000} {
		for _, d := range []int{2, 3, 5} {
			g := construct.AlmostCompleteDAry(n, d)
			gm, _ := game.NewGame(n, game.A(7))
			worst, err := TreeMaxAgentCost(gm, g)
			if err != nil {
				t.Fatal(err)
			}
			bound := Lemma318Bound(n, d, game.A(7))
			if worst > bound+1e-9 {
				t.Fatalf("n=%d d=%d: max cost %.3f > bound %.3f", n, d, worst, bound)
			}
		}
	}
}

func TestProp322MinPGrows(t *testing.T) {
	p1 := Prop322MinP(100)
	p2 := Prop322MinP(1_000_000)
	p3 := Prop322MinP(1_000_000_000_000)
	if !(p1 <= p2 && p2 <= p3 && p3 > p1) {
		t.Fatalf("p* not growing: %v %v %v", p1, p2, p3)
	}
}

// TestLemmaValidatorsOnBSwETrees: on exhaustively verified BSwE trees the
// Section 3.2.1 lemma inequalities hold.
func TestLemmaValidatorsOnBSwETrees(t *testing.T) {
	n := 9
	for _, alpha := range []game.Alpha{game.A(2), game.A(5), game.A(20)} {
		gm, _ := game.NewGame(n, alpha)
		graph.FreeTrees(n, func(g *graph.Graph) {
			if !eq.CheckBSwE(gm, g).Stable {
				return
			}
			if err := VerifyLemma33(g, alpha); err != nil {
				t.Fatalf("α=%s: %v on %s", alpha, err, g)
			}
			if err := VerifyLemma34(g, alpha); err != nil {
				t.Fatalf("α=%s: %v on %s", alpha, err, g)
			}
			if err := VerifyLemma35(g, alpha); err != nil {
				t.Fatalf("α=%s: %v on %s", alpha, err, g)
			}
		})
	}
}

// TestLemma314OnThreeBSETrees: the at-most-one-deep-child invariant holds
// on every exhaustively verified 3-BSE tree.
func TestLemma314OnThreeBSETrees(t *testing.T) {
	n := 8
	for _, alpha := range []game.Alpha{game.A(2), game.A(6)} {
		gm, _ := game.NewGame(n, alpha)
		graph.FreeTrees(n, func(g *graph.Graph) {
			if !eq.CheckKBSE(gm, g, 3).Stable {
				return
			}
			if err := VerifyLemma314(g, alpha); err != nil {
				t.Fatalf("α=%s: %v on %s", alpha, err, g)
			}
		})
	}
}

func TestMedianDist(t *testing.T) {
	got, err := MedianDist(construct.Path(5))
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 { // center of P5: 2+1+1+2
		t.Fatalf("MedianDist(P5) = %d, want 6", got)
	}
	if _, err := MedianDist(construct.Cycle(4)); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestMaxAgentCostGeneral(t *testing.T) {
	gm, _ := game.NewGame(4, game.A(1))
	got := MaxAgentCost(gm, construct.Cycle(4))
	// Every cycle node: 2α + (1+1+2) = 6.
	if got != 6 {
		t.Fatalf("MaxAgentCost(C4) = %v, want 6", got)
	}
}
