package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/construct"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/sweep"
	"repro/internal/tree"
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

// TestOneNodePoA: the one-node game has ρ = 1 through both ρ paths, and
// its PoA search reports the lone node as a witness of ρ = 1.
func TestOneNodePoA(t *testing.T) {
	gm, err := game.NewGame(1, game.A(1))
	if err != nil {
		t.Fatal(err)
	}
	if rho, err := TreeRho(gm, graph.New(1)); err != nil || rho != 1 {
		t.Fatalf("TreeRho(one node) = %v, %v; want 1", rho, err)
	}
	for _, worst := range []func(context.Context, int, game.Alpha, eq.Concept, *sweep.Cache) (PoAResult, error){WorstTree, WorstGraph} {
		res, err := worst(context.Background(), 1, game.A(1), eq.PS, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rho != 1 || res.Witness == nil || res.Equilibria != 1 {
			t.Fatalf("one-node PoA = %+v, want ρ 1 with the lone node as witness", res)
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
	if _, err := rhoOfFamily(gm, game.Star(4), false, "star"); err == nil {
		t.Fatal("uncertified family accepted")
	}
	rho, err := rhoOfFamily(gm, game.Star(4), true, "star")
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
	if got := cor32Bound(10, game.A(100)); got != 2 {
		t.Fatalf("cor32Bound = %v, want 2", got)
	}
	if got := prop31Bound(10, game.A(1), 9); got != 1 {
		t.Fatalf("prop31Bound = %v, want 1 (star distances)", got)
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
			bound := lemma318Bound(n, d, game.A(7))
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
		for g := range graph.AllFreeTreeClasses(n) {
			if !eq.Check(gm, g, eq.BSwE).Stable {
				continue
			}
			if err := verifyBSwELemmas(g, alpha); err != nil {
				t.Fatalf("α=%s: %v on %s", alpha, err, g)
			}
		}
	}
}

// TestLemma314OnThreeBSETrees: the at-most-one-deep-child invariant holds
// on every exhaustively verified 3-BSE tree.
func TestLemma314OnThreeBSETrees(t *testing.T) {
	n := 8
	for _, alpha := range []game.Alpha{game.A(2), game.A(6)} {
		gm, _ := game.NewGame(n, alpha)
		for g := range graph.AllFreeTreeClasses(n) {
			if !eq.CheckKBSE(gm, g, 3).Stable {
				continue
			}
			if err := VerifyLemma314(g, alpha); err != nil {
				t.Fatalf("α=%s: %v on %s", alpha, err, g)
			}
		}
	}
}

func TestMedianDist(t *testing.T) {
	got, err := medianDist(construct.Path(5))
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 { // center of P5: 2+1+1+2
		t.Fatalf("medianDist(P5) = %d, want 6", got)
	}
	if _, err := medianDist(construct.Cycle(4)); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestMaxAgentCostGeneral(t *testing.T) {
	gm, _ := game.NewGame(4, game.A(1))
	got := maxAgentCost(gm, construct.Cycle(4))
	// Every cycle node: 2α + (1+1+2) = 6.
	if got != 6 {
		t.Fatalf("maxAgentCost(C4) = %v, want 6", got)
	}
}

// verifyBSwELemmas checks Lemmas 3.3–3.5 on a BSwE tree rooted at a
// 1-median. 3.3: every node u has a T_u-1-median v with
// ℓ(v) <= ℓ(u) + 2α/n. 3.4: depth(T_u) <= (1 + 2α/n)·log|T_u|. 3.5:
// |T_u| <= α/(ℓ(u)−1) whenever ℓ(u) >= 2.
func verifyBSwELemmas(g *graph.Graph, alpha game.Alpha) error {
	rt, err := tree.RootAtMedian(g)
	if err != nil {
		return err
	}
	slack := 2 * alpha.Float() / float64(g.N())
	for u := 0; u < g.N(); u++ {
		l, size := rt.Layer(u), float64(rt.SubtreeSize(u))
		near := func(v int) bool { return float64(rt.Layer(v)) <= float64(l)+slack }
		if !slices.ContainsFunc(rt.SubtreeMedians(u), near) {
			return fmt.Errorf("lemma 3.3 violated at node %d", u)
		}
		if size > 1 && float64(rt.SubtreeDepth(u)) > (1+slack)*Log2(size)+1e-9 {
			return fmt.Errorf("lemma 3.4 violated at node %d: depth %d", u, rt.SubtreeDepth(u))
		}
		if l >= 2 && size > alpha.Float()/float64(l-1)+1e-9 {
			return fmt.Errorf("lemma 3.5 violated at node %d: |T_u|=%v", u, size)
		}
	}
	return nil
}

// prop31Bound is Proposition 3.1: for a connected RE graph and any node u,
// ρ(G) <= (α + dist(u)) / (α + n - 1).
func prop31Bound(n int, alpha game.Alpha, distU int64) float64 {
	return (alpha.Float() + float64(distU)) / (alpha.Float() + float64(n-1))
}

// cor32Bound is Corollary 3.2: ρ(G) <= 1 + n²/α for connected RE graphs.
func cor32Bound(n int, alpha game.Alpha) float64 {
	return 1 + float64(n)*float64(n)/alpha.Float()
}

// lemma318Bound is Lemma 3.18: in an almost complete d-ary tree every
// agent's cost is at most (d+1)·α + 2(n−1)·log_d n.
func lemma318Bound(n, d int, alpha game.Alpha) float64 {
	return float64(d+1)*alpha.Float() + 2*float64(n-1)*math.Log(float64(n))/math.Log(float64(d))
}

// maxAgentCost is the maximal agent cost α·buy + dist of a connected g.
func maxAgentCost(gm game.Game, g *graph.Graph) float64 {
	worst := 0.0
	for u := 0; u < g.N(); u++ {
		worst = max(worst, gm.AgentCost(g, u).Value(gm.Alpha))
	}
	return worst
}

// medianDist is dist(r) for a 1-median root r of a tree, the quantity
// every Section 3.2 upper bound controls.
func medianDist(g *graph.Graph) (int64, error) {
	medians, err := tree.Medians(g)
	if err != nil {
		return 0, err
	}
	sum, _ := g.TotalDist(medians[0])
	return sum, nil
}

// rhoOfFamily is ρ of a constructed family member whose stability the
// caller certified, refusing uncertified members.
func rhoOfFamily(gm game.Game, g *graph.Graph, certified bool, label string) (float64, error) {
	if !certified {
		return 0, fmt.Errorf("%s is not certified stable at α=%s", label, gm.Alpha)
	}
	return gm.Rho(g), nil
}
