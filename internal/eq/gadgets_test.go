package eq

import (
	"testing"

	"repro/internal/construct"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// The Figure 5 gadget: BAE and BGE at α = 209/2, but the hub's double swap
// violates BNE with the paper's exact gains (104 for a single swap's
// partner, 105 and 2 for the double swap).
func TestFigure5Gadget(t *testing.T) {
	f5 := construct.NewFigure5(100)
	gm := mustGame(t, f5.G.N(), game.AFrac(209, 2))

	if r := Check(gm, f5.G, RE); !r.Stable {
		t.Fatalf("figure5 not RE: %v", r.Witness)
	}
	if r := Check(gm, f5.G, BAE); !r.Stable {
		t.Fatalf("figure5 not BAE: %v", r.Witness)
	}
	if r := Check(gm, f5.G, BSwE); !r.Stable {
		t.Fatalf("figure5 not BSwE: %v", r.Witness)
	}

	swap := move.Swap{U: f5.A, Old: f5.B[0], New: f5.C[0]}
	before, after, err := CostDelta(gm, f5.G, swap)
	if err != nil {
		t.Fatal(err)
	}
	if gain := before[1].Dist - after[1].Dist; gain != 104 {
		t.Fatalf("single-swap partner gain = %d, want 104", gain)
	}

	double := move.Neighborhood{
		U:        f5.A,
		RemoveTo: []int{f5.B[0], f5.B[1]},
		AddTo:    []int{f5.C[0], f5.C[1]},
	}
	before, after, err = CostDelta(gm, f5.G, double)
	if err != nil {
		t.Fatal(err)
	}
	if gain := before[0].Dist - after[0].Dist; gain != 2 {
		t.Fatalf("hub gain = %d, want 2", gain)
	}
	if gain := before[1].Dist - after[1].Dist; gain != 105 {
		t.Fatalf("partner gain = %d, want 105", gain)
	}
	if !Improving(gm, f5.G, double) {
		t.Fatal("double swap should improve all actors (BNE violation)")
	}
}

// The Figure 6 gadget: in BNE at α = 7 (exhaustively) but not in 2-BSE,
// with the paper's exact agent distance costs.
func TestFigure6Gadget(t *testing.T) {
	f6 := construct.NewFigure6()
	gm := mustGame(t, 10, game.A(7))

	for name, tc := range map[string]struct {
		node int
		want int64
	}{
		"a1": {node: f6.A[0], want: 19},
		"b1": {node: f6.B[0], want: 27},
		"c1": {node: f6.C[0], want: 19},
	} {
		sum, unreachable := f6.G.TotalDist(tc.node)
		if unreachable != 0 || sum != tc.want {
			t.Fatalf("dist(%s) = %d, want %d", name, sum, tc.want)
		}
	}
	if r := Check(gm, f6.G, BNE); !r.Stable {
		t.Fatalf("figure6 not BNE: %v", r.Witness)
	}
	r := CheckKBSE(gm, f6.G, 2)
	if r.Stable {
		t.Fatal("figure6 unexpectedly in 2-BSE")
	}
	if _, ok := r.Witness.(move.Coalition); !ok {
		t.Fatalf("2-BSE witness %v is not a coalition", r.Witness)
	}
}

// The Figure 7 gadget: 2-BSE (rows >= 4) and 3-BSE (rows = 4) while the
// hub's all-rows swap always violates BNE.
func TestFigure7Gadget(t *testing.T) {
	for rows := 2; rows <= 5; rows++ {
		f7 := construct.NewFigure7(rows)
		gm := mustGame(t, f7.G.N(), game.A(f7.AlphaNum()))
		hubMove := move.Neighborhood{
			U:        f7.A,
			RemoveTo: append([]int(nil), f7.B...),
			AddTo:    append([]int(nil), f7.C...),
		}
		if !Improving(gm, f7.G, hubMove) {
			t.Fatalf("rows=%d: hub move should improve hub and all c-agents", rows)
		}
		two := CheckKBSE(gm, f7.G, 2).Stable
		if want := rows >= 4; two != want {
			t.Fatalf("rows=%d: 2-BSE = %v, want %v", rows, two, want)
		}
	}
	f7 := construct.NewFigure7(4)
	gm := mustGame(t, f7.G.N(), game.A(f7.AlphaNum()))
	if !CheckKBSE(gm, f7.G, 3).Stable {
		t.Fatal("figure7(4) should be in 3-BSE")
	}
}

// The Figure 2 witness: unilateral NE, not pairwise stable (Prop 2.3).
func TestFigure2Gadget(t *testing.T) {
	f2 := construct.NewFigure2()
	gm := mustGame(t, 5, game.A(2))
	o, err := game.NewOwnership(f2.G, f2.Owner)
	if err != nil {
		t.Fatal(err)
	}
	if r := CheckUnilateralNE(gm, f2.G, o); !r.Stable {
		t.Fatalf("figure2 not in unilateral NE: %v", r.Witness)
	}
	r := Check(gm, f2.G, PS)
	if r.Stable {
		t.Fatal("figure2 unexpectedly pairwise stable")
	}
	if _, ok := r.Witness.(move.Remove); !ok {
		t.Fatalf("PS witness %v is not a removal", r.Witness)
	}
}

// The Figure 8 witness: BAE but not unilateral AE (Prop 2.1 reverse).
func TestFigure8Gadget(t *testing.T) {
	g := construct.Figure8()
	gm := mustGame(t, 5, game.A(2))
	if r := Check(gm, g, BAE); !r.Stable {
		t.Fatalf("figure8 not BAE: %v", r.Witness)
	}
	gm.Variant = game.Variant{Consent: game.ConsentUnilateral}
	r := Check(gm, g, BAE)
	if r.Stable {
		t.Fatal("figure8 unexpectedly in unilateral AE")
	}
}

// Prop 2.1 forward direction: unilateral AE implies BAE, on an exhaustive
// n=5 sweep.
func TestAEImpliesBAE(t *testing.T) {
	for _, alpha := range []game.Alpha{game.A(1), game.A(2), game.AFrac(9, 2)} {
		gm := mustGame(t, 5, alpha)
		gmU := gm
		gmU.Variant = game.Variant{Consent: game.ConsentUnilateral}
		for g := range graph.All(5, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			if Check(gmU, g, BAE).Stable && !Check(gm, g, BAE).Stable {
				t.Fatalf("AE but not BAE at α=%s: %s", alpha, g)
			}
		}
	}
}

// Prop 2.2: bilateral RE coincides with unilateral RE under every
// ownership.
func TestProp22RemoveEquivalence(t *testing.T) {
	for _, alpha := range []game.Alpha{game.A(1), game.A(3)} {
		gm := mustGame(t, 4, alpha)
		for g := range graph.All(4, graph.EnumOptions{ConnectedOnly: true, MaxEdges: -1}) {
			bilateral := Check(gm, g, RE).Stable
			allOwnerships := true
			for o := range game.AllOwnerships(g) {
				if !checkUnilateralRE(gm, g, o.Clone()).Stable {
					allOwnerships = false
				}
			}
			if bilateral != allOwnerships {
				t.Fatalf("α=%s %s: bilateral RE=%v, unilateral-for-all=%v",
					alpha, g, bilateral, allOwnerships)
			}
		}
	}
}

// The named separation witnesses of Figure 1a.
func TestSeparationWitnesses(t *testing.T) {
	t.Run("swap tree: PS but not BSwE", func(t *testing.T) {
		g := construct.SwapTree()
		gm := mustGame(t, g.N(), game.A(construct.SwapTreeAlphaNum))
		if !Check(gm, g, PS).Stable {
			t.Fatal("swap tree not PS")
		}
		if Check(gm, g, BSwE).Stable {
			t.Fatal("swap tree unexpectedly BSwE")
		}
	})
	t.Run("K24: BGE but not 2-BSE", func(t *testing.T) {
		g := construct.CompleteBipartite(2, 4)
		gm := mustGame(t, 6, game.AFrac(5, 4))
		if !Check(gm, g, BGE).Stable {
			t.Fatal("K_{2,4} not BGE")
		}
		if CheckKBSE(gm, g, 2).Stable {
			t.Fatal("K_{2,4} unexpectedly 2-BSE")
		}
	})
	t.Run("three-coalition tree: 2-BSE but not 3-BSE", func(t *testing.T) {
		g := construct.ThreeCoalitionTree()
		gm := mustGame(t, 7, game.AFrac(17, 4))
		if !CheckKBSE(gm, g, 2).Stable {
			t.Fatal("tree not 2-BSE")
		}
		if CheckKBSE(gm, g, 3).Stable {
			t.Fatal("tree unexpectedly 3-BSE")
		}
	})
}

func TestAnalyticCheckers(t *testing.T) {
	if CycleBSEWindow(2, game.A(1)) {
		t.Fatal("window for n<3")
	}
	if !stretchedTreeBAE(10, 1, game.A(50)) || stretchedTreeBAE(10, 1, game.A(49)) {
		t.Fatal("stretchedTreeBAE threshold wrong")
	}
	if !stretchedTreeBGE(10, 2, game.A(140)) || stretchedTreeBGE(10, 2, game.A(139)) {
		t.Fatal("stretchedTreeBGE threshold wrong")
	}
	if !starIsBSE(game.A(2)) || starIsBSE(game.A(1)) {
		t.Fatal("starIsBSE threshold wrong")
	}
	// TreeStarBNE: a huge α certifies, a tiny one does not.
	if !TreeStarBNE(100, 7, 3, 1, game.A(10000)) {
		t.Fatal("TreeStarBNE should certify at huge α")
	}
	if TreeStarBNE(100, 7, 3, 1, game.A(10)) {
		t.Fatal("TreeStarBNE should reject at small α")
	}
	// k > 1 additionally requires α >= 6kn.
	if TreeStarBNE(100, 7, 3, 2, game.A(1199)) {
		t.Fatal("TreeStarBNE must enforce α >= 6kn for k > 1")
	}
}

// Cross-validation: the Lemma D.4/D.7 thresholds certify stretched trees
// that the exact checkers confirm.
func TestStretchedTreeAnalyticVsExact(t *testing.T) {
	for _, tc := range []struct{ d, k int }{{2, 1}, {2, 2}, {1, 3}} {
		st := construct.NewStretched(tc.d, tc.k)
		n := st.G.N()
		alpha := game.A(int64(7 * tc.k * n))
		gm := mustGame(t, n, alpha)
		if !stretchedTreeBGE(n, tc.k, alpha) {
			t.Fatalf("d=%d k=%d: analytic BGE threshold not met at its own bound", tc.d, tc.k)
		}
		if r := Check(gm, st.G, BGE); !r.Stable {
			t.Fatalf("d=%d k=%d: exact BGE check fails at α=%s: %v", tc.d, tc.k, alpha, r.Witness)
		}
	}
}

// checkUnilateralRE reports whether (g, o) is a Remove Equilibrium of the
// unilateral NCG: no agent strictly improves by removing an edge she owns
// (she alone stops paying; the edge disappears).
func checkUnilateralRE(gm game.Game, g *graph.Graph, o *game.Ownership) Result {
	for _, e := range g.Edges() {
		owner, _ := o.Owner(e.U, e.V)
		before := gm.NCGAgentCost(g, o, owner)
		g.RemoveEdge(e.U, e.V)
		after := gm.NCGAgentCost(g, o, owner)
		after.Buy-- // she stops paying for the removed edge
		g.AddEdge(e.U, e.V)
		if after.Less(before, gm.Alpha) {
			return unstable(move.Remove{U: owner, V: e.U + e.V - owner})
		}
	}
	return stable()
}

// stretchedTreeBAE is Lemma D.4: a k-stretched binary tree on n nodes is
// in BAE for α ≥ 5kn.
func stretchedTreeBAE(n, k int, alpha game.Alpha) bool { return alpha.Cmp(5*int64(k*n), 1) >= 0 }

// stretchedTreeBGE is Proposition 3.8: a k-stretched binary tree on n
// nodes is in BGE for α ≥ 7kn.
func stretchedTreeBGE(n, k int, alpha game.Alpha) bool { return alpha.Cmp(7*int64(k*n), 1) >= 0 }

// starIsBSE is Proposition 3.16's star case: the star is in BSE for α > 1.
func starIsBSE(alpha game.Alpha) bool { return alpha.Cmp(1, 1) > 0 }
