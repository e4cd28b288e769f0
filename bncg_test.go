package bncg_test

import (
	"context"
	"testing"

	bncg "repro"
)

// The facade exercises the full pipeline the README advertises.
func TestQuickstartFlow(t *testing.T) {
	gm, err := bncg.NewGame(6, bncg.AlphaInt(3))
	if err != nil {
		t.Fatal(err)
	}
	star := bncg.Star(6)
	for _, c := range []bncg.Concept{bncg.RE, bncg.PS, bncg.BGE, bncg.BNE, bncg.BSE} {
		if res := bncg.Check(gm, star, c); !res.Stable {
			t.Fatalf("star unstable for %s: %v", c, res.Witness)
		}
	}
	if rho := gm.Rho(star); rho != 1 {
		t.Fatalf("ρ(star) = %v, want 1", rho)
	}
}

func TestFacadeGraphRoundTrip(t *testing.T) {
	g, err := bncg.FromEdges(3, []bncg.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	back, err := bncg.DecodeGraph(bncg.EncodeGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("facade encode/decode mismatch")
	}
}

func TestFacadePoA(t *testing.T) {
	res, err := bncg.WorstTree(context.Background(), 7, bncg.AlphaInt(4), bncg.PS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho < 1 || res.Witness == nil {
		t.Fatalf("WorstTree: %+v", res)
	}
	rho, err := bncg.TreeRho(mustGame(t, 7, bncg.AlphaInt(4)), res.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if rho != res.Rho {
		t.Fatalf("TreeRho %v != search ρ %v", rho, res.Rho)
	}
}

func TestFacadeAlphaConstructors(t *testing.T) {
	if bncg.Alpha2(9, 2).String() != "9/2" {
		t.Fatal("Alpha2 wrong")
	}
	if _, err := bncg.NewAlpha(-1, 2); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	ids := bncg.ExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	rep, err := bncg.Experiment(context.Background(), "F3", bncg.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllPass() {
		t.Fatalf("F3 failed:\n%s", rep)
	}
}

func mustGame(t *testing.T, n int, a bncg.Alpha) bncg.Game {
	t.Helper()
	gm, err := bncg.NewGame(n, a)
	if err != nil {
		t.Fatal(err)
	}
	return gm
}
