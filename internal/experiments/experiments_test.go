package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/game"
)

// Every registered experiment must pass all of its own shape checks at
// Quick scale — this is the repository's integration test for the paper's
// qualitative claims.
func TestAllExperimentsPassAtQuickScale(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := Run(context.Background(), id, Quick)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != id {
				t.Fatalf("report ID %q, want %q", rep.ID, id)
			}
			if !rep.AllPass() {
				t.Errorf("failed checks:\n%s", rep)
			}
			if len(rep.Checks) == 0 {
				t.Fatal("experiment produced no checks")
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), "nope", Quick); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestIDsCoverEveryTableRowAndFigure(t *testing.T) {
	// The experiment inventory from DESIGN.md §4: every Table 1 row and
	// every figure has a registered runner.
	want := []string{
		"T1-PS", "T1-BSwE", "T1-BGE", "T1-BNE", "T1-3BSE", "T1-BSE",
		"F1a", "F1b", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
		"L2.4", "P3.16", "P3.22", "DYN", "OQ-GENERAL",
		"NCG-COMPARE", "APP-B",
	}
	have := make(map[string]bool)
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registered %d experiments, inventory lists %d", len(IDs()), len(want))
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "X", Title: "demo"}
	r.addLinef("row %d", 1)
	r.addCheck("ok", true, "fine")
	r.addCheck("bad", false, "broken")
	out := r.String()
	for _, want := range []string{"== X: demo ==", "row 1", "[PASS] ok: fine", "[FAIL] bad: broken"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report rendering missing %q:\n%s", want, out)
		}
	}
	if r.AllPass() {
		t.Fatal("AllPass with a failing check")
	}
}

// Fabrikant et al.: trees in NE have PoA at most 5 — verified exhaustively
// at small n.
func TestUnilateralTreePoABelowFive(t *testing.T) {
	for n := 4; n <= 7; n++ {
		for _, alpha := range []game.Alpha{game.A(1), game.A(2), game.A(5), game.A(20)} {
			gm, err := game.NewGame(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			worst, stable := unilateralTreePoA(gm)
			if stable == 0 {
				t.Fatalf("n=%d α=%s: no NE trees (star must qualify for α>=1)", n, alpha)
			}
			if worst > 5 {
				t.Fatalf("n=%d α=%s: unilateral tree PoA %.3f > 5", n, alpha, worst)
			}
		}
	}
}
