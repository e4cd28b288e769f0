package dynamics

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
)

func TestRunValidation(t *testing.T) {
	gm, _ := game.NewGame(4, game.A(2))
	g := game.Star(4)
	if _, err := Run(context.Background(), gm, g, Options{Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Fatal("empty kinds accepted")
	}
	if _, err := Run(context.Background(), gm, g, Options{Kinds: []Kind{AddKind}, MaxSteps: -5}); err == nil {
		t.Fatal("negative MaxSteps accepted")
	}
}

// TestNilRngDefaultsDeterministically: the zero-value Options (nil Rng) is
// usable and reproducible — two identical runs apply the same move history.
func TestNilRngDefaultsDeterministically(t *testing.T) {
	gm, _ := game.NewGame(7, game.A(3))
	run := func() (Trace, *graph.Graph) {
		rng := rand.New(rand.NewSource(99))
		g, err := graph.RandomConnectedGraph(7, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Run(context.Background(), gm, g, Options{Kinds: []Kind{RemoveKind, AddKind}})
		if err != nil {
			t.Fatal(err)
		}
		return tr, g
	}
	tr1, g1 := run()
	tr2, g2 := run()
	if !tr1.Converged {
		t.Fatalf("nil-Rng run did not converge: %+v", tr1)
	}
	if tr1.Steps != tr2.Steps || len(tr1.History) != len(tr2.History) {
		t.Fatalf("nil-Rng runs diverge: %d vs %d steps", tr1.Steps, tr2.Steps)
	}
	for i := range tr1.History {
		if tr1.History[i] != tr2.History[i] {
			t.Fatalf("nil-Rng histories diverge at move %d: %v vs %v", i, tr1.History[i], tr2.History[i])
		}
	}
	if !g1.Equal(g2) {
		t.Fatalf("nil-Rng final states differ: %s vs %s", g1, g2)
	}
}

// TestRunCancelled: a cancelled context stops the dynamics before any move
// and surfaces ctx.Err() with the partial trace.
func TestRunCancelled(t *testing.T) {
	gm, _ := game.NewGame(8, game.A(3))
	rng := rand.New(rand.NewSource(7))
	g, err := graph.RandomConnectedGraph(8, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := Run(ctx, gm, g, Options{Kinds: []Kind{RemoveKind, AddKind}, Rng: rng})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tr.Steps != 0 || tr.Converged {
		t.Fatalf("pre-cancelled run should stop immediately: %+v", tr)
	}
	if _, err := AnalyzeStateGraph(ctx, 4, game.A(2), []Kind{RemoveKind, AddKind}); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeStateGraph err = %v, want context.Canceled", err)
	}
}

func TestStarIsFixedPoint(t *testing.T) {
	gm, _ := game.NewGame(6, game.A(2))
	g := game.Star(6)
	tr, err := Run(context.Background(), gm, g, Options{
		Kinds: []Kind{RemoveKind, AddKind, SwapKind},
		Rng:   rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Converged || tr.Steps != 0 {
		t.Fatalf("star should be an immediate fixed point: %+v", tr)
	}
}

// TestFixedPointsAreEquilibria: whatever graph the dynamics stop on passes
// the exact checker matching the move set.
func TestFixedPointsAreEquilibria(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(4)
		gm, _ := game.NewGame(n, game.AFrac(int64(2+rng.Intn(10)), 2))
		g, err := graph.RandomConnectedGraph(n, n+rng.Intn(n), rng)
		if err != nil {
			t.Fatal(err)
		}
		psOnly := rng.Intn(2) == 0
		kinds := []Kind{RemoveKind, AddKind}
		if !psOnly {
			kinds = append(kinds, SwapKind)
		}
		tr, err := Run(context.Background(), gm, g, Options{Kinds: kinds, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Converged {
			t.Fatalf("dynamics did not converge in %d steps (α=%s)", tr.Steps, gm.Alpha)
		}
		if psOnly {
			if r := eq.CheckPS(gm, g); !r.Stable {
				t.Fatalf("PS fixed point fails exact check: %v", r.Witness)
			}
		} else if r := eq.CheckBGE(gm, g); !r.Stable {
			t.Fatalf("BGE fixed point fails exact check: %v", r.Witness)
		}
	}
}

func TestHistoryMatchesSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	gm, _ := game.NewGame(8, game.A(3))
	g, err := graph.RandomConnectedGraph(8, 14, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), gm, g, Options{Kinds: []Kind{RemoveKind, AddKind}, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.History) != tr.Steps {
		t.Fatalf("history length %d != steps %d", len(tr.History), tr.Steps)
	}
}

// TestDynamicsKeepConnectivity: improving moves never disconnect the graph
// (disconnection is lexicographically catastrophic for the mover).
func TestDynamicsKeepConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		n := 7
		gm, _ := game.NewGame(n, game.AFrac(int64(1+rng.Intn(8)), 2))
		g, err := graph.RandomConnectedGraph(n, n+2, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), gm, g, Options{Kinds: []Kind{RemoveKind, AddKind, SwapKind}, Rng: rng}); err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			t.Fatalf("dynamics disconnected the graph: %s", g)
		}
	}
}
