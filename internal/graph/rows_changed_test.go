package graph_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// TestRowsChangedPerCommit measures how many distance rows a committed
// move changes, |U|+|V| read off IncDist's side lists, in the setting
// where residual scheduling would have to pay off: the breakpoint
// scheduler at n=50, α=10, from ER starts at the simulate default 4/n.
// Each walk's history is replayed on a fresh kernel. Every commit changes
// at least the rows of its two endpoints and at most all n. The log
// (go test -v) gives the mean, and the mean share of vertex pairs whose
// two rows the commit left alone: the breakpoint scheduler re-probes
// every pair each step, so that share bounds the add re-probes a
// per-row version stamp could skip.
func TestRowsChangedPerCommit(t *testing.T) {
	const n = 50
	gm, err := game.NewGame(n, game.A(10))
	if err != nil {
		t.Fatal(err)
	}
	var commits, rows int
	var clean float64
	pairs := func(k int) float64 { return float64(k*(k-1)) / 2 }
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start, err := graph.RandomConnectedGNP(n, 4.0/n, rng)
		if err != nil {
			t.Fatal(err)
		}
		g := start.Clone()
		tr, err := dynamics.Run(context.Background(), gm, g, dynamics.Options{
			Kinds:     []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind},
			Scheduler: dynamics.SchedulerBreakpoint,
			MaxSteps:  200,
		})
		if err != nil {
			t.Fatal(err)
		}
		inc := graph.NewIncDist(start)
		for i, m := range tr.History {
			switch mv := m.(type) {
			case move.Remove:
				inc.RemoveEdge(mv.U, mv.V)
			case move.Add:
				inc.AddEdge(mv.U, mv.V)
			default:
				t.Fatalf("unexpected move %v", m)
			}
			nu, nv := graph.SideSizes(inc)
			if nu < 1 || nv < 1 || nu+nv > n {
				t.Fatalf("seed %d, commit %d (%v): sides %d and %d", seed, i, m, nu, nv)
			}
			commits++
			rows += nu + nv
			clean += pairs(n-nu-nv) / pairs(n)
		}
		if !start.Equal(g) {
			t.Fatalf("seed %d: replay ended on %s, the walk on %s", seed, graph.Encode(start), graph.Encode(g))
		}
	}
	t.Logf("%d commits change %.1f of %d rows on average and leave %.1f%% of vertex pairs clean",
		commits, float64(rows)/float64(commits), n, 100*clean/float64(commits))
}
