package sweep

import (
	"context"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
)

// figure1Alphas is the α grid of the Figure 1 sweeps (see
// experiments.latticeAlphas), duplicated here so the differential harness
// does not depend on the experiments package.
func figure1Alphas() []game.Alpha {
	return []game.Alpha{
		game.AFrac(1, 2), game.A(1), game.AFrac(3, 2),
		game.A(2), game.A(3), game.A(5),
	}
}

// sequentialVectors computes the reference stability vectors with direct
// eq.Check calls, in the engine's α-major task order.
func sequentialVectors(t *testing.T, n int, alphas []game.Alpha, concepts []eq.Concept) []Vector {
	t.Helper()
	var graphs []*graph.Graph
	for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
		graphs = append(graphs, g)
	}
	vectors := make([]Vector, 0, len(graphs)*len(alphas))
	for _, alpha := range alphas {
		gm, err := game.NewGame(n, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range graphs {
			var vec Vector
			for i, c := range concepts {
				if eq.Check(gm, g, c).Stable {
					vec |= 1 << i
				}
			}
			vectors = append(vectors, vec)
		}
	}
	return vectors
}

// TestDifferentialSweepMatchesSequential pins the parallel engine to the
// sequential checkers bit for bit: for every connected graph with n ≤ 5 and
// the Figure 1 α grid, the sweep's stability vectors must be identical to
// direct eq.Check calls — first on a cold cache, then again fully served
// from the warm cache. Neither the worker pool nor the cache may change a
// single verdict.
func TestDifferentialSweepMatchesSequential(t *testing.T) {
	alphas := figure1Alphas()
	concepts := eq.Concepts()
	for n := 2; n <= 5; n++ {
		cache := NewCache()
		want := sequentialVectors(t, n, alphas, concepts)
		for run, label := range []string{"cold", "warm"} {
			res, err := Run(context.Background(), Options{
				N:        n,
				Alphas:   alphas,
				Concepts: concepts,
				Workers:  8,
				Cache:    cache,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Items) != len(want) {
				t.Fatalf("n=%d %s: %d items, want %d", n, label, len(res.Items), len(want))
			}
			for ti, it := range res.Items {
				if it.Vector != want[ti] {
					t.Errorf("n=%d %s run: α=%s graph %s: sweep vector %09b != sequential %09b",
						n, label, alphas[it.AlphaIndex], it.Graph, it.Vector, want[ti])
				}
			}
			if run == 1 {
				// The warm run must be served entirely from the cache.
				if res.Misses != 0 {
					t.Errorf("n=%d warm run recomputed %d verdicts", n, res.Misses)
				}
				for _, it := range res.Items {
					if !it.FromCache {
						t.Errorf("n=%d warm run: α-index %d graph %d not from cache",
							n, it.AlphaIndex, it.GraphIndex)
					}
				}
			}
		}
	}
}

// TestDifferentialTreesMatchesSequential is the same harness over the free
// tree stream with ρ enabled, covering the PoA search path.
func TestDifferentialTreesMatchesSequential(t *testing.T) {
	const n = 7
	alpha := game.A(4)
	gm, err := game.NewGame(n, alpha)
	if err != nil {
		t.Fatal(err)
	}
	type ref struct {
		stable bool
		rho    float64
	}
	var want []ref
	for g := range graph.AllFreeTreeClasses(n) {
		want = append(want, ref{stable: eq.Check(gm, g, eq.PS).Stable, rho: gm.Rho(g)})
	}
	res, err := Run(context.Background(), Options{
		N:        n,
		Alphas:   []game.Alpha{alpha},
		Concepts: []eq.Concept{eq.PS},
		Workers:  8,
		Source:   Trees,
		Cache:    NewCache(),
		Rho:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graphs != len(want) {
		t.Fatalf("%d trees enumerated, want %d", res.Graphs, len(want))
	}
	for ti, it := range res.Items {
		if it.Vector.Stable(0) != want[ti].stable || it.Rho != want[ti].rho {
			t.Errorf("tree %d: sweep (stable=%v ρ=%v) != sequential (stable=%v ρ=%v)",
				ti, it.Vector.Stable(0), it.Rho, want[ti].stable, want[ti].rho)
		}
	}
}
