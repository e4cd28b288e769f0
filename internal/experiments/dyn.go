package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func init() {
	register("DYN", runDynamics)
}

// runDynamics is the supporting convergence experiment: improving-response
// dynamics from random connected graphs reach PS (and BGE) states, those
// states verify against the exact checkers, and the sampled equilibrium
// quality stays below the exhaustive worst case. The sampling runs on the
// simulate engine: one batch per move set over the α grid.
func runDynamics(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "DYN", Title: "Improving-response dynamics to PS and BGE"}
	n := 10
	samples := 20
	if s == Full {
		samples = 60
	}
	alphas := []game.Alpha{game.A(2), game.A(5), game.A(12)}
	psKinds := []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind}
	bgeKinds := append(psKinds, dynamics.SwapKind)
	batch := func(kinds []dynamics.Kind) ([]sim.AlphaSummary, error) {
		res, err := sim.Run(ctx, sim.Options{
			N: n, Alphas: alphas, Trajectories: samples, Kinds: kinds, Seed: 42,
		})
		if err != nil {
			return nil, err
		}
		return res.Summaries, nil
	}
	ps, err := batch(psKinds)
	if err != nil {
		r.addCheck("PS sample", false, "%v", err)
		return r
	}
	bge, err := batch(bgeKinds)
	if err != nil {
		r.addCheck("BGE sample", false, "%v", err)
		return r
	}
	cache := sweep.NewCache()
	for i, alpha := range alphas {
		stPS, stBGE := ps[i], bge[i]
		r.addLinef("α=%-3s PS : conv %d/%d, mean ρ %.3f, worst ρ %.3f, mean steps %.1f",
			alpha, stPS.Converged, stPS.Trajectories, stPS.MeanRho, stPS.WorstRho, stPS.StepsMean)
		r.addLinef("α=%-3s BGE: conv %d/%d, mean ρ %.3f, worst ρ %.3f, mean steps %.1f",
			alpha, stBGE.Converged, stBGE.Trajectories, stBGE.MeanRho, stBGE.WorstRho, stBGE.StepsMean)
		r.addCheck("PS converges", stPS.Converged == stPS.Trajectories,
			"α=%s: %d/%d", alpha, stPS.Converged, stPS.Trajectories)
		r.addCheck("BGE converges", stBGE.Converged == stBGE.Trajectories,
			"α=%s: %d/%d", alpha, stBGE.Converged, stBGE.Trajectories)

		// Sampled equilibria stay below the exhaustive tree worst case.
		worst, err := core.WorstTree(ctx, n, alpha, eq.PS, cache)
		if err != nil {
			r.addCheck("worst", false, "%v", err)
			return r
		}
		if worst.Rho > 0 {
			r.addCheck("sampled below worst case", stPS.MeanRho <= worst.Rho+1e-9,
				"α=%s: mean %.3f <= exhaustive worst %.3f", alpha, stPS.MeanRho, worst.Rho)
		}
	}

	// Fixed points verify: one BGE run, final state passes the exact
	// checker.
	rng := rand.New(rand.NewSource(42))
	gm, _ := game.NewGame(n, game.A(5))
	g, err := graph.RandomConnectedGraph(n, n+3, rng)
	if err != nil {
		r.addCheck("gen", false, "%v", err)
		return r
	}
	tr, err := dynamics.Run(ctx, gm, g, dynamics.Options{
		Kinds: []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind, dynamics.SwapKind},
		Rng:   rng,
	})
	if err != nil {
		r.addCheck("run", false, "%v", err)
		return r
	}
	stable := eq.Check(gm, g, eq.BGE).Stable
	r.addCheck("fixed point is BGE", tr.Converged && stable,
		"converged=%v after %d steps, exact BGE=%v", tr.Converged, tr.Steps, stable)

	// Extension: is convergence guaranteed, not just observed? Build the
	// full improving-move digraph over all labeled graphs and check it for
	// directed cycles (a cycle would mean improving-response dynamics can
	// run forever, as happens in some NCG variants [Kawald–Lenzner]).
	nSG := 4
	if s == Full {
		nSG = 5
	}
	for _, alphaSG := range []game.Alpha{game.AFrac(3, 2), game.A(3), game.A(8)} {
		res, err := dynamics.AnalyzeStateGraph(ctx, nSG, alphaSG, []dynamics.Kind{
			dynamics.RemoveKind, dynamics.AddKind, dynamics.SwapKind,
		})
		if err != nil {
			r.addCheck("state graph", false, "%v", err)
			return r
		}
		detail := fmt.Sprintf("n=%d α=%s: %d states, %d sinks, acyclic=%v",
			nSG, alphaSG, res.States, res.Sinks, res.Acyclic)
		if res.CycleWitness != nil {
			detail += fmt.Sprintf(" (cycle through %s)", res.CycleWitness)
		}
		r.addLinef("  %s", detail)
		r.addCheck("improving dynamics terminate", res.Acyclic, "%s", detail)
	}
	return r
}
