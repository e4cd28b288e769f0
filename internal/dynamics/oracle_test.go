package dynamics

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// runFullRecompute is the pre-incremental engine, kept as the differential
// oracle and benchmark baseline for Run: per-scan candidate slice rebuild,
// evaluator re-bind, and a fresh BFS per actor per probe. It always scans
// uniformly (opts.Scheduler is ignored) and leaves Trace.PairsExamined zero,
// since it scans moves rather than pairs.
func runFullRecompute(ctx context.Context, gm game.Game, g *graph.Graph, opts Options) (Trace, error) {
	rng := opts.rng()
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 10 * g.N() * g.N()
	}
	histCap := maxSteps
	if histCap > 1024 {
		histCap = 1024
	}
	tr := Trace{History: make([]move.Move, 0, histCap)}
	ev := eq.NewEvaluator()
	for tr.Steps < maxSteps {
		if err := ctx.Err(); err != nil {
			return tr, err
		}
		m, ok := findImproving(ev, gm, g, rng, opts)
		if !ok {
			tr.Converged = true
			return tr, nil
		}
		if _, err := m.Apply(g); err != nil {
			return tr, fmt.Errorf("dynamics: applying %v: %w", m, err)
		}
		tr.History = append(tr.History, m)
		tr.Steps++
	}
	_, more := findImproving(ev, gm, g, rng, opts)
	tr.Converged = !more
	return tr, nil
}

// findImproving scans the allowed move families in random order and
// returns the first strictly improving move. The baseline costs are
// computed once per scan (the state is fixed; every probe reverts it), not
// once per candidate.
func findImproving(ev *eq.Evaluator, gm game.Game, g *graph.Graph, rng *rand.Rand, opts Options) (move.Move, bool) {
	candidates := collectMoves(g, opts)
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	ev.Bind(gm, g)
	for _, m := range candidates {
		if ev.ImprovingBound(m) {
			return m, true
		}
	}
	return nil, false
}

// The dynamics step benchmarks: the incremental engine against the
// full-recompute oracle on the same fixed starting states. The acceptance
// bar for the engine is ≥5× fewer ns/op than the Full baseline at n=256
// (BENCH_sim.json records the ratio across its entries).

// benchDynamicsStep runs a fixed number of improving moves from a frozen
// random connected start; the per-iteration clone is excluded from the
// timer, so ns/op measures the engine alone.
func benchDynamicsStep(b *testing.B, n int, full bool) {
	rng := rand.New(rand.NewSource(31))
	start, err := graph.RandomConnectedGraph(n, 2*n, rng)
	if err != nil {
		b.Fatal(err)
	}
	gm, err := game.NewGame(n, game.AFrac(3, 1))
	if err != nil {
		b.Fatal(err)
	}
	run := Run
	if full {
		run = runFullRecompute
	}
	opts := Options{Kinds: []Kind{RemoveKind, AddKind}, MaxSteps: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := start.Clone()
		opts.Rng = rand.New(rand.NewSource(int64(i)))
		b.StartTimer()
		if _, err := run(context.Background(), gm, g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicsStepN64(b *testing.B)      { benchDynamicsStep(b, 64, false) }
func BenchmarkDynamicsStepN64Full(b *testing.B)  { benchDynamicsStep(b, 64, true) }
func BenchmarkDynamicsStepN256(b *testing.B)     { benchDynamicsStep(b, 256, false) }
func BenchmarkDynamicsStepN256Full(b *testing.B) { benchDynamicsStep(b, 256, true) }
