package dynamics

import (
	"context"
	"fmt"
	"math"
	"math/big"
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

// recomputeCosts is the full-recompute pricing of move m on g: each
// actor's cost before, by a fresh BFS of g, and after, by a fresh BFS of a
// clone with m applied.
func recomputeCosts(t testing.TB, gm game.Game, g *graph.Graph, m move.Move) (actors []int, before, after []game.Cost) {
	t.Helper()
	moved := g.Clone()
	if _, err := m.Apply(moved); err != nil {
		t.Fatalf("applying %v: %v", m, err)
	}
	actors = m.Actors()
	for _, a := range actors {
		before = append(before, gm.AgentCost(g, a))
		after = append(after, gm.AgentCost(moved, a))
	}
	return actors, before, after
}

// candidateOf unboxes a move into the engine's candidate form.
func candidateOf(m move.Move) candidate {
	switch mv := m.(type) {
	case move.Remove:
		return candidate{kind: RemoveKind, u: mv.U, v: mv.V}
	case move.Add:
		return candidate{kind: AddKind, u: mv.U, v: mv.V}
	default:
		sw := mv.(move.Swap)
		return candidate{kind: SwapKind, u: sw.U, v: sw.Old, w: sw.New}
	}
}

// TestProbesMatchFullRecompute pins the engine's probe pricing to full
// recomputation on every removal, addition and swap candidate of random
// states, connected and disconnected, at n <= 64 and n = 70 (two bitset
// words), under every variant axis. Per candidate: the actors' current
// costs (kernel aggregates), their post-move costs (addCost's widened
// merge for adds, the aggregate-only BFS on the toggled graph for
// removals and swaps), probe's verdict and probeMargin's margin must all
// equal what recomputeCosts yields. The probes must leave the graph and
// every kernel row as they found them. ER-started simulate batches never
// price a purchase that joins two components; this test does.
func TestProbesMatchFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var states []*graph.Graph
	for trial := 0; trial < 6; trial++ {
		n := 5 + rng.Intn(5)
		g, err := graph.RandomConnectedGraph(n, n+rng.Intn(n), rng)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, g)
		if g, err = graph.RandomGNP(n, 0.3, rng); err != nil {
			t.Fatal(err)
		}
		states = append(states, g)
	}
	for _, m := range []int{100, 50} {
		g, err := graph.RandomGraph(70, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, g)
	}
	disconnected := 0
	for _, g := range states {
		if !g.Connected() {
			disconnected++
		}
		variants := testVariants(t, g.N())
		if g.N() > 64 {
			variants = variants[:3] // default, MAX and price multipliers
		}
		for _, variant := range variants {
			gm := variantGame(t, g.N(), game.AFrac(int64(1+rng.Intn(12)), 2), variant)
			assertProbesMatchRecompute(t, gm, g)
		}
	}
	if disconnected < 3 {
		t.Fatalf("only %d disconnected states drawn", disconnected)
	}
}

// assertProbesMatchRecompute checks every candidate of g, see
// TestProbesMatchFullRecompute.
func assertProbesMatchRecompute(t *testing.T, gm game.Game, g *graph.Graph) {
	t.Helper()
	opts := Options{Kinds: []Kind{RemoveKind, AddKind, SwapKind}}
	eng := newEngine(gm, g, opts)
	snapshot := g.Clone()
	rows := func() []int32 {
		var out []int32
		for s := 0; s < g.N(); s++ {
			out = append(out, eng.inc.Row(s)...)
		}
		return out
	}
	kernel := rows()
	for _, m := range collectMoves(g, opts) {
		actors, before, after := recomputeCosts(t, gm, g, m)
		c := candidateOf(m)
		got := make([]game.Cost, len(actors))
		if c.kind == AddKind {
			got[0], got[1] = eng.addCost(c.u, c.v), eng.addCost(c.v, c.u)
		} else {
			eng.toggle(c)
			for i, a := range actors {
				got[i] = eng.bfsCost(a)
			}
			eng.untoggle(c)
		}
		want, wantMargin := true, math.Inf(1)
		for i, a := range actors {
			if b := eng.cost(a); b != before[i] {
				t.Fatalf("%s α=%s %v on %s: actor %d costs %v on the kernel, %v recomputed",
					gm.Variant, gm.Alpha, m, graph.Encode(g), a, b, before[i])
			}
			if got[i] != after[i] {
				t.Fatalf("%s α=%s %v on %s: actor %d priced at %v, %v recomputed",
					gm.Variant, gm.Alpha, m, graph.Encode(g), a, got[i], after[i])
			}
			want = want && lessAtPrice(after[i], before[i], gm, a)
			if margin, ok := eng.actorMargin(a, before[i], after[i]); want && ok && margin < wantMargin {
				wantMargin = margin
			}
		}
		if ok := eng.probe(c); ok != want {
			t.Fatalf("%s α=%s %v on %s: probe says %v, recomputed costs say %v",
				gm.Variant, gm.Alpha, m, graph.Encode(g), ok, want)
		}
		margin, ok := eng.probeMargin(c)
		if ok != want || (want && margin != wantMargin) {
			t.Fatalf("%s α=%s %v on %s: probeMargin = (%v, %v), recomputed (%v, %v)",
				gm.Variant, gm.Alpha, m, graph.Encode(g), margin, ok, wantMargin, want)
		}
	}
	if !g.Equal(snapshot) {
		t.Fatalf("probing mutated the graph: %s -> %s", graph.Encode(snapshot), graph.Encode(g))
	}
	for i, d := range rows() {
		if d != kernel[i] {
			t.Fatalf("probing changed kernel entry (%d,%d): %d -> %d", i/g.N(), i%g.N(), kernel[i], d)
		}
	}
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

// lessAtPrice is the oracle's cost order: c is strictly cheaper than d
// for agent a at her effective price α·p/q, compared in math/big.
func lessAtPrice(c, d game.Cost, gm game.Game, a int) bool {
	if c.Unreachable != d.Unreachable {
		return c.Unreachable < d.Unreachable
	}
	p, q := gm.Variant.MulFor(a)
	price := new(big.Rat).Mul(big.NewRat(gm.Alpha.Num(), gm.Alpha.Den()), big.NewRat(p, q))
	value := func(x game.Cost) *big.Rat {
		v := new(big.Rat).Mul(price, new(big.Rat).SetInt64(x.Buy))
		return v.Add(v, new(big.Rat).SetInt64(x.Dist))
	}
	return value(c).Cmp(value(d)) < 0
}
