package dynamics

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
)

// Layer benchmarks for one simulate-n128 step at α=128, the trajectory
// that dominates that workload: the two probe kinds a uniform scan pays
// for, and the commit-side kernel repairs of the removal or purchase it
// then plays. All four start from the same fixed mid-trajectory state.

// midTrajectoryN128 returns a game at α=128 and the state a uniform
// {Remove, Add} walk reaches after 64 moves from a seeded n=128 ER start
// at the simulate default edge probability 4/n.
func midTrajectoryN128(b testing.TB) (game.Game, *graph.Graph) {
	b.Helper()
	const n = 128
	rng := rand.New(rand.NewSource(128))
	g, err := graph.RandomConnectedGNP(n, 4.0/n, rng)
	if err != nil {
		b.Fatal(err)
	}
	gm, err := game.NewGame(n, game.A(n))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := Run(context.Background(), gm, g, Options{Kinds: []Kind{RemoveKind, AddKind}, MaxSteps: 64, Rng: rng})
	if err != nil {
		b.Fatal(err)
	}
	if tr.Steps != 64 {
		b.Fatalf("walk converged after %d moves", tr.Steps)
	}
	return gm, g
}

// benchProbes times engine.probe over every candidate of one kind in the
// mid-trajectory state, round robin.
func benchProbes(b *testing.B, kind Kind) {
	gm, g := midTrajectoryN128(b)
	eng := newEngine(gm, g, Options{Kinds: []Kind{kind}})
	var cands []candidate
	for _, p := range eng.pairs {
		switch {
		case kind == RemoveKind && g.HasEdge(p.U, p.V):
			cands = append(cands, candidate{kind: RemoveKind, u: p.U, v: p.V}, candidate{kind: RemoveKind, u: p.V, v: p.U})
		case kind == AddKind && !g.HasEdge(p.U, p.V):
			cands = append(cands, candidate{kind: AddKind, u: p.U, v: p.V})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.probe(cands[i%len(cands)])
	}
}

func BenchmarkEngineProbeAddN128(b *testing.B)    { benchProbes(b, AddKind) }
func BenchmarkEngineProbeRemoveN128(b *testing.B) { benchProbes(b, RemoveKind) }

// improvingN128 returns the candidates of one kind that improve in the
// mid-trajectory state at price alpha, one direction per pair, and the
// engine on that state.
func improvingN128(b *testing.B, kind Kind, alpha game.Alpha) (*engine, []candidate) {
	_, g := midTrajectoryN128(b)
	gm, err := game.NewGame(g.N(), alpha)
	if err != nil {
		b.Fatal(err)
	}
	eng := newEngine(gm, g, Options{Kinds: []Kind{kind}})
	var improving []candidate
	for _, p := range eng.pairs {
		if (kind == RemoveKind) != g.HasEdge(p.U, p.V) {
			continue
		}
		for _, c := range []candidate{{kind: kind, u: p.U, v: p.V}, {kind: kind, u: p.V, v: p.U}} {
			if eng.probe(c) {
				improving = append(improving, c)
				break
			}
		}
	}
	if len(improving) == 0 {
		b.Fatalf("no improving candidate of kind %d at α=%s in the mid-trajectory state", kind, alpha)
	}
	return eng, improving
}

// BenchmarkIncDistRemoveEdgeN128 times the commit-side repair of one
// improving removal — IncDist.RemoveEdge — cycling through the improving
// removals of the mid-trajectory state. Re-adding the edge is excluded
// from the timer.
func BenchmarkIncDistRemoveEdgeN128(b *testing.B) {
	eng, improving := improvingN128(b, RemoveKind, game.A(128))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := improving[i%len(improving)]
		eng.inc.RemoveEdge(c.u, c.v)
		b.StopTimer()
		eng.inc.AddEdge(c.u, c.v)
		b.StartTimer()
	}
}

// BenchmarkIncDistAddEdgeN128 is its counterpart for the commit-side
// repair of one improving purchase — IncDist.AddEdge — cycling through
// the adds of the same state that improve at α=4, the workload's
// churning price (none improves at α=128). Removing the edge again is
// excluded from the timer.
func BenchmarkIncDistAddEdgeN128(b *testing.B) {
	eng, improving := improvingN128(b, AddKind, game.A(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := improving[i%len(improving)]
		eng.inc.AddEdge(c.u, c.v)
		b.StopTimer()
		eng.inc.RemoveEdge(c.u, c.v)
		b.StartTimer()
	}
}
