package dynamics

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// testVariants covers every axis the engine special-cases: the default
// game, MAX distances, heterogeneous prices, and unilateral consent.
func testVariants(t *testing.T, n int) []game.Variant {
	t.Helper()
	hetero := game.Variant{Prices: []game.AgentPrice{{Agent: 0, Mul: game.AFrac(3, 2)}, {Agent: n - 1, Mul: game.AFrac(1, 2)}}}
	variants := []game.Variant{
		{},
		{Dist: game.DistMax},
		hetero,
		{Consent: game.ConsentUnilateral},
	}
	for _, v := range variants {
		if err := v.Validate(n); err != nil {
			t.Fatal(err)
		}
	}
	return variants
}

// TestEngineMatchesEvaluator differentially pins the incremental probe
// against eq's full-recompute ImprovingBound on every candidate of random
// states across all variant axes, and checks probes leave no trace. The
// states include disconnected starts (the unreachable branch of the
// closed-form add merge) and n > 64 states whose rows span two bitset
// words.
func TestEngineMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ev := eq.NewEvaluator()
	randomAlpha := func() game.Alpha { return game.AFrac(int64(1+rng.Intn(8)), 2) }
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(4)
		for _, variant := range testVariants(t, n) {
			alpha := randomAlpha()
			g, err := graph.RandomConnectedGraph(n, n+rng.Intn(n), rng)
			if err != nil {
				t.Fatal(err)
			}
			assertProbesMatchEvaluator(t, ev, variantGame(t, n, alpha, variant), g)
		}
	}
	disconnected := 0
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(4)
		g, err := graph.RandomGNP(n, 0.3, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			disconnected++
		}
		for _, variant := range testVariants(t, n) {
			assertProbesMatchEvaluator(t, ev, variantGame(t, n, randomAlpha(), variant), g)
		}
	}
	if disconnected == 0 {
		t.Fatal("no disconnected start drawn")
	}
	const wide = 70
	connected, err := graph.RandomConnectedGraph(wide, 2*wide, rng)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := graph.RandomGNP(wide, 1.5/wide, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Connected() {
		t.Fatal("sparse n=70 start is connected")
	}
	for _, g := range []*graph.Graph{connected, sparse} {
		for _, variant := range testVariants(t, wide) {
			assertProbesMatchEvaluator(t, ev, variantGame(t, wide, randomAlpha(), variant), g)
		}
	}
}

// variantGame builds the n-agent game at alpha under variant.
func variantGame(t testing.TB, n int, alpha game.Alpha, variant game.Variant) game.Game {
	t.Helper()
	gm, err := game.NewGame(n, alpha)
	if err != nil {
		t.Fatal(err)
	}
	gm.Variant = variant
	return gm
}

// assertProbesMatchEvaluator compares the engine's probe and probeMargin
// verdicts with ev.ImprovingBound on every removal, addition and swap
// candidate of g, and checks that probing left g unchanged.
func assertProbesMatchEvaluator(t testing.TB, ev *eq.Evaluator, gm game.Game, g *graph.Graph) {
	t.Helper()
	snapshot := g.Clone()
	opts := Options{Kinds: []Kind{RemoveKind, AddKind, SwapKind}}
	eng := newEngine(gm, g, opts)
	ev.Bind(gm, g)
	for _, m := range collectMoves(g, opts) {
		var c candidate
		switch mv := m.(type) {
		case move.Remove:
			c = candidate{kind: RemoveKind, u: mv.U, v: mv.V}
		case move.Add:
			c = candidate{kind: AddKind, u: mv.U, v: mv.V}
		case move.Swap:
			c = candidate{kind: SwapKind, u: mv.U, v: mv.Old, w: mv.New}
		}
		got := eng.probe(c)
		want := ev.ImprovingBound(m)
		if got != want {
			t.Fatalf("variant %q α=%s: engine says %v, evaluator says %v for %v on %s",
				gm.Variant, gm.Alpha, got, want, m, graph.Encode(g))
		}
		// The breakpoint path must agree with the boolean path.
		if _, ok := eng.probeMargin(c); ok != want {
			t.Fatalf("variant %q α=%s: probeMargin says %v, evaluator says %v for %v",
				gm.Variant, gm.Alpha, ok, want, m)
		}
	}
	if !g.Equal(snapshot) {
		t.Fatalf("probing mutated the graph: %s -> %s", graph.Encode(snapshot), graph.Encode(g))
	}
}

// FuzzEngineProbe differentially pins every engine probe against the
// evaluator: a decoded graph, a small rational α and a variant pick, with
// probe and probeMargin compared to ImprovingBound on every candidate.
func FuzzEngineProbe(f *testing.F) {
	f.Add("n 4\n0 1\n1 2\n2 3\n", uint8(3), uint8(1), uint8(0))
	f.Add("n 5\n0 1\n0 2\n0 3\n0 4\n", uint8(7), uint8(2), uint8(1))
	f.Add("n 6\n0 1\n1 2\n3 4\n", uint8(1), uint8(3), uint8(2))
	f.Add("n 7\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 0\n", uint8(9), uint8(2), uint8(3))
	f.Add("n 3\n", uint8(0), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, input string, num, den, vpick uint8) {
		g, err := graph.Decode(input)
		if err != nil || g.N() < 2 || g.N() > 16 {
			return
		}
		n := g.N()
		variants := []string{"", "max", "unilateral", "unilateral,max", "mul:0=3/2,mul:1=1/2"}
		variant, err := game.ParseVariant(variants[int(vpick)%len(variants)])
		if err != nil {
			t.Fatal(err)
		}
		alpha := game.AFrac(int64(num%48)+1, int64(den%6)+1)
		assertProbesMatchEvaluator(t, eq.NewEvaluator(), variantGame(t, n, alpha, variant), g)
	})
}

// TestSchedulersReachEquilibria: every scheduler's fixed point passes the
// exact stability checker for its move set. Bilateral-consent variants
// only: dynamics moves always require all of move.Actors() to improve
// (exactly like Evaluator.ImprovingBound), while the unilateral PS concept
// scans buyer-only additions — its equilibria are a different fixed-point
// set, pinned instead by TestEngineMatchesEvaluator.
func TestSchedulersReachEquilibria(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sched := range []Scheduler{SchedulerUniform, SchedulerRoundRobin, SchedulerBreakpoint} {
		for trial := 0; trial < 4; trial++ {
			n := 6 + rng.Intn(3)
			for _, variant := range testVariants(t, n) {
				if variant.Consent == game.ConsentUnilateral {
					continue
				}
				gm, err := game.NewGame(n, game.AFrac(int64(1+rng.Intn(8)), 2))
				if err != nil {
					t.Fatal(err)
				}
				gm.Variant = variant
				g, err := graph.RandomConnectedGraph(n, n+rng.Intn(n), rng)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := Run(context.Background(), gm, g, Options{
					Kinds:     []Kind{RemoveKind, AddKind},
					Scheduler: sched,
					Rng:       rng,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !tr.Converged {
					t.Fatalf("scheduler %v variant %q did not converge", sched, variant)
				}
				if r := eq.Check(gm, g, eq.PS); !r.Stable {
					t.Fatalf("scheduler %v variant %q α=%s: fixed point fails PS check: %v",
						sched, variant, gm.Alpha, r.Witness)
				}
			}
		}
	}
}

// TestFullRecomputeOracleAgrees: the incremental engine and the evaluator
// oracle converge from the same starts to states the exact checker accepts,
// with histories of exact-equilibrium length bounds respected.
func TestFullRecomputeOracleAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 6; trial++ {
		n := 6 + rng.Intn(3)
		gm, _ := game.NewGame(n, game.AFrac(int64(1+rng.Intn(8)), 2))
		start, err := graph.RandomConnectedGraph(n, n+rng.Intn(n), rng)
		if err != nil {
			t.Fatal(err)
		}
		kinds := []Kind{RemoveKind, AddKind, SwapKind}
		gInc := start.Clone()
		trInc, err := Run(context.Background(), gm, gInc, Options{Kinds: kinds, Rng: rand.New(rand.NewSource(int64(trial)))})
		if err != nil {
			t.Fatal(err)
		}
		gOrc := start.Clone()
		trOrc, err := runFullRecompute(context.Background(), gm, gOrc, Options{Kinds: kinds, Rng: rand.New(rand.NewSource(int64(trial)))})
		if err != nil {
			t.Fatal(err)
		}
		if !trInc.Converged || !trOrc.Converged {
			t.Fatalf("convergence mismatch: inc=%v oracle=%v", trInc.Converged, trOrc.Converged)
		}
		for name, g := range map[string]*graph.Graph{"incremental": gInc, "oracle": gOrc} {
			if r := eq.CheckBGE(gm, g); !r.Stable {
				t.Fatalf("%s fixed point fails BGE check: %v", name, r.Witness)
			}
		}
	}
}

// countingSource is a math/rand source that counts the values drawn from
// it. rand.Intn takes one value per call, except for a rejection redraw
// with probability below n/2³¹ — none occurs at these pool sizes and
// fixed seeds.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}

// TestScanZeroAllocs pins the allocation fix: a full candidate scan on a
// converged state — the steady-state cost of every convergence check —
// allocates nothing for the uniform and round-robin schedulers. The
// converged uniform scan draws its order lazily: one draw per pair.
func TestScanZeroAllocs(t *testing.T) {
	gm, _ := game.NewGame(16, game.A(2))
	g := game.Star(16)
	src := &countingSource{Source: rand.NewSource(1)}
	rng := rand.New(src)
	for _, sched := range []Scheduler{SchedulerUniform, SchedulerRoundRobin} {
		eng := newEngine(gm, g, Options{Kinds: []Kind{RemoveKind, AddKind, SwapKind}, Scheduler: sched})
		before := src.draws
		if _, ok := eng.find(rng); ok {
			t.Fatal("star is not a fixed point?")
		}
		want := 0
		if sched == SchedulerUniform {
			want = len(eng.pairs)
		}
		if got := src.draws - before; got != want {
			t.Fatalf("scheduler %v: converged scan drew %d values, want %d", sched, got, want)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, ok := eng.find(rng); ok {
				t.Fatal("star is not a fixed point?")
			}
		})
		if allocs != 0 {
			t.Fatalf("scheduler %v: %v allocs per converged scan, want 0", sched, allocs)
		}
	}
}

// TestUniformScanDrawsLazily pins the lazy scan order along a whole run:
// a uniform scan that commits the k-th pair it examines consumes exactly
// k draws, the k-1 pairs it examined first have no improving candidate,
// and the converging scan consumes one draw per pair. Trace.PairsExamined
// reports the same count. A full shuffle per scan fails every check.
func TestUniformScanDrawsLazily(t *testing.T) {
	const n = 12
	gm, _ := game.NewGame(n, game.A(3))
	start, err := graph.RandomConnectedGraph(n, 2*n, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{Source: rand.NewSource(5)}
	rng := rand.New(src)
	eng := newEngine(gm, start.Clone(), Options{Kinds: []Kind{RemoveKind, AddKind}})
	steps, deep := 0, 0
	for {
		before := src.draws
		c, ok := eng.find(rng)
		k := src.draws - before
		if !ok {
			if k != len(eng.pairs) {
				t.Fatalf("converging scan drew %d values, want one per pair (%d)", k, len(eng.pairs))
			}
			break
		}
		if k < 1 || k > len(eng.pairs) {
			t.Fatalf("step %d: scan drew %d values for %d pairs", steps, k, len(eng.pairs))
		}
		for _, pi := range eng.order[:k-1] {
			if _, ok := eng.tryPair(eng.pairs[pi]); ok {
				t.Fatalf("step %d: committed the %d-th pair examined, but pair %v before it improves", steps, k, eng.pairs[pi])
			}
		}
		if got, ok := eng.tryPair(eng.pairs[eng.order[k-1]]); !ok || got != c {
			t.Fatalf("step %d: the %d-th pair examined yields %+v (%v), the scan committed %+v", steps, k, got, ok, c)
		}
		if k > 1 {
			deep++
		}
		eng.commit(c)
		if steps++; steps > 10*n*n {
			t.Fatal("no convergence")
		}
	}
	if steps == 0 || deep == 0 {
		t.Fatalf("%d steps, %d past the first pair: the walk exercises nothing", steps, deep)
	}

	src.draws = 0
	tr, err := Run(context.Background(), gm, start.Clone(), Options{Kinds: []Kind{RemoveKind, AddKind}, Rng: rand.New(src)})
	if err != nil {
		t.Fatal(err)
	}
	if tr.PairsExamined != src.draws || tr.PairsExamined < tr.Steps+len(eng.pairs) {
		t.Fatalf("uniform run: PairsExamined=%d, draws=%d, steps=%d", tr.PairsExamined, src.draws, tr.Steps)
	}
	tr, err = Run(context.Background(), gm, start.Clone(), Options{Kinds: []Kind{RemoveKind, AddKind}, Scheduler: SchedulerBreakpoint})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Converged || tr.PairsExamined != (tr.Steps+1)*len(eng.pairs) {
		t.Fatalf("breakpoint run: PairsExamined=%d after %d steps, want a full scan per step", tr.PairsExamined, tr.Steps)
	}
}

// TestUniformScanIsUniform: on a fixed state with m known improving
// pairs, seeded scans commit each of them equally often, always through
// the pair's first improving candidate. The scans share one persistent
// permutation, as successive steps of a run do. The chi-square statistic
// over m-1 = 8 degrees of freedom must stay under 26.12, its 0.999
// quantile.
func TestUniformScanIsUniform(t *testing.T) {
	const n, scans = 7, 27000
	gm, _ := game.NewGame(n, game.A(2))
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	eng := newEngine(gm, g, Options{Kinds: []Kind{RemoveKind, AddKind}})
	improving := map[graph.Edge]candidate{}
	for _, p := range eng.pairs {
		if c, ok := eng.tryPair(p); ok {
			improving[p] = c
		}
	}
	if len(improving) != 9 {
		t.Fatalf("path P7 at α=2 has %d improving pairs, want 9", len(improving))
	}
	counts := map[graph.Edge]int{}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < scans; i++ {
		c, ok := eng.find(rng)
		p := graph.Edge{U: min(c.u, c.v), V: max(c.u, c.v)}
		if want, found := improving[p]; !ok || !found || c != want {
			t.Fatalf("scan %d committed %+v (ok=%v); the improving pairs are %v", i, c, ok, improving)
		}
		counts[p]++
	}
	expected := float64(scans) / float64(len(improving))
	chi2 := 0.0
	for p := range improving {
		d := float64(counts[p]) - expected
		chi2 += d * d / expected
	}
	if chi2 > 26.12 {
		t.Fatalf("chi-square %.2f over 8 degrees of freedom: committed pairs are not uniform: %v", chi2, counts)
	}
}

// TestHistoryPreallocated: Run does not grow the history one append at a
// time — a short run's history capacity arrives in one allocation.
func TestHistoryPreallocated(t *testing.T) {
	gm, _ := game.NewGame(8, game.A(3))
	rng := rand.New(rand.NewSource(21))
	g, err := graph.RandomConnectedGraph(8, 14, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), gm, g, Options{Kinds: []Kind{RemoveKind, AddKind}, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if cap(tr.History) < 640 { // min(10·n², 1024) for n=8
		t.Fatalf("history capacity %d: not preallocated", cap(tr.History))
	}
}
