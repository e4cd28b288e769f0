package bncg_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/experiments"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/sweep"
)

// TestExperimentsQuick runs every registered experiment at Quick scale
// under plain `go test`, so the experiment registry and all report shape
// checks are exercised by tier-1 runs — the benchmarks below only cover
// them under -bench.
func TestExperimentsQuick(t *testing.T) {
	ids := experiments.IDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := experiments.Run(context.Background(), id, experiments.Quick)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.AllPass() {
				t.Errorf("failed checks:\n%s", rep)
			}
		})
	}
}

// One benchmark per table row and figure of the paper (DESIGN.md §4).
// Each runs the corresponding experiment harness end to end; the first
// iteration logs the produced report so `go test -bench . -v` regenerates
// the paper's tables. A failing shape check fails the benchmark.

var reportOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(context.Background(), id, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.AllPass() {
			b.Fatalf("experiment %s failed checks:\n%s", id, rep)
		}
		if _, logged := reportOnce.LoadOrStore(id, true); !logged {
			b.Logf("\n%s", rep)
		}
	}
}

// Table 1.

func BenchmarkTable1_PS(b *testing.B)   { benchExperiment(b, "T1-PS") }
func BenchmarkTable1_BSwE(b *testing.B) { benchExperiment(b, "T1-BSwE") }
func BenchmarkTable1_BGE(b *testing.B)  { benchExperiment(b, "T1-BGE") }
func BenchmarkTable1_BNE(b *testing.B)  { benchExperiment(b, "T1-BNE") }
func BenchmarkTable1_3BSE(b *testing.B) { benchExperiment(b, "T1-3BSE") }
func BenchmarkTable1_BSE(b *testing.B)  { benchExperiment(b, "T1-BSE") }

// Figures.

func BenchmarkFigure1a_Lattice(b *testing.B)    { benchExperiment(b, "F1a") }
func BenchmarkFigure1b_Venn(b *testing.B)       { benchExperiment(b, "F1b") }
func BenchmarkFigure2_CorboParkes(b *testing.B) { benchExperiment(b, "F2") }
func BenchmarkFigure3_Stretched(b *testing.B)   { benchExperiment(b, "F3") }
func BenchmarkFigure4_Coalition(b *testing.B)   { benchExperiment(b, "F4") }
func BenchmarkFigure5_BNEGap(b *testing.B)      { benchExperiment(b, "F5") }
func BenchmarkFigure6_2BSEGap(b *testing.B)     { benchExperiment(b, "F6") }
func BenchmarkFigure7_kBSEGap(b *testing.B)     { benchExperiment(b, "F7") }
func BenchmarkFigure8_AddGap(b *testing.B)      { benchExperiment(b, "F8") }

// Propositions, lemmas and supporting experiments.

func BenchmarkLemma24_Cycles(b *testing.B)       { benchExperiment(b, "L2.4") }
func BenchmarkProp316_LowAlpha(b *testing.B)     { benchExperiment(b, "P3.16") }
func BenchmarkProp322_NoFlat(b *testing.B)       { benchExperiment(b, "P3.22") }
func BenchmarkDynamics_Convergence(b *testing.B) { benchExperiment(b, "DYN") }

// Extensions: the open question on general graphs (Section 4), the
// unilateral-baseline comparison motivating the paper, and the Appendix B
// structural bounds.

func BenchmarkOpenQuestion_General(b *testing.B) { benchExperiment(b, "OQ-GENERAL") }
func BenchmarkBaseline_NCGCompare(b *testing.B)  { benchExperiment(b, "NCG-COMPARE") }
func BenchmarkAppendixB_Bounds(b *testing.B)     { benchExperiment(b, "APP-B") }

// Micro-benchmarks for the primitives the harness leans on.

func BenchmarkCheckPS_Star64(b *testing.B) {
	gm, err := game.NewGame(64, game.A(3))
	if err != nil {
		b.Fatal(err)
	}
	g := game.Star(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eq.Check(gm, g, eq.PS).Stable {
			b.Fatal("star unstable")
		}
	}
}

func BenchmarkCheckBNE_Path10(b *testing.B) {
	gm, err := game.NewGame(10, game.A(7))
	if err != nil {
		b.Fatal(err)
	}
	g := construct.Path(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eq.Check(gm, g, eq.BNE)
	}
}

func BenchmarkCheckBSE_Cycle6(b *testing.B) {
	gm, err := game.NewGame(6, game.A(5))
	if err != nil {
		b.Fatal(err)
	}
	g := construct.Cycle(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eq.Check(gm, g, eq.BSE).Stable {
			b.Fatal("C6 at α=5 should be in BSE")
		}
	}
}

// BenchmarkCertify measures the per-concept deviation scans on the
// whole-axis target: one CertifyBound of C6 per concept, on a bound
// evaluator whose scratch is warm — the layer under every sweep and
// /v1/critical certificate.
func BenchmarkCertify(b *testing.B) {
	gm, err := game.NewGame(6, game.A(1))
	if err != nil {
		b.Fatal(err)
	}
	g := construct.Cycle(6)
	ev := eq.NewEvaluator()
	ev.Bind(gm, g)
	for _, c := range eq.Concepts() {
		b.Run(c.String(), func(b *testing.B) {
			ev.CertifyBound(c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.CertifyBound(c)
			}
		})
	}
}

// BenchmarkCertifyFillMix certifies, on one warm evaluator, what the
// serve-check benchmark's set-up fills its store with: every connected
// n=5 class under all nine concepts and every connected n=6 class under
// RE through 2-BSE. It does no store I/O, so it is the scan-layer share
// of that set-up.
func BenchmarkCertifyFillMix(b *testing.B) {
	type part struct {
		gm       game.Game
		classes  []*graph.Graph
		concepts []eq.Concept
	}
	var parts []part
	for _, n := range []int{5, 6} {
		p := part{gm: game.Game{N: n, Alpha: game.A(1)}, concepts: eq.Concepts()}
		if n == 6 {
			p.concepts = p.concepts[:7]
		}
		for g := range graph.AllClasses(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			p.classes = append(p.classes, g)
		}
		parts = append(parts, p)
	}
	ev := eq.NewEvaluator()
	fill := func() {
		for _, p := range parts {
			for _, g := range p.classes {
				ev.Bind(p.gm, g)
				for _, c := range p.concepts {
					ev.CertifyBound(c)
				}
			}
		}
	}
	fill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
	}
}

// BenchmarkMissMixN8 prices a /v1/check miss both ways a daemon could
// answer it: Check at the requested price, or Certify for every price.
// The pool is the serve-check benchmark's miss mix — random connected
// G(8, p) graphs, p in [0.25, 0.6), at random rational prices — and each
// op takes the next graph of the pool, binding the evaluator anew, as a
// miss does. Certify/Check per concept is the cost certify-on-miss would
// add.
func BenchmarkMissMixN8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pool := make([]*graph.Graph, 256)
	games := make([]game.Game, len(pool))
	for i := range pool {
		g, err := graph.RandomConnectedGNP(8, 0.25+0.35*rng.Float64(), rng)
		if err != nil {
			b.Fatal(err)
		}
		pool[i] = g
		games[i] = game.Game{N: 8, Alpha: game.AFrac((1+rng.Int63n(4000))*1024+rng.Int63n(1024), (1+rng.Int63n(32))*1024)}
	}
	ev := eq.NewEvaluator()
	for _, c := range eq.Concepts()[:6] {
		b.Run(c.String()+"/Check", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev.Check(games[i%len(pool)], pool[i%len(pool)], c)
			}
		})
		b.Run(c.String()+"/Certify", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev.Certify(games[i%len(pool)], pool[i%len(pool)], c)
			}
		})
	}
}

func BenchmarkTreeRho_100k(b *testing.B) {
	n := 100_000
	gm, err := game.NewGame(n, game.A(int64(n)))
	if err != nil {
		b.Fatal(err)
	}
	g := construct.AlmostCompleteDAry(n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TreeRho(gm, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorstTreePS_n9 shares one verdict cache across iterations, so
// every iteration after the first is served from memory.
func BenchmarkWorstTreePS_n9(b *testing.B) {
	cache := sweep.NewCache()
	for i := 0; i < b.N; i++ {
		if _, err := core.WorstTree(context.Background(), 9, game.A(9), eq.PS, cache); err != nil {
			b.Fatal(err)
		}
	}
}

// Sweep engine benchmarks: the Full-scale n=6 lattice sweep (112 connected
// graph classes × 6 α × all nine concepts) at one worker vs all CPUs, plus
// the warm-cache path. On a multi-core machine the NumCPU variant should
// run ≥ 2× faster than the single worker; the differential tests in
// repro/internal/sweep prove the vectors are identical either way.

func sweepLatticeOptions(workers int, cache *sweep.Cache) sweep.Options {
	return sweep.Options{
		N: 6,
		Alphas: []game.Alpha{
			game.AFrac(1, 2), game.A(1), game.AFrac(3, 2),
			game.A(2), game.A(3), game.A(5),
		},
		Concepts: eq.Concepts(),
		Workers:  workers,
		Cache:    cache,
	}
}

func benchSweepLattice(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		// A fresh cache per iteration keeps every iteration a full
		// computation rather than a cache replay.
		res, err := sweep.Run(context.Background(), sweepLatticeOptions(workers, sweep.NewCache()))
		if err != nil {
			b.Fatal(err)
		}
		if res.Graphs != 112 {
			b.Fatalf("enumerated %d graph classes, want 112", res.Graphs)
		}
	}
}

// BenchmarkSweepEvaluatorN8 measures one bound stability scan of the seven
// sweep-feasible concepts over C8 at α=5 — the zero-allocation bitset
// evaluator hot path. allocs/op must stay 0; the allocation-regression
// tests in repro/internal/eq and the CI benchmark gate both guard it.
func BenchmarkSweepEvaluatorN8(b *testing.B) {
	gm, err := game.NewGame(8, game.A(5))
	if err != nil {
		b.Fatal(err)
	}
	g := construct.Cycle(8)
	concepts := []eq.Concept{eq.RE, eq.BAE, eq.PS, eq.BSwE, eq.BGE, eq.BNE, eq.TwoBSE}
	ev := eq.NewEvaluator()
	// Warm every scratch buffer with one full scan, so allocs/op is 0 even
	// at -benchtime 1x.
	ev.Bind(gm, g)
	for _, c := range concepts {
		ev.CheckBound(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Bind(gm, g)
		for _, c := range concepts {
			if !ev.CheckBound(c).Stable {
				b.Fatal("C8 at α=5 should be stable for every checked concept")
			}
		}
	}
}

func BenchmarkSweepLatticeN6_Workers1(b *testing.B) { benchSweepLattice(b, 1) }

func BenchmarkSweepLatticeN6_WorkersNumCPU(b *testing.B) { benchSweepLattice(b, runtime.NumCPU()) }

// latticeCache returns a cache holding the n=6 lattice sweep's
// certificates (112 graph classes × 9 concepts), computed once per process
// and shared by the benchmarks that replay it, which only read it.
var latticeCache = sync.OnceValues(func() (*sweep.Cache, error) {
	cache := sweep.NewCache()
	_, err := sweep.Run(context.Background(), sweepLatticeOptions(runtime.NumCPU(), cache))
	return cache, err
})

// BenchmarkStoreWarmStart measures the cross-run replay path the
// certificate store adds: opening a store holding the n=6 lattice sweep's
// certificates (112 graph classes × 9 concepts = 1008 records) and
// warm-starting a fresh cache from it — the cost a process pays before
// its first sweep is served from disk instead of recomputed.
func BenchmarkStoreWarmStart(b *testing.B) {
	lattice, err := latticeCache()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	fill := sweep.NewCache()
	fill.Persist(st)
	lattice.RangeCerts(func(k store.CertKey, set eq.AlphaSet) bool {
		fill.PutCert(k, set)
		return true
	})
	fill.Persist(nil)
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	const records = 112 * 9
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cache := sweep.NewCache()
		if loaded := cache.WarmStart(st); loaded != records {
			b.Fatalf("warm start loaded %d certificates, want %d", loaded, records)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepLatticeN6_WarmCache(b *testing.B) {
	cache, err := latticeCache()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(context.Background(), sweepLatticeOptions(runtime.NumCPU(), cache))
		if err != nil {
			b.Fatal(err)
		}
		if res.Misses != 0 {
			b.Fatalf("warm sweep recomputed %d verdicts", res.Misses)
		}
	}
}

// BenchmarkSweepGridScaling pins the O(1)-per-α claim of the certificate
// engine: the same n=5 classes swept cold (fresh cache) at 4, 16 and 64
// grid points must cost essentially the same, because per-class
// equilibrium work is one certificate per concept regardless of how many
// prices the grid reads off it. The CI benchmark-regression gate watches
// all three; G=64 staying within 2× of G=4 is the acceptance bar.

func benchSweepGrid(b *testing.B, points int) {
	b.Helper()
	alphas := make([]game.Alpha, points)
	for k := 1; k <= points; k++ {
		alphas[k-1] = game.AFrac(int64(k), 2)
	}
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(context.Background(), sweep.Options{
			N:        5,
			Alphas:   alphas,
			Concepts: eq.Concepts(),
			Cache:    sweep.NewCache(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Graphs != 21 {
			b.Fatalf("enumerated %d graph classes, want 21", res.Graphs)
		}
		if want := int64(21 * len(res.Concepts)); res.Certified != want {
			b.Fatalf("certified %d, want one per (class, concept) = %d", res.Certified, want)
		}
	}
}

func BenchmarkSweepGridScaling_G4(b *testing.B)  { benchSweepGrid(b, 4) }
func BenchmarkSweepGridScaling_G16(b *testing.B) { benchSweepGrid(b, 16) }
func BenchmarkSweepGridScaling_G64(b *testing.B) { benchSweepGrid(b, 64) }
