package bncg_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	bncg "repro"
)

// TestExperimentsQuick runs every registered experiment at Quick scale
// under plain `go test`, so the experiment registry and all report shape
// checks are exercised by tier-1 runs — the benchmarks below only cover
// them under -bench.
func TestExperimentsQuick(t *testing.T) {
	ids := bncg.ExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := bncg.Experiment(context.Background(), id, bncg.Quick)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.FailedChecks() {
				t.Errorf("check %q failed: %s", c.Name, c.Detail)
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
		rep, err := bncg.Experiment(context.Background(), id, bncg.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.AllPass() {
			b.Fatalf("experiment %s failed checks: %v", id, rep.FailedChecks())
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
	gm, err := bncg.NewGame(64, bncg.AlphaInt(3))
	if err != nil {
		b.Fatal(err)
	}
	g := bncg.Star(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !bncg.Check(gm, g, bncg.PS).Stable {
			b.Fatal("star unstable")
		}
	}
}

func BenchmarkCheckBNE_Path10(b *testing.B) {
	gm, err := bncg.NewGame(10, bncg.AlphaInt(7))
	if err != nil {
		b.Fatal(err)
	}
	g := bncg.Path(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bncg.Check(gm, g, bncg.BNE)
	}
}

func BenchmarkCheckBSE_Cycle6(b *testing.B) {
	gm, err := bncg.NewGame(6, bncg.AlphaInt(5))
	if err != nil {
		b.Fatal(err)
	}
	g := bncg.Cycle(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !bncg.Check(gm, g, bncg.BSE).Stable {
			b.Fatal("C6 at α=5 should be in BSE")
		}
	}
}

func BenchmarkTreeRho_100k(b *testing.B) {
	n := 100_000
	gm, err := bncg.NewGame(n, bncg.AlphaInt(int64(n)))
	if err != nil {
		b.Fatal(err)
	}
	g := bncg.AlmostCompleteDAry(n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bncg.TreeRho(gm, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorstTreePS_n9 shares one verdict cache across iterations, so
// every iteration after the first is served from memory.
func BenchmarkWorstTreePS_n9(b *testing.B) {
	cache := bncg.NewSweepCache()
	for i := 0; i < b.N; i++ {
		if _, err := bncg.WorstTree(context.Background(), 9, bncg.AlphaInt(9), bncg.PS, cache); err != nil {
			b.Fatal(err)
		}
	}
}

// Sweep engine benchmarks: the Full-scale n=6 lattice sweep (112 connected
// graph classes × 6 α × all nine concepts) at one worker vs all CPUs, plus
// the warm-cache path. On a multi-core machine the NumCPU variant should
// run ≥ 2× faster than the single worker; the differential tests in
// repro/internal/sweep prove the vectors are identical either way.

func sweepLatticeOptions(workers int, cache *bncg.SweepCache) bncg.SweepOptions {
	return bncg.SweepOptions{
		N: 6,
		Alphas: []bncg.Alpha{
			bncg.Alpha2(1, 2), bncg.AlphaInt(1), bncg.Alpha2(3, 2),
			bncg.AlphaInt(2), bncg.AlphaInt(3), bncg.AlphaInt(5),
		},
		Concepts: bncg.Concepts(),
		Workers:  workers,
		Cache:    cache,
	}
}

func benchSweepLattice(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		// A fresh cache per iteration keeps every iteration a full
		// computation rather than a cache replay.
		res, err := bncg.RunSweep(context.Background(), sweepLatticeOptions(workers, bncg.NewSweepCache()))
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
	gm, err := bncg.NewGame(8, bncg.AlphaInt(5))
	if err != nil {
		b.Fatal(err)
	}
	g := bncg.Cycle(8)
	concepts := []bncg.Concept{bncg.RE, bncg.BAE, bncg.PS, bncg.BSwE, bncg.BGE, bncg.BNE, bncg.TwoBSE}
	ev := bncg.NewEvaluator()
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

// BenchmarkStoreWarmStart measures the cross-run replay path the verdict
// store adds: opening a store holding a Full-scale lattice sweep's worth
// of verdicts (112 graph classes × 6 α × 9 concepts = 6048 records) and
// warm-starting a fresh cache from it — the cost a process pays before
// its first sweep is served from disk instead of recomputed.
func BenchmarkStoreWarmStart(b *testing.B) {
	dir := b.TempDir()
	st, err := bncg.OpenStore(dir, bncg.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rec := func(i int) bncg.StoreRecord {
		return bncg.StoreRecord{
			// Canonical keys of n=6 graphs are 15 bytes over {0x00, 0x01}.
			Canon:   string([]byte{0, 1, 0, 1, 0, 1, 0, byte(i), byte(i >> 8), 1, 0, 1, 0, 1, 0}),
			Num:     int64(i%6 + 1),
			Den:     int64(i%2 + 1),
			Concept: uint8(i%9 + 1),
			Stable:  i%3 == 0,
		}
	}
	const records = 112 * 6 * 9
	for i := 0; i < records; i++ {
		if err := st.Put(rec(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := bncg.OpenStore(dir, bncg.StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cache := bncg.NewSweepCache()
		if loaded := cache.WarmStart(st); loaded == 0 {
			b.Fatal("warm start loaded nothing")
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepLatticeN6_WarmCache(b *testing.B) {
	cache := bncg.NewSweepCache()
	if _, err := bncg.RunSweep(context.Background(), sweepLatticeOptions(runtime.NumCPU(), cache)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bncg.RunSweep(context.Background(), sweepLatticeOptions(runtime.NumCPU(), cache))
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
	alphas := make([]bncg.Alpha, points)
	for k := 1; k <= points; k++ {
		alphas[k-1] = bncg.Alpha2(int64(k), 2)
	}
	for i := 0; i < b.N; i++ {
		res, err := bncg.RunSweep(context.Background(), bncg.SweepOptions{
			N:        5,
			Alphas:   alphas,
			Concepts: bncg.Concepts(),
			Cache:    bncg.NewSweepCache(),
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
