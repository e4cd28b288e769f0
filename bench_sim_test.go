package bncg_test

import (
	"context"
	"testing"

	"repro/internal/game"
	"repro/internal/sim"
)

// The simulate batch benchmark, end to end. The engine-level
// BenchmarkDynamicsStep* benchmarks, which pit the incremental engine
// against the full-recompute oracle (≥5× fewer ns/op at n=256), and the
// per-layer probe and repair benchmarks (BenchmarkEngineProbe*N128,
// BenchmarkIncDistRemoveEdgeN128) live in internal/dynamics beside that
// test-only oracle.

// BenchmarkSimulateBatch runs the whole simulate stack — init sampling,
// worker pool, per-trajectory dynamics, topology stats, summaries — as
// one op. MaxSteps bounds each trajectory so the op does a fixed amount
// of dynamics work. At seed 7, ten of the twelve trajectories are cut off
// at 100 moves, at every α. The other two are the star starts at α=2 and
// α=100, which are already fixed points and converge at step 0. So the
// op measures 1000 committed moves with their scans plus two full
// converging scans: engine throughput, not convergence-length variance.
func BenchmarkSimulateBatch(b *testing.B) {
	opts := sim.Options{
		N:            64,
		Alphas:       []game.Alpha{game.AFrac(1, 2), game.AFrac(2, 1), game.AFrac(100, 1)},
		Trajectories: 4,
		MaxSteps:     100,
		Seed:         7,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed || len(res.Items) != 12 {
			b.Fatalf("batch: completed=%v items=%d", res.Completed, len(res.Items))
		}
	}
}
