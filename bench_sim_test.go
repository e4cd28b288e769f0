package bncg_test

import (
	"context"
	"testing"

	bncg "repro"
)

// The simulate batch benchmark, end to end. The engine-level
// BenchmarkDynamicsStep* benchmarks, which pit the incremental engine
// against the full-recompute oracle (≥5× fewer ns/op at n=256), live in
// internal/dynamics beside that test-only oracle.

// BenchmarkSimulateBatch runs the whole simulate stack — init sampling,
// worker pool, per-trajectory dynamics, topology stats, summaries — as
// one op. MaxSteps bounds each trajectory so the op does a fixed amount
// of dynamics work (the α=2 trajectories converge inside the bound; the
// clique-building α=1/2 ones are cut off) and the gate measures engine
// throughput, not convergence-length variance.
func BenchmarkSimulateBatch(b *testing.B) {
	opts := bncg.SimOptions{
		N:            64,
		Alphas:       []bncg.Alpha{bncg.Alpha2(1, 2), bncg.Alpha2(2, 1), bncg.Alpha2(100, 1)},
		Trajectories: 4,
		MaxSteps:     100,
		Seed:         7,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bncg.Simulate(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed || len(res.Items) != 12 {
			b.Fatalf("batch: completed=%v items=%d", res.Completed, len(res.Items))
		}
	}
}
