package bncg_test

import (
	"context"
	"math/rand"
	"testing"

	bncg "repro"
)

// The v10 dynamics benchmarks: the incremental-distance engine against
// the full-recompute oracle on the same fixed starting states, and the
// simulate batch end to end. The acceptance bar for the engine is ≥5×
// fewer ns/op than the Full baseline at n=256 (BENCH_sim.json records
// 8.5–21.9× across its entries).

// benchDynamicsStep runs a fixed number of improving moves from a frozen
// random connected start; the per-iteration clone is excluded from the
// timer, so ns/op measures the engine alone.
func benchDynamicsStep(b *testing.B, n int, full bool) {
	rng := rand.New(rand.NewSource(31))
	start, err := bncg.RandomConnectedGraph(n, 2*n, rng)
	if err != nil {
		b.Fatal(err)
	}
	gm, err := bncg.NewGame(n, bncg.Alpha2(3, 1))
	if err != nil {
		b.Fatal(err)
	}
	opts := bncg.DynamicsOptions{
		Kinds:         []bncg.DynamicsKind{bncg.RemoveKind, bncg.AddKind},
		MaxSteps:      8,
		FullRecompute: full,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := start.Clone()
		opts.Rng = rand.New(rand.NewSource(int64(i)))
		b.StartTimer()
		if _, err := bncg.RunDynamics(context.Background(), gm, g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicsStepN64(b *testing.B)      { benchDynamicsStep(b, 64, false) }
func BenchmarkDynamicsStepN64Full(b *testing.B)  { benchDynamicsStep(b, 64, true) }
func BenchmarkDynamicsStepN256(b *testing.B)     { benchDynamicsStep(b, 256, false) }
func BenchmarkDynamicsStepN256Full(b *testing.B) { benchDynamicsStep(b, 256, true) }

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
