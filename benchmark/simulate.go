package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dynamics"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/sim"
)

const (
	simN        = 128
	simMaxSteps = 200
	// simBatches is how many distinct batch seeds a run cycles through, so
	// every batch recurs and its report can be compared with its first run.
	simBatches = 16
	// simWarmupSeed seeds the set-up warm-up batch; fixed, so set-up time
	// does not depend on the workload seed.
	simWarmupSeed = 1
)

// simAlphas give add-heavy, churning and removal-heavy trajectories.
var simAlphas = []game.Alpha{game.AFrac(1, 2), game.A(4), game.A(simN)}

// simBench runs one sim.Run batch per op: one ER-init trajectory per α.
type simBench struct {
	seed    int64
	reports map[uint64]string // batch seed → the report of its first run
	steps   map[uint64]int    // batch seed → applied moves, all trajectories
	conv    map[uint64]int    // batch seed → converged trajectories

	// Traced phase.
	deliveries                []time.Time
	opNS, trajNS, incdistNS   int64
	tracedSteps, trajectories int
}

func newSimulateN128(cfg config) (instance, error) {
	b := &simBench{
		seed:    cfg.seed,
		reports: make(map[uint64]string),
		steps:   make(map[uint64]int),
		conv:    make(map[uint64]int),
	}
	if _, err := sim.Run(context.Background(), b.options(simWarmupSeed)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// batchSeed derives the batch seed of op i from the workload seed.
func (b *simBench) batchSeed(i int) uint64 {
	return sim.TrajectorySeed(uint64(b.seed), simBatches, i%simBatches)
}

func (b *simBench) options(seed uint64) sim.Options {
	return sim.Options{
		N:            simN,
		Alphas:       simAlphas,
		Trajectories: 1,
		Inits:        []sim.Init{sim.InitER},
		Scheduler:    dynamics.SchedulerUniform,
		MaxSteps:     simMaxSteps,
		Workers:      1,
		Seed:         seed,
	}
}

func (b *simBench) begin(bool) {}

func (b *simBench) end() error { return nil }

func (b *simBench) close() error { return nil }

func (b *simBench) op(i int, traced bool) (time.Duration, error) {
	seed := b.batchSeed(i)
	opts := b.options(seed)
	b.deliveries = b.deliveries[:0]
	if traced {
		// With one worker, consecutive deliveries bound each trajectory.
		opts.OnTrajectory = func(sim.Trajectory) { b.deliveries = append(b.deliveries, time.Now()) }
	}
	t0 := time.Now()
	res, err := sim.Run(context.Background(), opts)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if !res.Completed || len(res.Items) != len(simAlphas) {
		return d, fmt.Errorf("batch %d: %d of %d trajectories delivered", seed, len(res.Items), len(simAlphas))
	}
	report := res.Report()
	if first, ok := b.reports[seed]; ok {
		if report != first {
			return d, fmt.Errorf("batch %d: report differs from its first run:\n%s\nfirst:\n%s", seed, report, first)
		}
	} else {
		b.reports[seed] = report
		for _, traj := range res.Items {
			b.steps[seed] += traj.Steps
			if traj.Converged {
				b.conv[seed]++
				if err := checkConverged(traj, res.EdgeProb); err != nil {
					return d, fmt.Errorf("batch %d: %w", seed, err)
				}
			}
		}
	}
	if traced {
		b.tally(t0, d, res)
	}
	return d, nil
}

// checkConverged replays a converged trajectory from its seed and checks
// that its final state is pairwise stable.
func checkConverged(traj sim.Trajectory, edgeProb float64) error {
	rng := rand.New(rand.NewSource(int64(traj.Seed)))
	g, err := graph.RandomConnectedGNP(simN, edgeProb, rng)
	if err != nil {
		return err
	}
	gm, err := game.NewGame(simN, simAlphas[traj.AlphaIndex])
	if err != nil {
		return err
	}
	tr, err := dynamics.Run(context.Background(), gm, g, dynamics.Options{
		Kinds:     []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind},
		MaxSteps:  simMaxSteps,
		Rng:       rng,
		Scheduler: dynamics.SchedulerUniform,
	})
	if err != nil {
		return err
	}
	if tr.Steps != traj.Steps || !tr.Converged {
		return fmt.Errorf("trajectory %d: replay took %d steps (converged %t), the batch reported %d", traj.Index, tr.Steps, tr.Converged, traj.Steps)
	}
	if !eq.Check(gm, g, eq.PS).Stable {
		return fmt.Errorf("trajectory %d: converged final state at α=%s is not pairwise stable", traj.Index, traj.Alpha)
	}
	return nil
}

// tally charges one traced op's time to its trajectories, and times the
// IncDist build on each trajectory's initial graph.
func (b *simBench) tally(t0 time.Time, d time.Duration, res *sim.Result) {
	b.opNS += d.Nanoseconds()
	prev := t0
	for _, at := range b.deliveries {
		b.trajNS += at.Sub(prev).Nanoseconds()
		prev = at
	}
	for _, traj := range res.Items {
		rng := rand.New(rand.NewSource(int64(traj.Seed)))
		g, err := graph.RandomConnectedGNP(simN, res.EdgeProb, rng)
		if err != nil {
			continue
		}
		t1 := time.Now()
		_ = graph.NewIncDist(g)
		b.incdistNS += time.Since(t1).Nanoseconds()
		b.tracedSteps += traj.Steps
		b.trajectories++
	}
}

func (b *simBench) layers(ops int) map[string]float64 {
	msPerOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(ops) }
	steps, conv := 0, 0
	for seed := range b.reports {
		steps += b.steps[seed]
		conv += b.conv[seed]
	}
	batches := len(b.reports)
	return map[string]float64{
		"graph.incdist_build_ms":   float64(b.incdistNS) / 1e6 / float64(max(b.trajectories, 1)),
		"dynamics.steps_per_op":    float64(steps) / float64(batches),
		"dynamics.converged_share": float64(conv) / float64(batches*len(simAlphas)),
		"dynamics.step_us":         float64(b.trajNS) / 1e3 / float64(max(b.tracedSteps, 1)),
		"sim.overhead_ms":          msPerOp(b.opNS - b.trajNS),
		"layer.graph_ms":           msPerOp(b.incdistNS),
		"layer.dynamics_ms":        msPerOp(b.trajNS - b.incdistNS),
		"layer.sim_ms":             msPerOp(b.opNS - b.trajNS),
	}
}
