package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/sim"
)

// runSimulate is the large-n stochastic workload: batches of
// improving-response trajectories on the incremental-distance dynamics
// engine, sampled across an α grid from random initial states. Where
// sweep enumerates every class exhaustively, simulate samples — the same
// per-trajectory determinism (seed → byte-identical report) at n = 50–500.
func runSimulate(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var cf commonFlags
	n := fs.Int("n", 100, fmt.Sprintf("node count, 2..%d", sim.MaxN))
	alphasStr := fs.String("alphas", "1/2,2,10,100", "comma-separated α grid")
	trajectories := fs.Int("trajectories", 50, "trajectories per α")
	initStr := fs.String("init", "all", "initial-state family: er, tree, star, or all (cycled)")
	movesStr := fs.String("moves", "ps", `move set: "ps" (remove+add) or "bge" (remove+add+swap)`)
	schedStr := fs.String("scheduler", "uniform", "move scheduler: uniform, roundrobin, or breakpoint-guided")
	maxSteps := fs.Int("max-steps", 0, "step bound per trajectory (0 = 10·n²)")
	seed := fs.Uint64("seed", 0, "base seed for the deterministic per-trajectory derivation (0 = default)")
	edgeProb := fs.Float64("p", 0, "Erdős–Rényi edge probability for -init er (0 = min(1, 4/n))")
	cf.addWorkers(fs, "trajectory worker pool size (0 = all CPUs)")
	cf.addVariant(fs)
	asJSON := fs.Bool("json", false, "emit the full result (every trajectory + summaries) as JSON")
	progress := fs.Bool("progress", false, "report trajectory completion on stderr")
	cf.addTrace(fs, "append NDJSON spans for this batch to <file> (read back with `bncg trace`)")
	cf.addSidecar(fs, "simulate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	alphas, err := game.ParseAlphas(*alphasStr)
	if err != nil {
		return err
	}
	inits, err := sim.ParseInits(*initStr)
	if err != nil {
		return err
	}
	kinds, err := dynamics.ParseMoves(*movesStr)
	if err != nil {
		return err
	}
	sched, ok := dynamics.ParseScheduler(*schedStr)
	if !ok {
		return fmt.Errorf("simulate: unknown scheduler %q (want uniform, roundrobin, or breakpoint-guided)", *schedStr)
	}
	variant, err := cf.variant()
	if err != nil {
		return err
	}
	tracer, closeTracer, err := cf.openTracer("simulate")
	if err != nil {
		return err
	}
	defer closeTracer()
	metrics := cf.metrics()
	closeSidecar, err := cf.startSidecar("simulate", metrics)
	if err != nil {
		return err
	}
	defer closeSidecar()

	opts := sim.Options{
		N:            *n,
		Alphas:       alphas,
		Trajectories: *trajectories,
		Inits:        inits,
		Kinds:        kinds,
		Scheduler:    sched,
		MaxSteps:     *maxSteps,
		Seed:         *seed,
		EdgeProb:     *edgeProb,
		Workers:      *cf.workers,
		Variant:      variant,
		Trace:        tracer,
		Metrics:      metrics,
	}
	if *progress {
		opts.Progress = func(done, total int) {
			if done%16 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\rsimulate: %d/%d trajectories", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}

	res, err := sim.Run(ctx, opts)
	if err != nil && !interrupted(err) {
		return err
	}
	if *asJSON {
		if jerr := writeJSON(stdout, res); jerr != nil {
			return jerr
		}
	} else {
		fmt.Fprint(stdout, res.Report())
	}
	if err != nil {
		return fmt.Errorf("interrupted with %d of %d trajectories done: %w",
			len(res.Items), len(alphas)**trajectories, err)
	}
	return nil
}
