// Package sim is the large-n stochastic workload: batches of
// improving-response trajectories run on the incremental-distance dynamics
// engine from random initial states, across an α-grid, with deterministic
// per-trajectory seeding. Where the sweep engine certifies every class
// exhaustively (and dies past n≈7), sim samples — convergence-step
// distributions and equilibrium-topology statistics at n = 50–500, where
// the only limit is hardware.
//
// Determinism contract: every trajectory's seed is a pure function of
// (Options.Seed, alpha index, trajectory index), results are delivered to
// OnTrajectory in global index order regardless of worker interleaving,
// and Result carries no wall-clock state — the same Options produce a
// byte-identical report on every run at any worker count.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dynamics"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Init selects an initial-state family.
type Init int

const (
	// InitER draws a connectivity-patched Erdős–Rényi G(n, p) sample.
	InitER Init = iota
	// InitTree draws a uniform labeled tree (Prüfer).
	InitTree
	// InitStar draws a star with a uniform center.
	InitStar
)

func (i Init) String() string {
	switch i {
	case InitTree:
		return "tree"
	case InitStar:
		return "star"
	default:
		return "er"
	}
}

// ParseInits parses an initial-state selector: one of "er", "tree",
// "star", or "all" (ER, tree and star cycled per trajectory).
func ParseInits(s string) ([]Init, error) {
	switch s {
	case "", "all":
		return []Init{InitER, InitTree, InitStar}, nil
	case "er":
		return []Init{InitER}, nil
	case "tree":
		return []Init{InitTree}, nil
	case "star":
		return []Init{InitStar}, nil
	}
	return nil, fmt.Errorf("sim: unknown init family %q (want er|tree|star|all)", s)
}

// MaxN is the largest node count Resolve accepts. Each worker's engine
// holds the n(n−1)/2 candidate pairs (16 bytes each), their int32 scan
// order and the n×n int32 distance matrix, about 14·n² bytes: some 235 MB
// at MaxN, where n = 100000 would ask for over 100 GB.
const MaxN = 4096

// Options configures a simulation batch.
type Options struct {
	// N is the number of agents, 2..MaxN (up to graph.MaxBitsetNodes
	// recommended).
	N int
	// Alphas is the price grid; one batch of trajectories runs per α.
	Alphas []game.Alpha
	// Trajectories is the number of trajectories per α.
	Trajectories int
	// Inits are cycled over the trajectory index (default: ER, tree, star).
	Inits []Init
	// Kinds is the dynamics move set (default {Remove, Add} — PS dynamics).
	Kinds []dynamics.Kind
	// Scheduler is the move-scan policy (default uniform).
	Scheduler dynamics.Scheduler
	// MaxSteps bounds each trajectory (0 means the dynamics default 10·n²).
	MaxSteps int
	// Seed is the base of the deterministic per-trajectory seed derivation
	// (0 means dynamics.DefaultSeed).
	Seed uint64
	// EdgeProb is the ER edge probability (0 means min(1, 4/n), ≈2n
	// expected edges from n=4 on).
	EdgeProb float64
	// Workers bounds parallelism (0 means GOMAXPROCS).
	Workers int
	// Variant selects the game rules (zero value: the paper's game).
	Variant game.Variant
	// OnTrajectory, when non-nil, receives every finished trajectory in
	// global index order (streaming consumers rely on this determinism).
	OnTrajectory func(Trajectory)
	// Progress, when non-nil, is called after each delivered trajectory.
	Progress func(done, total int)
	// Trace and Metrics are optional observability sinks.
	Trace   *obs.Tracer
	Metrics *obs.ComputeMetrics
}

// Trajectory reports one dynamics run and the topology it stopped on.
type Trajectory struct {
	Index      int     `json:"index"`
	AlphaIndex int     `json:"alpha_index"`
	Alpha      string  `json:"alpha"`
	Init       string  `json:"init"`
	Seed       uint64  `json:"seed"`
	Steps      int     `json:"steps"`
	Converged  bool    `json:"converged"`
	Connected  bool    `json:"connected"`
	Edges      int     `json:"edges"`
	Diameter   int     `json:"diameter"` // -1 when disconnected
	MaxDegree  int     `json:"max_degree"`
	Tree       bool    `json:"tree"`
	Star       bool    `json:"star"`
	Rho        float64 `json:"rho,omitempty"` // default variant, connected finals only
}

// AlphaSummary aggregates the trajectories of one grid price.
type AlphaSummary struct {
	Alpha        string  `json:"alpha"`
	Trajectories int     `json:"trajectories"`
	Converged    int     `json:"converged"`
	Disconnected int     `json:"disconnected"`
	StepsMean    float64 `json:"steps_mean"`
	StepsP50     int     `json:"steps_p50"`
	StepsP95     int     `json:"steps_p95"`
	StepsMax     int     `json:"steps_max"`
	EdgesMean    float64 `json:"edges_mean"`
	DiameterMean float64 `json:"diameter_mean"` // over connected finals
	TreeShare    float64 `json:"tree_share"`
	StarShare    float64 `json:"star_share"`
	MeanRho      float64 `json:"mean_rho,omitempty"`
	WorstRho     float64 `json:"worst_rho,omitempty"`
}

// Params are a batch's resolved parameters — Options with every default
// applied — in the form reports and stream headers echo them.
type Params struct {
	N            int      `json:"n"`
	Alphas       []string `json:"alphas"`
	Trajectories int      `json:"trajectories"`
	Inits        []string `json:"inits"`
	Moves        []string `json:"moves"`
	Scheduler    string   `json:"scheduler"`
	Seed         uint64   `json:"seed"`
	MaxSteps     int      `json:"max_steps"`
	EdgeProb     float64  `json:"edge_prob"`
	Variant      string   `json:"variant,omitempty"`
}

// Result is a finished (or cancelled) batch. Items holds the contiguous
// prefix of trajectories delivered before completion or cancellation.
type Result struct {
	Params
	Completed bool           `json:"completed"`
	Items     []Trajectory   `json:"items"`
	Summaries []AlphaSummary `json:"summaries"`
}

// Report renders the per-α summary table. The output is a pure function
// of the batch parameters and results — no wall-clock state — so two runs
// with the same options print byte-identical reports.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simulate n=%d trajectories=%d/α seed=%d scheduler=%s moves=%s inits=%s max-steps=%d",
		r.N, r.Trajectories, r.Seed, r.Scheduler,
		strings.Join(r.Moves, ","), strings.Join(r.Inits, ","), r.MaxSteps)
	if r.Variant != "" {
		fmt.Fprintf(&b, " variant=%s", r.Variant)
	}
	if !r.Completed {
		fmt.Fprintf(&b, " [interrupted: %d/%d trajectories]",
			len(r.Items), len(r.Alphas)*r.Trajectories)
	}
	b.WriteByte('\n')
	for _, s := range r.Summaries {
		fmt.Fprintf(&b, "α=%-6s conv=%d/%d disc=%d steps{mean=%.1f p50=%d p95=%d max=%d} edges=%.1f",
			s.Alpha, s.Converged, s.Trajectories, s.Disconnected,
			s.StepsMean, s.StepsP50, s.StepsP95, s.StepsMax, s.EdgesMean)
		if s.Trajectories > s.Disconnected {
			fmt.Fprintf(&b, " diam=%.1f", s.DiameterMean)
		}
		fmt.Fprintf(&b, " tree=%.0f%% star=%.0f%%", 100*s.TreeShare, 100*s.StarShare)
		if s.MeanRho > 0 {
			fmt.Fprintf(&b, " rho{mean=%.4f worst=%.4f}", s.MeanRho, s.WorstRho)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TrajectorySeed derives the deterministic seed of trajectory trajIdx at
// grid position alphaIdx: a splitmix64 finalizer over the base seed and
// the task coordinates, so neighboring tasks get uncorrelated streams.
func TrajectorySeed(base uint64, alphaIdx, trajIdx int) uint64 {
	x := base ^ uint64(alphaIdx)<<40 ^ uint64(trajIdx)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Resolve validates opts and returns them with every default Run applies
// filled in, MaxSteps included. Run resolves its options first, so the
// Params of the resolved options are exactly what its Result reports.
func (opts Options) Resolve() (Options, error) {
	if opts.N < 2 || opts.N > MaxN {
		return opts, fmt.Errorf("sim: need 2 <= n <= %d, got %d", MaxN, opts.N)
	}
	if len(opts.Alphas) == 0 {
		return opts, fmt.Errorf("sim: need at least one alpha")
	}
	if opts.Trajectories < 1 {
		return opts, fmt.Errorf("sim: need at least one trajectory per alpha")
	}
	if opts.Trajectories > math.MaxInt/len(opts.Alphas) {
		return opts, fmt.Errorf("sim: %d alphas × %d trajectories overflows the trajectory count",
			len(opts.Alphas), opts.Trajectories)
	}
	if opts.MaxSteps < 0 {
		return opts, fmt.Errorf("sim: max steps must not be negative, got %d", opts.MaxSteps)
	}
	// The dynamics' removals, purchases and swaps are BGE's move space.
	if err := eq.ValidateVariant(opts.N, opts.Variant, []eq.Concept{eq.BGE}); err != nil {
		return opts, fmt.Errorf("sim: %w", err)
	}
	if len(opts.Inits) == 0 {
		opts.Inits = []Init{InitER, InitTree, InitStar}
	}
	if len(opts.Kinds) == 0 {
		opts.Kinds = []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind}
	}
	if opts.Seed == 0 {
		opts.Seed = dynamics.DefaultSeed
	}
	if opts.EdgeProb == 0 {
		opts.EdgeProb = min(1, 4/float64(opts.N))
	}
	if !(opts.EdgeProb >= 0 && opts.EdgeProb <= 1) { // rejects NaN too
		return opts, fmt.Errorf("sim: edge probability %v outside (0,1]", opts.EdgeProb)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 10 * opts.N * opts.N
	}
	return opts, nil
}

// Params renders the batch parameters of opts, which should be resolved.
func (opts Options) Params() Params {
	p := Params{
		N:            opts.N,
		Trajectories: opts.Trajectories,
		Scheduler:    opts.Scheduler.String(),
		Seed:         opts.Seed,
		MaxSteps:     opts.MaxSteps,
		EdgeProb:     opts.EdgeProb,
		Variant:      opts.Variant.Key(),
		Moves:        make([]string, 0, len(opts.Kinds)),
	}
	for _, a := range opts.Alphas {
		p.Alphas = append(p.Alphas, a.String())
	}
	for _, in := range opts.Inits {
		p.Inits = append(p.Inits, in.String())
	}
	for _, k := range opts.Kinds {
		switch k {
		case dynamics.RemoveKind:
			p.Moves = append(p.Moves, "remove")
		case dynamics.AddKind:
			p.Moves = append(p.Moves, "add")
		case dynamics.SwapKind:
			p.Moves = append(p.Moves, "swap")
		}
	}
	return p
}

// Run executes the batch. Cancelling ctx stops the workers between
// trajectories; the contiguous prefix of finished trajectories is
// summarized and returned together with ctx.Err().
func Run(ctx context.Context, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := opts.Resolve()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := len(opts.Alphas) * opts.Trajectories
	if workers > total {
		workers = total
	}

	gmBase, err := game.NewGame(opts.N, opts.Alphas[0])
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	gmBase.Variant = opts.Variant

	// A requested count is not an allocation size: a huge batch grows its
	// items as they are delivered instead of reserving them up front.
	res := &Result{Params: opts.Params(), Items: make([]Trajectory, 0, min(total, 1024))}

	batchSpan := opts.Trace.Start("simulate")

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	tasks := make(chan int)
	type done struct {
		idx  int
		traj Trajectory
		err  error
	}
	results := make(chan done, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range tasks {
				traj, err := runOne(runCtx, gmBase, opts, idx)
				select {
				case results <- done{idx: idx, traj: traj, err: err}:
				case <-runCtx.Done():
					return
				}
				if err != nil {
					return
				}
			}
		}()
	}
	go func() {
		defer close(tasks)
		for i := 0; i < total; i++ {
			select {
			case tasks <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()

	// Collect out-of-order worker results and deliver the contiguous
	// prefix in index order — the streaming determinism contract.
	reorder := make(map[int]Trajectory, workers)
	next := 0
	var firstErr error
	for next < total && firstErr == nil {
		select {
		case d := <-results:
			if d.err != nil {
				firstErr = d.err
				break
			}
			reorder[d.idx] = d.traj
			for {
				traj, ok := reorder[next]
				if !ok {
					break
				}
				delete(reorder, next)
				res.Items = append(res.Items, traj)
				if opts.OnTrajectory != nil {
					opts.OnTrajectory(traj)
				}
				next++
				if opts.Progress != nil {
					opts.Progress(next, total)
				}
			}
		case <-ctx.Done():
			firstErr = ctx.Err()
		}
	}
	cancel()
	wg.Wait()

	res.Completed = firstErr == nil
	res.Summaries = summarize(opts, res.Items)
	batchSpan.End(obs.Attrs{
		"n": opts.N, "alphas": len(opts.Alphas), "trajectories": opts.Trajectories,
		"delivered": len(res.Items), "scheduler": res.Scheduler,
	})
	return res, firstErr
}

// runOne runs trajectory idx from its deterministically seeded initial
// state and measures the topology it stopped on.
func runOne(ctx context.Context, gm game.Game, opts Options, idx int) (Trajectory, error) {
	alphaIdx := idx / opts.Trajectories
	trajIdx := idx % opts.Trajectories
	seed := TrajectorySeed(opts.Seed, alphaIdx, trajIdx)
	rng := rand.New(rand.NewSource(int64(seed)))
	init := opts.Inits[trajIdx%len(opts.Inits)]
	gm.Alpha = opts.Alphas[alphaIdx]

	var g *graph.Graph
	var err error
	switch init {
	case InitTree:
		g = graph.RandomTree(opts.N, rng)
	case InitStar:
		g = graph.RandomStar(opts.N, rng)
	default:
		g, err = graph.RandomConnectedGNP(opts.N, opts.EdgeProb, rng)
		if err != nil {
			return Trajectory{}, err
		}
	}

	start := time.Now()
	tr, err := dynamics.Run(ctx, gm, g, dynamics.Options{
		Kinds:     opts.Kinds,
		MaxSteps:  opts.MaxSteps,
		Rng:       rng,
		Scheduler: opts.Scheduler,
	})
	if err != nil {
		return Trajectory{}, err
	}
	opts.Metrics.TrajectoryObserved(tr.Steps, tr.Converged, tr.PairsExamined, tr.Kernel.Repairs, tr.Kernel.Fallbacks, time.Since(start))

	traj := Trajectory{
		Index:      idx,
		AlphaIndex: alphaIdx,
		Alpha:      gm.Alpha.String(),
		Init:       init.String(),
		Seed:       seed,
		Steps:      tr.Steps,
		Converged:  tr.Converged,
		Edges:      g.M(),
		Diameter:   graph.Unreachable,
	}

	// Connectivity, diameter and the social distance cost come off the
	// engine's final kernel aggregates.
	n := g.N()
	connected := tr.Unreachable == 0
	traj.Connected = connected
	if connected {
		traj.Diameter = tr.MaxDist
	}
	for u := 0; u < n; u++ {
		if d := g.Degree(u); d > traj.MaxDegree {
			traj.MaxDegree = d
		}
	}
	traj.Tree = connected && g.M() == n-1
	traj.Star = traj.Tree && traj.MaxDegree == n-1
	if connected && gm.Variant.IsDefault() {
		traj.Rho = gm.RhoOfCost(game.Cost{Buy: 2 * int64(g.M()), Dist: tr.SumDist})
	}
	return traj, nil
}

// summarize folds the delivered trajectories into per-α aggregates.
func summarize(opts Options, items []Trajectory) []AlphaSummary {
	out := make([]AlphaSummary, 0, len(opts.Alphas))
	for ai, a := range opts.Alphas {
		s := AlphaSummary{Alpha: a.String()}
		var steps []int
		var edgeSum, diamSum float64
		var diamN, trees, stars int
		var rhoSum float64
		var rhoN int
		for _, tr := range items {
			if tr.AlphaIndex != ai {
				continue
			}
			s.Trajectories++
			steps = append(steps, tr.Steps)
			s.StepsMean += float64(tr.Steps)
			if tr.Steps > s.StepsMax {
				s.StepsMax = tr.Steps
			}
			if tr.Converged {
				s.Converged++
			}
			edgeSum += float64(tr.Edges)
			if !tr.Connected {
				s.Disconnected++
			} else {
				diamSum += float64(tr.Diameter)
				diamN++
				if tr.Rho > 0 {
					rhoSum += tr.Rho
					rhoN++
					if tr.Rho > s.WorstRho {
						s.WorstRho = tr.Rho
					}
				}
			}
			if tr.Tree {
				trees++
			}
			if tr.Star {
				stars++
			}
		}
		if s.Trajectories == 0 {
			out = append(out, s)
			continue
		}
		cnt := float64(s.Trajectories)
		s.StepsMean /= cnt
		s.EdgesMean = edgeSum / cnt
		s.TreeShare = float64(trees) / cnt
		s.StarShare = float64(stars) / cnt
		sort.Ints(steps)
		s.StepsP50 = steps[len(steps)/2]
		s.StepsP95 = steps[(len(steps)*95)/100]
		if diamN > 0 {
			s.DiameterMean = diamSum / float64(diamN)
		}
		if rhoN > 0 {
			s.MeanRho = rhoSum / float64(rhoN)
		}
		out = append(out, s)
	}
	return out
}
