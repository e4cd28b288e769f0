package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/obs"
)

func baseOpts(n int) Options {
	return Options{
		N:            n,
		Alphas:       []game.Alpha{game.AFrac(1, 2), game.A(2), game.A(50)},
		Trajectories: 6,
		Seed:         42,
	}
}

// TestRunDeterministic: the same options produce byte-identical results at
// any worker count — the contract `bncg simulate` run-twice checks ride on.
func TestRunDeterministic(t *testing.T) {
	opts := baseOpts(12)
	var runs []*Result
	for _, workers := range []int{1, 4, 3} {
		o := opts
		o.Workers = workers
		res, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("batch did not complete")
		}
		runs = append(runs, res)
	}
	want, err := json.Marshal(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range runs[1:] {
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i+1, got, want)
		}
	}
}

// TestRunOrderedStreaming: OnTrajectory sees every trajectory exactly once,
// in global index order, consistent with Items.
func TestRunOrderedStreaming(t *testing.T) {
	opts := baseOpts(10)
	opts.Workers = 4
	var streamed []Trajectory
	var progress []int
	opts.OnTrajectory = func(tr Trajectory) { streamed = append(streamed, tr) }
	opts.Progress = func(done, total int) {
		if total != 18 {
			t.Fatalf("total = %d, want 18", total)
		}
		progress = append(progress, done)
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, res.Items) {
		t.Fatal("streamed trajectories differ from Items")
	}
	for i, tr := range streamed {
		if tr.Index != i {
			t.Fatalf("streamed[%d].Index = %d: out of order", i, tr.Index)
		}
	}
	if len(progress) != 18 || progress[len(progress)-1] != 18 {
		t.Fatalf("progress callbacks %v, want 1..18", progress)
	}
}

// TestRunCancellation: a cancelled batch returns ctx.Err(), Completed=false,
// and a contiguous index prefix of trajectories.
func TestRunCancellation(t *testing.T) {
	opts := baseOpts(14)
	opts.Trajectories = 12
	opts.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	opts.OnTrajectory = func(tr Trajectory) {
		if tr.Index == 5 {
			cancel()
		}
	}
	res, err := Run(ctx, opts)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Completed {
		t.Fatal("cancelled batch reports Completed")
	}
	if len(res.Items) >= 36 || len(res.Items) < 6 {
		t.Fatalf("delivered %d trajectories, want a partial prefix of >= 6", len(res.Items))
	}
	for i, tr := range res.Items {
		if tr.Index != i {
			t.Fatalf("Items[%d].Index = %d: prefix not contiguous", i, tr.Index)
		}
	}
	if len(res.Summaries) != len(opts.Alphas) {
		t.Fatalf("summaries over partial results: got %d, want %d", len(res.Summaries), len(opts.Alphas))
	}
}

// TestRunSummaries: per-α aggregates match direct recomputation from the
// items, and the known regimes show up (α>n² stars at tiny n is too strong
// an ask, but trees must dominate for large α and rho must be populated).
func TestRunSummaries(t *testing.T) {
	opts := baseOpts(12)
	opts.Trajectories = 9
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != 3 {
		t.Fatalf("got %d summaries, want 3", len(res.Summaries))
	}
	for ai, s := range res.Summaries {
		if s.Trajectories != 9 {
			t.Fatalf("α=%s: %d trajectories, want 9", s.Alpha, s.Trajectories)
		}
		if s.Converged != 9 {
			t.Fatalf("α=%s: only %d/9 converged at n=12", s.Alpha, s.Converged)
		}
		var stepSum, edgeSum int
		maxSteps := 0
		for _, tr := range res.Items {
			if tr.AlphaIndex != ai {
				continue
			}
			stepSum += tr.Steps
			edgeSum += tr.Edges
			if tr.Steps > maxSteps {
				maxSteps = tr.Steps
			}
			if tr.Connected && tr.Rho <= 0 {
				t.Fatalf("α=%s traj %d: connected default-variant final without rho", s.Alpha, tr.Index)
			}
		}
		if got := float64(stepSum) / 9; got != s.StepsMean {
			t.Fatalf("α=%s: StepsMean %v, recomputed %v", s.Alpha, s.StepsMean, got)
		}
		if s.StepsMax != maxSteps {
			t.Fatalf("α=%s: StepsMax %d, recomputed %d", s.Alpha, s.StepsMax, maxSteps)
		}
		if got := float64(edgeSum) / 9; got != s.EdgesMean {
			t.Fatalf("α=%s: EdgesMean %v, recomputed %v", s.Alpha, s.EdgesMean, got)
		}
		if s.MeanRho <= 0 || s.WorstRho < s.MeanRho {
			t.Fatalf("α=%s: rho stats MeanRho=%v WorstRho=%v", s.Alpha, s.MeanRho, s.WorstRho)
		}
	}
	// α = 50 > n: PS equilibria are trees (paper Thm); sampled dynamics
	// must land on them.
	if s := res.Summaries[2]; s.TreeShare != 1 {
		t.Fatalf("α=50 n=12: TreeShare = %v, want 1 (all PS equilibria are trees)", s.TreeShare)
	}
}

// TestInitFamilies: each init family produces its promised shape and the
// seeds differ across the grid.
func TestInitFamilies(t *testing.T) {
	opts := baseOpts(9)
	opts.Trajectories = 3
	opts.Inits = []Init{InitER, InitTree, InitStar}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[uint64]bool{}
	for _, tr := range res.Items {
		want := opts.Inits[tr.Index%opts.Trajectories%len(opts.Inits)].String()
		if tr.Init != want {
			t.Fatalf("traj %d: init %q, want %q", tr.Index, tr.Init, want)
		}
		seeds[tr.Seed] = true
	}
	if len(seeds) != len(res.Items) {
		t.Fatalf("%d distinct seeds across %d trajectories", len(seeds), len(res.Items))
	}
}

// TestParseInits covers the CLI selector surface.
func TestParseInits(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []Init
	}{
		{"", []Init{InitER, InitTree, InitStar}},
		{"all", []Init{InitER, InitTree, InitStar}},
		{"er", []Init{InitER}},
		{"tree", []Init{InitTree}},
		{"star", []Init{InitStar}},
	} {
		got, err := ParseInits(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("ParseInits(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseInits("clique"); err == nil {
		t.Fatal("ParseInits accepted an unknown family")
	}
}

// TestRunValidation: malformed options error out before any work starts.
func TestRunValidation(t *testing.T) {
	bad := []Options{
		{N: 1, Alphas: []game.Alpha{game.A(2)}, Trajectories: 1},
		{N: 5, Trajectories: 1},
		{N: 5, Alphas: []game.Alpha{game.A(2)}},
		{N: 5, Alphas: []game.Alpha{game.A(2)}, Trajectories: 1, EdgeProb: 1.5},
		{N: 5, Alphas: []game.Alpha{game.A(2)}, Trajectories: 1, EdgeProb: math.NaN()},
		{N: 5, Alphas: []game.Alpha{game.A(2)}, Trajectories: 1, MaxSteps: -5},
		// alphas × trajectories overflows int: negative, and wrapped to 0.
		{N: 4, Alphas: []game.Alpha{game.A(1), game.A(2)}, Trajectories: math.MaxInt/2 + 1},
		{N: 4, Alphas: []game.Alpha{game.A(1), game.A(2), game.A(3), game.A(4)}, Trajectories: math.MaxInt/2 + 1},
	}
	for i, o := range bad {
		if _, err := Run(context.Background(), o); err == nil {
			t.Fatalf("case %d: no error for %+v", i, o)
		}
	}
}

// TestRunHugeBatchCancels: a valid but astronomically large batch is not
// reserved up front; it starts, and cancellation ends it cleanly.
func TestRunHugeBatchCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{N: 4, Alphas: []game.Alpha{game.A(1), game.A(2)}, Trajectories: math.MaxInt / 2}
	res, err := Run(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Completed {
		t.Fatalf("cancelled huge batch: result %+v", res)
	}
}

// TestResolveDefaults: Resolve fills every default Run applies, leaves
// explicit values alone, and the Result of Run echoes exactly the Params
// of the resolved options.
func TestResolveDefaults(t *testing.T) {
	def, err := Options{N: 8, Alphas: []game.Alpha{game.A(2)}, Trajectories: 1}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if def.Seed != dynamics.DefaultSeed || def.MaxSteps != 10*8*8 || def.EdgeProb != 0.5 ||
		len(def.Inits) != 3 || len(def.Kinds) != 2 {
		t.Fatalf("defaults not applied: %+v", def)
	}
	// Below n=4 the default edge probability saturates at 1 instead of
	// exceeding it.
	for n, want := range map[int]float64{2: 1, 3: 1, 4: 1, 5: 0.8} {
		small, err := Options{N: n, Alphas: []game.Alpha{game.A(2)}, Trajectories: 1}.Resolve()
		if err != nil || small.EdgeProb != want {
			t.Fatalf("n=%d: default edge probability %v (%v), want %v", n, small.EdgeProb, err, want)
		}
	}
	explicit := Options{
		N: 8, Alphas: []game.Alpha{game.AFrac(1, 2), game.A(3)}, Trajectories: 2,
		Inits: []Init{InitTree}, Kinds: []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind, dynamics.SwapKind},
		Scheduler: dynamics.SchedulerRoundRobin, MaxSteps: 40, Seed: 5, EdgeProb: 0.25,
		Variant: game.Variant{Dist: game.DistMax},
	}
	for _, o := range []Options{{N: 8, Alphas: []game.Alpha{game.A(2)}, Trajectories: 1}, explicit} {
		resolved, err := o.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		again, err := resolved.Resolve()
		if err != nil || !reflect.DeepEqual(again.Params(), resolved.Params()) {
			t.Fatalf("Resolve is not idempotent: %+v vs %+v (%v)", again.Params(), resolved.Params(), err)
		}
		res, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Params, resolved.Params()) {
			t.Fatalf("Run reports %+v, Resolve gives %+v", res.Params, resolved.Params())
		}
	}
	got, _ := explicit.Resolve()
	want := Params{N: 8, Alphas: []string{"1/2", "3"}, Trajectories: 2, Inits: []string{"tree"},
		Moves: []string{"remove", "add", "swap"}, Scheduler: "roundrobin", Seed: 5, MaxSteps: 40,
		EdgeProb: 0.25, Variant: "max"}
	if !reflect.DeepEqual(got.Params(), want) {
		t.Fatalf("explicit params %+v, want %+v", got.Params(), want)
	}
}

// TestSchedulerAndMoves: the scheduler and move-set knobs thread through to
// the dynamics layer (BGE runs pass; breakpoint scheduling stays
// deterministic).
func TestSchedulerAndMoves(t *testing.T) {
	opts := baseOpts(10)
	opts.Trajectories = 4
	opts.Kinds = []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind, dynamics.SwapKind}
	opts.Scheduler = dynamics.SchedulerBreakpoint
	a, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("breakpoint-guided batch is not deterministic")
	}
	if a.Scheduler != "breakpoint" || len(a.Moves) != 3 {
		t.Fatalf("report header: scheduler=%q moves=%v", a.Scheduler, a.Moves)
	}
}

// TestTrajectorySeedSpread: the splitmix64 derivation separates neighboring
// grid coordinates.
func TestTrajectorySeedSpread(t *testing.T) {
	seen := map[uint64]bool{}
	for ai := 0; ai < 8; ai++ {
		for ti := 0; ti < 64; ti++ {
			s := TrajectorySeed(7, ai, ti)
			if seen[s] {
				t.Fatalf("seed collision at alpha=%d traj=%d", ai, ti)
			}
			seen[s] = true
		}
	}
}

// TestRunExportsScanDepth: the batch's bncg_sim_pairs_examined_total is
// the sum of its trajectories' scan depths, replayed from their seeds.
func TestRunExportsScanDepth(t *testing.T) {
	opts := baseOpts(12)
	opts.Inits = []Init{InitER}
	opts.Metrics = obs.NewComputeMetrics()
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, traj := range res.Items {
		rng := rand.New(rand.NewSource(int64(traj.Seed)))
		g, err := graph.RandomConnectedGNP(res.N, res.EdgeProb, rng)
		if err != nil {
			t.Fatal(err)
		}
		gm, err := game.NewGame(res.N, opts.Alphas[traj.AlphaIndex])
		if err != nil {
			t.Fatal(err)
		}
		tr, err := dynamics.Run(context.Background(), gm, g, dynamics.Options{
			Kinds: []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind}, MaxSteps: res.MaxSteps, Rng: rng,
		})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Steps != traj.Steps {
			t.Fatalf("trajectory %d: replay took %d steps, the batch %d", traj.Index, tr.Steps, traj.Steps)
		}
		want += tr.PairsExamined
	}
	var b strings.Builder
	opts.Metrics.Registry.WriteText(&b)
	if err := obs.LintExposition(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("bncg_sim_pairs_examined_total %d\n", want); !strings.Contains(b.String(), line) {
		t.Fatalf("exposition lacks %q:\n%s", line, b.String())
	}
}
