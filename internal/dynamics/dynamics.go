// Package dynamics implements improving-response dynamics for the BNCG:
// agents (and pairs of agents) repeatedly perform strictly improving
// removals, bilateral additions and swaps until no such move exists. The
// fixed points are exactly the PS / BGE states for the respective move
// sets, which lets experiments sample equilibria instead of enumerating
// them.
package dynamics

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// Kind selects a move family for the scheduler.
type Kind int

// The move families of the weak solution concepts.
const (
	RemoveKind Kind = iota + 1
	AddKind
	SwapKind
)

// DefaultSeed seeds the rand.Rand a run falls back to when Options.Rng is
// nil, so the zero-value Options is usable and deterministic.
const DefaultSeed = 1

// Options configures a dynamics run.
type Options struct {
	// Kinds are the move families agents may use. {Remove, Add} converges
	// to PS; {Remove, Add, Swap} to BGE.
	Kinds []Kind
	// MaxSteps bounds the number of applied moves (0 means 10·n·n).
	MaxSteps int
	// Rng randomizes the move scan order: the uniform scheduler draws one
	// rng.Intn per pair it examines, so a step consumes as many draws as
	// its scan depth. Nil selects a fresh
	// rand.New(rand.NewSource(DefaultSeed)), making runs with the zero
	// value reproducible; pass an explicit source to vary or share streams.
	Rng *rand.Rand
	// Scheduler selects the candidate-scan policy: SchedulerUniform (the
	// zero value, random scan order), SchedulerRoundRobin, or
	// SchedulerBreakpoint (certificate-guided).
	Scheduler Scheduler
}

// rng returns the configured random source, defaulting to a fixed seed.
func (o Options) rng() *rand.Rand {
	if o.Rng != nil {
		return o.Rng
	}
	return rand.New(rand.NewSource(DefaultSeed))
}

// Trace reports a dynamics run.
type Trace struct {
	// Steps is the number of improving moves applied.
	Steps int
	// Converged reports whether no improving move remained (as opposed to
	// hitting MaxSteps or the context being cancelled).
	Converged bool
	// History records the applied moves in order.
	History []move.Move
	// PairsExamined is the scan depth summed over the run: the candidate
	// pairs the engine's scans looked at, the final convergence scan
	// included. Under the uniform scheduler it equals the rng.Intn draws
	// the run made.
	PairsExamined int
	// SumDist, Unreachable and MaxDist describe the final state, read off
	// the distance kernel: the finite distances summed over all ordered
	// pairs, the unreachable ordered pairs, and the largest finite
	// distance (the diameter when Unreachable is 0).
	SumDist     int64
	Unreachable int64
	MaxDist     int
	// Kernel counts the distance rows the committed moves repaired:
	// incrementally, or by a full-row fallback BFS (graph.IncStats says
	// which rows a toggle repairs). Probes repair none.
	Kernel graph.IncStats
}

// Run mutates g by applying improving moves until convergence, the step
// bound, or ctx cancellation. It returns the trace; g holds the final
// state. On cancellation the partial trace (moves applied so far) is
// returned together with ctx.Err(); g holds the state reached.
func Run(ctx context.Context, gm game.Game, g *graph.Graph, opts Options) (Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(opts.Kinds) == 0 {
		return Trace{}, fmt.Errorf("dynamics: Options.Kinds must not be empty")
	}
	if opts.MaxSteps < 0 {
		return Trace{}, fmt.Errorf("dynamics: Options.MaxSteps must not be negative, got %d", opts.MaxSteps)
	}
	rng := opts.rng()
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 10 * g.N() * g.N()
	}
	// Start the history at a real capacity instead of growing from nil:
	// convergence at n=500 means thousands of appends per trajectory.
	histCap := maxSteps
	if histCap > 1024 {
		histCap = 1024
	}
	tr := Trace{History: make([]move.Move, 0, histCap)}
	eng := newEngine(gm, g, opts)
	var err error
	for {
		if tr.Steps >= maxSteps {
			// One final scan decides whether we stopped exactly at a
			// fixed point.
			_, more := eng.find(rng)
			tr.Converged = !more
			break
		}
		if err = ctx.Err(); err != nil {
			break
		}
		c, ok := eng.find(rng)
		if !ok {
			tr.Converged = true
			break
		}
		tr.History = append(tr.History, eng.commit(c))
		tr.Steps++
	}
	tr.PairsExamined = eng.examined
	eng.final(&tr)
	return tr, err
}

// collectMoves lists every candidate move of the given families on g.
func collectMoves(g *graph.Graph, opts Options) []move.Move {
	var moves []move.Move
	for _, k := range opts.Kinds {
		switch k {
		case RemoveKind:
			for _, e := range g.Edges() {
				moves = append(moves, move.Remove{U: e.U, V: e.V}, move.Remove{U: e.V, V: e.U})
			}
		case AddKind:
			for u := 0; u < g.N(); u++ {
				for v := u + 1; v < g.N(); v++ {
					if !g.HasEdge(u, v) {
						moves = append(moves, move.Add{U: u, V: v})
					}
				}
			}
		case SwapKind:
			for u := 0; u < g.N(); u++ {
				for _, v := range g.Neighbors(u) {
					for w := 0; w < g.N(); w++ {
						if w != u && w != v && !g.HasEdge(u, w) {
							moves = append(moves, move.Swap{U: u, Old: v, New: w})
						}
					}
				}
			}
		}
	}
	return moves
}
