// Package core implements the paper's primary quantitative object — the
// Price of Anarchy of the Bilateral Network Creation Game under each
// solution concept — together with the closed-form bounds of Sections 3.2
// and 3.3 and exhaustive worst-case searches over small instances.
package core

import (
	"context"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/sweep"
)

// PoAResult is the outcome of a worst-case search: the maximal social cost
// ratio over all checked equilibria, its witness, and how many graphs were
// equilibria out of how many candidates.
type PoAResult struct {
	// Rho is the worst (maximal) social cost ratio found; 0 if no
	// equilibrium exists among the candidates.
	Rho float64
	// Witness attains Rho (nil if no equilibrium was found).
	Witness *graph.Graph
	// Equilibria and Candidates count the stable graphs and all graphs
	// examined.
	Equilibria, Candidates int
}

// PoAPayload is the JSON form of a PoA search, shared by `bncg poa -json`
// and /v1/poa; Shared is set by the daemon only.
type PoAPayload struct {
	SchemaVersion int     `json:"schema_version"`
	N             int     `json:"n"`
	Alpha         string  `json:"alpha"`
	Concept       string  `json:"concept"`
	Rho           float64 `json:"rho"`
	Witness       string  `json:"witness,omitempty"`
	Equilibria    int     `json:"equilibria"`
	Candidates    int     `json:"candidates"`
	Partial       bool    `json:"partial"`
	Shared        bool    `json:"shared,omitempty"` // joined an in-flight computation
}

// Payload renders the result of the search for concept at price alpha on
// n nodes; partial marks a search cut short.
func (r PoAResult) Payload(n int, alpha game.Alpha, concept eq.Concept, partial bool) PoAPayload {
	p := PoAPayload{
		SchemaVersion: sweep.SchemaVersion,
		N:             n,
		Alpha:         alpha.String(),
		Concept:       concept.String(),
		Rho:           r.Rho,
		Equilibria:    r.Equilibria,
		Candidates:    r.Candidates,
		Partial:       partial,
	}
	if r.Witness != nil {
		p.Witness = graph.Encode(r.Witness)
	}
	return p
}

// WorstTree exhaustively computes the PoA restricted to tree equilibria:
// the maximal ρ over all free trees on n nodes that are stable for the
// concept at price alpha. Exact for every concept; the BSE/BNE checkers
// bound the practical n (see package eq). The search runs on the parallel
// sweep engine, memoizing verdicts in cache (nil disables memoization, as
// for sweep.Options.Cache); stability checks and the per-tree distance
// sums behind ρ run on the zero-allocation bitset kernel of package graph
// through per-worker eq.Evaluators. Cancelling ctx stops the search within
// one tree granularity and returns the reduction over the completed
// portion together with ctx.Err().
func WorstTree(ctx context.Context, n int, alpha game.Alpha, concept eq.Concept, cache *sweep.Cache) (PoAResult, error) {
	return worstCase(ctx, n, alpha, concept, sweep.Trees, cache)
}

// WorstGraph exhaustively computes the PoA over all connected graphs on n
// nodes (up to isomorphism) stable for the concept at price alpha.
// Intended for n <= 6. The search runs on the parallel sweep engine,
// memoizing verdicts in cache (nil disables memoization). Cancelling ctx
// stops the search within one graph granularity and returns the reduction
// over the completed portion together with ctx.Err().
func WorstGraph(ctx context.Context, n int, alpha game.Alpha, concept eq.Concept, cache *sweep.Cache) (PoAResult, error) {
	return worstCase(ctx, n, alpha, concept, sweep.Graphs, cache)
}

// worstCase reduces a one-cell sweep (single α, single concept) to the
// worst stable ρ. The sweep's item order matches the enumeration order the
// sequential search used, so the reported witness is identical. On
// cancellation the reduction covers the partial sweep and the context
// error is passed through.
func worstCase(ctx context.Context, n int, alpha game.Alpha, concept eq.Concept, src sweep.Source, cache *sweep.Cache) (PoAResult, error) {
	res, err := sweep.Run(ctx, sweep.Options{
		N:        n,
		Alphas:   []game.Alpha{alpha},
		Concepts: []eq.Concept{concept},
		Source:   src,
		Cache:    cache,
		Rho:      true,
	})
	if res == nil {
		return PoAResult{}, err
	}
	rho, witness, stable := res.WorstStable(0, 0)
	return PoAResult{
		Rho:        rho,
		Witness:    witness,
		Equilibria: stable,
		Candidates: res.Graphs,
	}, err
}
