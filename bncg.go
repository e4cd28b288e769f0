package bncg

import (
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/eq"
	"repro/internal/experiments"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
	"repro/internal/sweep"
)

// Core model types.
type (
	// Graph is an undirected simple graph on nodes 0..n-1.
	Graph = graph.Graph
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Alpha is the exact rational edge price α.
	Alpha = game.Alpha
	// Game couples an agent count with an edge price.
	Game = game.Game
	// Cost is an agent's exact lexicographic cost.
	Cost = game.Cost
	// Ownership assigns each edge of a unilateral NCG state to its buyer.
	Ownership = game.Ownership
)

// Moves and verdicts.
type (
	// Move is a reversible strategy change.
	Move = move.Move
	// Neighborhood and Coalition are the cooperative move kinds of BNE and
	// k-BSE.
	Neighborhood = move.Neighborhood
	Coalition    = move.Coalition
	// Concept identifies a solution concept.
	Concept = eq.Concept
	// Result is a stability verdict with a violating witness move.
	Result = eq.Result
)

// The solution concepts, in the paper's order of increasing cooperation.
const (
	RE       = eq.RE
	BAE      = eq.BAE
	PS       = eq.PS
	BSwE     = eq.BSwE
	BGE      = eq.BGE
	BNE      = eq.BNE
	TwoBSE   = eq.TwoBSE
	ThreeBSE = eq.ThreeBSE
	BSE      = eq.BSE
)

// Graph constructors.
var (
	// FromEdges builds a graph from an edge list.
	FromEdges = graph.FromEdges
	// DecodeGraph parses the plain text edge-list format; EncodeGraph
	// renders it.
	DecodeGraph = graph.Decode
	EncodeGraph = graph.Encode
	// Star and Clique are the social optima for α >= 1 and α < 1.
	Star   = game.Star
	Clique = game.Clique
	// RandomConnectedGraph samples a starting state for dynamics from an
	// explicit *rand.Rand.
	RandomConnectedGraph = graph.RandomConnectedGraph
	// Path and Cycle are baseline families.
	Path  = construct.Path
	Cycle = construct.Cycle
	// NewTreeStar builds the paper's lower-bound tree-star family.
	NewTreeStar = construct.NewTreeStar
	// The witness gadgets of Figures 2, 4, 6 and 7.
	NewFigure2    = construct.NewFigure2
	NewFigure6    = construct.NewFigure6
	NewFigure7    = construct.NewFigure7
	NewDoubleDeep = construct.NewDoubleDeep
	// The Figure 1a separation witnesses recovered by search.
	SwapTree           = construct.SwapTree
	CompleteBipartite  = construct.CompleteBipartite
	ThreeCoalitionTree = construct.ThreeCoalitionTree
)

// Games and prices.
var (
	// NewGame returns the BNCG on n agents at edge price alpha.
	NewGame = game.NewGame
	// NewAlpha returns the exact edge price num/den.
	NewAlpha = game.NewAlpha
	// NewOwnership builds a unilateral NCG edge assignment.
	NewOwnership = game.NewOwnership
)

// AlphaInt returns the integer edge price n; it panics for n < 0.
func AlphaInt(n int64) Alpha { return game.A(n) }

// Alpha2 returns the edge price num/den; it panics on invalid input.
func Alpha2(num, den int64) Alpha { return game.AFrac(num, den) }

// Equilibrium checking.
var (
	// Check runs a solution concept's exact deviation scan at one price.
	Check = eq.Check
	// Improving reports whether a specific move strictly improves all of
	// its actors.
	Improving = eq.Improving
	// CheckUnilateralNE checks a pure NE of the unilateral NCG under a
	// given edge ownership.
	CheckUnilateralNE = eq.CheckUnilateralNE
)

// Price of Anarchy.
type (
	// PoAResult is the worst stable ρ of a search, its witness and counts.
	PoAResult = core.PoAResult
	// SweepCache memoizes certificates across searches by canonical form
	// and concept.
	SweepCache = sweep.Cache
)

var (
	// WorstTree computes the exact PoA over all free trees on n nodes,
	// memoizing in the given SweepCache (nil for none). Cancelling the
	// context returns the partial reduction with ctx.Err().
	WorstTree = core.WorstTree
	// TreeRho computes ρ(G) for a tree in O(n).
	TreeRho = core.TreeRho
	// NewSweepCache returns an empty cache.
	NewSweepCache = sweep.NewCache
)

// Dynamics.
type (
	// DynamicsOptions configures improving-response dynamics.
	DynamicsOptions = dynamics.Options
	// DynamicsTrace reports a dynamics run.
	DynamicsTrace = dynamics.Trace
	// DynamicsKind selects a move family for the dynamics scheduler.
	DynamicsKind = dynamics.Kind
)

// The dynamics move families.
const (
	RemoveKind = dynamics.RemoveKind
	AddKind    = dynamics.AddKind
	SwapKind   = dynamics.SwapKind
)

// RunDynamics applies improving moves until convergence, the step bound,
// or context cancellation (which returns the partial trace).
var RunDynamics = dynamics.Run

// Experiments.
type (
	// ExperimentReport is the outcome of a paper-reproduction experiment.
	ExperimentReport = experiments.Report
	// ExperimentScale selects Quick or full-scale runs.
	ExperimentScale = experiments.Scale
)

// Quick is the fast experiment scale.
const Quick = experiments.Quick

var (
	// Experiment runs the reproduction experiment with the given ID.
	// Cancelling the context returns the partial report with ctx.Err().
	Experiment = experiments.Run
	// ExperimentIDs lists all experiment IDs.
	ExperimentIDs = experiments.IDs
)
