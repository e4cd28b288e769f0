package bncg

import (
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/eq"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
	"repro/internal/ncg"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
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
	// Remove, Add, Swap, Neighborhood and Coalition are the move kinds of
	// the solution concepts.
	Remove       = move.Remove
	Add          = move.Add
	Swap         = move.Swap
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

// MaxDecodeNodes is the largest node count DecodeGraph accepts.
const MaxDecodeNodes = graph.MaxDecodeNodes

// Graph constructors.
var (
	// NewGraph returns an empty graph on n nodes.
	NewGraph = graph.New
	// FromEdges builds a graph from an edge list.
	FromEdges = graph.FromEdges
	// DecodeGraph parses the plain text edge-list format.
	DecodeGraph = graph.Decode
	// EncodeGraph renders a graph in the plain text edge-list format.
	EncodeGraph = graph.Encode
	// Star and Clique are the social optima for α >= 1 and α < 1.
	Star   = game.Star
	Clique = game.Clique
	// RandomTree and RandomConnectedGraph sample starting states for
	// dynamics; both take an explicit *rand.Rand for reproducibility.
	RandomTree           = graph.RandomTree
	RandomConnectedGraph = graph.RandomConnectedGraph
	// Path, Cycle and AlmostCompleteDAry are the baseline families.
	Path               = construct.Path
	Cycle              = construct.Cycle
	AlmostCompleteDAry = construct.AlmostCompleteDAry
	// NewStretched and NewTreeStar build the paper's lower-bound families.
	NewStretched = construct.NewStretched
	NewTreeStar  = construct.NewTreeStar
	// The witness gadgets of Section 2 and Figures 2 and 5–8.
	NewFigure2 = construct.NewFigure2
	NewFigure5 = construct.NewFigure5
	NewFigure6 = construct.NewFigure6
	NewFigure7 = construct.NewFigure7
	Figure8    = construct.Figure8
	// NewDoubleDeep builds the Lemma 3.14 / Figure 4 gadget.
	NewDoubleDeep = construct.NewDoubleDeep
	// Spider builds a multi-leg path star.
	Spider = construct.Spider
	// The Figure 1a separation witnesses recovered by search.
	SwapTree           = construct.SwapTree
	CompleteBipartite  = construct.CompleteBipartite
	ThreeCoalitionTree = construct.ThreeCoalitionTree
)

// NewOwnership builds a unilateral NCG edge assignment.
var NewOwnership = game.NewOwnership

// Game constructors.
var (
	// NewGame returns the BNCG on n agents at edge price alpha.
	NewGame = game.NewGame
	// NewAlpha returns the exact edge price num/den.
	NewAlpha = game.NewAlpha
)

// AlphaInt returns the integer edge price n; it panics for n < 0.
func AlphaInt(n int64) Alpha { return game.A(n) }

// Alpha2 returns the edge price num/den; it panics on invalid input.
func Alpha2(num, den int64) Alpha { return game.AFrac(num, den) }

// Unilateral NCG baseline.
var (
	// NCGBestResponse computes an exhaustive best response in the
	// unilateral game.
	NCGBestResponse = ncg.BestResponse
	// NCGExistsNEOwnership searches for an edge assignment making a graph
	// a pure NE of the unilateral game.
	NCGExistsNEOwnership = ncg.ExistsNEOwnership
	// NCGCheckGE checks a unilateral Greedy Equilibrium.
	NCGCheckGE = ncg.CheckGE
	// NCGTreePoA computes the unilateral NE tree PoA exhaustively.
	NCGTreePoA = ncg.TreePoA
)

// Equilibrium checking.
var (
	// Check runs the exact checker for a solution concept.
	Check = eq.Check
	// Concepts lists all bilateral concepts in cooperation order.
	Concepts = eq.Concepts
	// Improving reports whether a specific move strictly improves all of
	// its actors.
	Improving = eq.Improving
	// CheckKBSE checks stability against coalitions of size at most k.
	CheckKBSE = eq.CheckKBSE
	// CheckUnilateralNE checks a pure NE of the unilateral NCG.
	CheckUnilateralNE = eq.CheckUnilateralNE
)

// Price of Anarchy.
type PoAResult = core.PoAResult

var (
	// WorstTree computes the exact PoA over all free trees on n nodes,
	// memoizing verdicts in the given SweepCache (nil for none).
	// Cancelling the context returns the partial reduction with ctx.Err().
	WorstTree = core.WorstTree
	// WorstGraph computes the exact PoA over all connected graphs,
	// memoizing verdicts in the given SweepCache (nil for none).
	// Cancelling the context returns the partial reduction with ctx.Err().
	WorstGraph = core.WorstGraph
	// TreeRho computes ρ(G) for a tree in O(n).
	TreeRho = core.TreeRho
)

// Parallel sweep engine (v2: context-aware, streaming).
type (
	// SweepOptions configures a parallel sweep over an isomorphism-free
	// graph stream, including the incremental OnItem/Progress hooks.
	SweepOptions = sweep.Options
	// SweepResult is the deterministic outcome of a sweep.
	SweepResult = sweep.Result
	// SweepItem is the verdict vector for one (α, graph) pair.
	SweepItem = sweep.Item
	// SweepVector is a stability bit vector over a sweep's concepts.
	SweepVector = sweep.Vector
	// SweepSource selects the enumerated stream (graphs or trees).
	SweepSource = sweep.Source
	// SweepCache memoizes stability verdicts by canonical form, α and
	// concept.
	SweepCache = sweep.Cache
)

// The sweep graph streams.
const (
	SweepGraphs = sweep.Graphs
	SweepTrees  = sweep.Trees
)

var (
	// RunSweep executes a parallel sweep. Cancelling the context stops it
	// within one task granularity and returns the partial result with
	// ctx.Err().
	RunSweep = sweep.Run
	// StreamSweep executes a parallel sweep and returns an iterator over
	// its items, delivered incrementally in the deterministic α-major
	// batch order; breaking out of the range cancels the sweep.
	StreamSweep = sweep.Stream
	// NewSweepCache returns an empty verdict cache.
	NewSweepCache = sweep.NewCache
)

// ParseAlpha parses an exact edge price from its string form ("3", "9/2").
var ParseAlpha = game.ParseAlpha

// ParseConcept parses a concept from its paper name ("PS", "2-BSE", …).
var ParseConcept = eq.ParseConcept

// Persistent verdict store and HTTP serving daemon (v3).
type (
	// VerdictStore is the append-only, sharded on-disk verdict store. Open
	// one with OpenStore, warm-start a SweepCache from it with
	// SweepCache.WarmStart, and attach it as the cache's write-behind sink
	// with SweepCache.Persist.
	VerdictStore = store.Store
	// StoreOptions configures OpenStore (shards, fsync batching).
	StoreOptions = store.Options
	// StoreRecord is one persisted verdict.
	StoreRecord = store.Record
	// StoreStats is a store observability snapshot.
	StoreStats = store.Stats
	// SweepCacheStats is a cache observability snapshot (entries plus
	// lifetime hits and misses).
	SweepCacheStats = sweep.CacheStats
	// SweepCheckpoint is the durable grid spec + progress of a resumable
	// sweep, saved in a store via VerdictStore.SaveCheckpoint.
	SweepCheckpoint = sweep.Checkpoint
	// ServerConfig configures NewServer.
	ServerConfig = server.Config
	// Server is the HTTP serving daemon behind `bncg serve`: /v1/sweep
	// (NDJSON streaming), /v1/poa, /v1/check and /healthz.
	Server = server.Server
)

var (
	// OpenStore opens (creating if necessary) a verdict store directory,
	// recovering cleanly from torn tails left by a crash.
	OpenStore = store.Open
	// NewServer returns the HTTP daemon for a config.
	NewServer = server.New
	// NewSweepCheckpoint captures a sweep grid and its progress for
	// VerdictStore.SaveCheckpoint / `bncg sweep -resume`.
	NewSweepCheckpoint = sweep.NewCheckpoint
)

// Parametric α-interval certificates (v5): one stability pass per state
// answers every edge price.
type (
	// AlphaSet is the exact set of edge prices at which one state is
	// stable for one concept — a sorted union of disjoint rational
	// intervals over [0, ∞) with an O(log B) Contains query, exact
	// Breakpoints, and a stable string form.
	AlphaSet = eq.AlphaSet
	// AlphaInterval is one interval of an AlphaSet, with open/closed
	// endpoint flags and an optional +∞ upper bound.
	AlphaInterval = eq.AlphaInterval
	// AlphaRat is an exact rational α-axis endpoint (or +∞).
	AlphaRat = eq.Rat
	// SweepConceptCritical is one concept's exact critical-price row in
	// SweepResult.Critical: the sorted rational α values at which any
	// enumerated class's verdict flips.
	SweepConceptCritical = sweep.ConceptCritical
	// StoreCertRecord is one persisted certificate; StoreInterval its
	// interval form. One certificate record subsumes a whole per-α row of
	// StoreRecord verdicts (VerdictStore.Compact folds them).
	StoreCertRecord = store.CertRecord
	// SweepCertKey identifies a memoized certificate: canonical form and
	// concept — no price, that is the point.
	SweepCertKey = sweep.CertKey
)

var (
	// Certify computes the exact stable-α set of a state for a concept in
	// one deviation pass; Evaluator.Certify/CertifyBound are the reusable
	// hot-path forms the sweep engine runs on.
	Certify = eq.Certify
	// FullAlphaSet is [0, ∞): stable at every price.
	FullAlphaSet = eq.FullAlphaSet
	// AlphaSetOf validates and builds an AlphaSet from sorted disjoint
	// intervals (the persistence path).
	AlphaSetOf = eq.AlphaSetOf
)

// Distributed sweep fleet (v7): lease-based coordinator/worker sharding of
// the pruned class stream with store-shard merge.
type (
	// FleetTable is the durable lease table of one fleet run: the sweep
	// grid plus per-range owner, heartbeat deadline, fencing epoch and
	// completion state. It generalizes SweepCheckpoint from one process's
	// progress to a fleet's.
	FleetTable = fleet.Table
	// FleetRange is one contiguous [start, end) slice of the class stream
	// and its lease state.
	FleetRange = fleet.Range
	// FleetLease is a worker's claim on one range — the fencing handle
	// every heartbeat and completion must present.
	FleetLease = fleet.Lease
	// FleetProgress summarizes a table (pending/leased/done/reclaims).
	FleetProgress = fleet.Progress
	// FleetWorkerOptions configures RunFleetWorker.
	FleetWorkerOptions = fleet.WorkerOptions
	// FleetWorkerStats summarizes one worker's run.
	FleetWorkerStats = fleet.WorkerStats
	// StoreIngestStats summarizes one shard merge (VerdictStore.Ingest).
	StoreIngestStats = store.IngestStats
	// StoreInterval is one exact α interval of a persisted certificate.
	StoreInterval = store.Interval
	// StoreKey and StoreCertKey identify persisted verdicts and
	// certificates.
	StoreKey     = store.Key
	StoreCertKey = store.CertKey
	// StoreSegmentStat is one segment's bytes and frame count
	// (VerdictStore.SegmentStats) — the shard-skew view of `store stats`.
	StoreSegmentStat = store.SegmentStat
)

// SweepCheckpointVersion is the current checkpoint/lease-table schema
// generation; unversioned (pre-fleet) checkpoints still load.
const SweepCheckpointVersion = sweep.CheckpointVersion

// Fleet directory conventions: the lease table's file name and the
// subdirectory workers default their store shards under.
const (
	FleetTableFile = fleet.TableFile
	FleetShardsDir = fleet.ShardsDir
)

// ErrFleetLeaseLost reports a fenced-off lease: the range was reclaimed
// after heartbeat expiry, and the previous owner must abandon it.
var ErrFleetLeaseLost = fleet.ErrLeaseLost

var (
	// PlanFleet counts the pruned class stream of a grid and cuts it into
	// contiguous lease ranges.
	PlanFleet = fleet.Plan
	// CreateFleet persists a freshly planned lease table; LoadFleet reads
	// one back; ReclaimFleet returns expired leases to pending.
	CreateFleet  = fleet.Create
	LoadFleet    = fleet.Load
	ReclaimFleet = fleet.Reclaim
	// ClaimFleetRange grants the first claimable range to an owner — the
	// primitive RunFleetWorker loops on.
	ClaimFleetRange = fleet.Claim
	// RunFleetWorker claims and certifies ranges against a private store
	// shard until the fleet's table is fully done.
	RunFleetWorker = fleet.RunWorker
	// CountSweepClasses counts the isomorphism classes of a sweep source's
	// pruned stream — the fleet coordinator's planning pass.
	CountSweepClasses = sweep.CountClasses
)

// Iterator enumeration (v2). Both iterators support early break, which
// stops the underlying generation immediately.
var (
	// AllGraphs returns an iterator over the graphs on n nodes matching
	// the enumeration options, paired with canonical keys under UpToIso.
	AllGraphs = graph.All
	// AllFreeTrees returns an iterator over the free trees on n nodes (one
	// representative per isomorphism class), paired with canonical keys.
	AllFreeTrees = graph.AllFreeTrees
	// AllGraphClasses and AllFreeTreeClasses (v4) are the class-level
	// enumerations: one representative per isomorphism class together with
	// its canonical key and orbit size n!/|Aut|. Non-minimal labelings are
	// skipped by early symmetry pruning rather than canonicalized and
	// deduplicated.
	AllGraphClasses    = graph.AllClasses
	AllFreeTreeClasses = graph.AllFreeTreeClasses
)

// EnumOptions controls AllGraphs enumeration.
type EnumOptions = graph.EnumOptions

// GraphClass describes one isomorphism class yielded by AllGraphClasses or
// AllFreeTreeClasses: canonical key plus orbit size.
type GraphClass = graph.Class

// Zero-allocation checking (v4).
type (
	// Evaluator is a reusable equilibrium evaluator: BFS scratch, baseline
	// costs and deviation-scan buffers persist across calls, so stability
	// checks at sweep sizes allocate nothing. Not safe for concurrent use;
	// give each goroutine its own.
	Evaluator = eq.Evaluator
	// BFSScratch holds reusable traversal buffers for
	// Graph.BFSScratchInto.
	BFSScratch = graph.BFSScratch
)

// NewEvaluator returns an Evaluator for use by a single goroutine.
var NewEvaluator = eq.NewEvaluator

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
// or context cancellation (which returns the partial trace). A nil
// Options.Rng defaults to a fixed-seed source.
var RunDynamics = dynamics.Run

// Incremental dynamics + stochastic simulation (v10).
type (
	// DynamicsScheduler selects the candidate-scan policy of a dynamics
	// run: uniform (the zero value), round-robin, or breakpoint-guided.
	DynamicsScheduler = dynamics.Scheduler
	// IncDist maintains all-pairs shortest-path distances of a graph under
	// single edge toggles, repairing only the affected region per change.
	IncDist = graph.IncDist
	// SimOptions configures a simulation batch: n, α grid, trajectories
	// per α, init families, move set, scheduler and determinism seed.
	SimOptions = sim.Options
	// SimResult is a finished (or cancelled) simulation batch.
	SimResult = sim.Result
	// SimTrajectory reports one dynamics run and its final topology.
	SimTrajectory = sim.Trajectory
	// SimAlphaSummary aggregates the trajectories of one grid price.
	SimAlphaSummary = sim.AlphaSummary
	// SimInit selects an initial-state family (ER, tree, star).
	SimInit = sim.Init
)

// The dynamics schedulers.
const (
	SchedulerUniform    = dynamics.SchedulerUniform
	SchedulerRoundRobin = dynamics.SchedulerRoundRobin
	SchedulerBreakpoint = dynamics.SchedulerBreakpoint
)

var (
	// ParseScheduler parses a scheduler name ("uniform", "roundrobin",
	// "breakpoint-guided", ...).
	ParseScheduler = dynamics.ParseScheduler
	// NewIncDist builds the incremental-distance state of g with one BFS
	// per source; mutate the graph only through the returned kernel.
	NewIncDist = graph.NewIncDist
	// Simulate runs a batch of dynamics trajectories across an α grid with
	// deterministic per-trajectory seeding and in-order streaming.
	Simulate = sim.Run
	// ParseSimInits parses an init-family selector (er|tree|star|all).
	ParseSimInits = sim.ParseInits
	// SimTrajectorySeed derives the deterministic seed of one trajectory.
	SimTrajectorySeed = sim.TrajectorySeed
	// RandomGNP, RandomConnectedGNP and RandomStar sample the simulation
	// initial-state families (seeded, reproducible).
	RandomGNP          = graph.RandomGNP
	RandomConnectedGNP = graph.RandomConnectedGNP
	RandomStar         = graph.RandomStar
)

// Experiments.
type (
	// ExperimentReport is the outcome of a paper-reproduction experiment.
	ExperimentReport = experiments.Report
	// ExperimentScale selects Quick or Full runs.
	ExperimentScale = experiments.Scale
)

// Experiment scales.
const (
	Quick = experiments.Quick
	Full  = experiments.Full
)

var (
	// Experiment runs the reproduction experiment with the given ID (see
	// DESIGN.md §4 for the inventory). Cancelling the context returns the
	// partial report with ctx.Err().
	Experiment = experiments.Run
	// ExperimentIDs lists all experiment IDs.
	ExperimentIDs = experiments.IDs
)

// Game variants (v9): one certificate engine, many games. A GameVariant
// describes which game the engine evaluates — consent mode, distance
// aggregate, per-agent price multipliers — and threads through
// Game.Variant, SweepOptions.Variant, store records and the /v1/*
// `variant` query parameter. The zero value is the paper's default model
// and behaves (and persists, and serializes) exactly as before.
type (
	// GameVariant is the first-class variant descriptor.
	GameVariant = game.Variant
	// VariantConsent selects who must agree to an edge change.
	VariantConsent = game.Consent
	// VariantDistMode selects the distance aggregate of the cost.
	VariantDistMode = game.DistMode
	// VariantAgentPrice is one agent's exact rational price multiplier.
	VariantAgentPrice = game.AgentPrice
)

// The consent modes and distance aggregates. The zero values —
// ConsentBilateral, DistSum — are the paper's model.
const (
	ConsentBilateral  = game.ConsentBilateral
	ConsentUnilateral = game.ConsentUnilateral
	DistSum           = game.DistSum
	DistMax           = game.DistMax
)

var (
	// NewVariant validates and builds a variant descriptor.
	NewVariant = game.NewVariant
	// ParseVariant parses the canonical descriptor grammar
	// ("unilateral", "max", "mul:U=P/Q", comma-joined; "" is the
	// default variant). GameVariant.Key is its inverse.
	ParseVariant = game.ParseVariant
	// UnilateralNCGVariant is the unilateral NCG of the related-work
	// baseline as a variant descriptor: the promotion of internal/ncg
	// onto the shared certificate engine.
	UnilateralNCGVariant = ncg.UnilateralVariant
	// CheckUnilateralAE checks an ownership-free adjacency equilibrium
	// of the unilateral NCG (routes through the variant engine).
	CheckUnilateralAE = eq.CheckUnilateralAE
)

// SchemaVersion is the generation stamp every public JSON payload carries
// as "schema_version": sweep results, /v1/* bodies and the CLI's -json
// outputs alike.
const SchemaVersion = sweep.SchemaVersion

// Compute-plane observability (v8): NDJSON span tracing, the shared
// hand-rolled Prometheus registry, sidecar metrics/pprof listeners, and
// the trace analyzer behind `bncg trace`.
type (
	// Tracer is the append-only NDJSON span/event writer threaded through
	// sweep, store and fleet via their Options.Trace fields. A nil
	// *Tracer is a valid disabled tracer.
	Tracer = obs.Tracer
	// TracerOptions configures NewTracer (source id, injectable clock).
	TracerOptions = obs.TracerOptions
	// TraceAttrs carries span/event attributes.
	TraceAttrs = obs.Attrs
	// TraceData is the parsed, merged content of one or more trace files.
	TraceData = obs.Trace
	// TraceReport is the analyzer output: stage breakdown, slowest
	// classes, per-worker timeline lanes and wall-clock coverage.
	TraceReport = obs.Report
	// MetricsRegistry is the ordered Prometheus text-exposition registry
	// shared by the serving daemon and the compute sidecars.
	MetricsRegistry = obs.Registry
	// ComputeMetrics bundles the compute-plane instruments served on a
	// worker/sweep sidecar listener. A nil *ComputeMetrics is valid.
	ComputeMetrics = obs.ComputeMetrics
	// MetricsSidecar is the optional -metrics-addr listener.
	MetricsSidecar = obs.Sidecar
)

var (
	// NewTracer wraps a writer; CreateTrace opens (appending) a trace
	// file. Both stamp every frame with the source id.
	NewTracer   = obs.NewTracer
	CreateTrace = obs.CreateTrace
	// ReadTraceFiles parses and merges NDJSON trace files strictly;
	// AnalyzeTrace aggregates the merged trace into a TraceReport.
	ReadTraceFiles = obs.ReadTraceFiles
	AnalyzeTrace   = obs.Analyze
	// NewComputeMetrics builds the sidecar instrument bundle.
	NewComputeMetrics = obs.NewComputeMetrics
	// StartMetricsSidecar serves a registry's /metrics (and optionally
	// pprof) on addr until Close.
	StartMetricsSidecar = obs.StartSidecar
	// LintExposition validates Prometheus text-exposition output
	// structurally (name charsets, TYPE consistency, histogram
	// monotonicity) — exported for tests of metrics surfaces.
	LintExposition = obs.LintExposition
)
