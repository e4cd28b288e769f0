// Package bncg is a library for the Bilateral Network Creation Game of
// Corbo and Parkes, reproducing "The Impact of Cooperation in Bilateral
// Network Creation" (Friedrich, Gawendowicz, Lenzner, Zahn; PODC 2023).
//
// Agents are nodes of an undirected graph; an edge exists only if both
// endpoints pay the edge price α for it. Each agent minimizes
// α·(edges bought) + Σ_v dist(u, v). This package is the paper's model and
// nothing else:
//
//   - exact, witness-producing checks (Check) for every solution concept
//     of the paper, in order of increasing cooperation: RE, BAE, PS, BSwE,
//     BGE, BNE, 2-BSE, 3-BSE and BSE, plus Improving for a single move and
//     CheckUnilateralNE for the Fabrikant et al. NCG under a given edge
//     Ownership, the baseline of the Section 2 comparisons;
//   - exact rational prices (Alpha, NewAlpha, AlphaInt, Alpha2) and
//     lexicographic costs (Cost), so no stability decision touches
//     floating point;
//   - graphs in the plain text edge-list format ("n <count>" then one
//     "u v" pair per line: DecodeGraph, EncodeGraph), the social optima
//     (Star, Clique), the baseline families (Path, Cycle), the tree-star
//     lower-bound family (NewTreeStar) and the witness gadgets of the
//     paper's figures;
//   - Price-of-Anarchy searches over all free trees (WorstTree, with
//     TreeRho for a single tree), memoized across calls in a SweepCache;
//   - improving-response dynamics (RunDynamics) over the move families
//     RemoveKind, AddKind and SwapKind;
//   - one reproduction experiment per table row and figure of the paper
//     (Experiment, ExperimentIDs).
//
// # Quick start
//
//	gm, _ := bncg.NewGame(6, bncg.AlphaInt(3)) // 6 agents, α = 3
//	star := bncg.Star(6)
//	res := bncg.Check(gm, star, bncg.PS)       // res.Stable == true
//	rho := gm.Rho(star)                         // 1.0: the social optimum
//
// # Contexts
//
// WorstTree, RunDynamics and Experiment take a context.Context first. On
// cancellation the partial result computed so far is returned together
// with ctx.Err(): a PoAResult reduces the completed portion, a
// DynamicsTrace holds the moves applied, and an ExperimentReport holds
// the rows produced before the cut.
//
// # Beyond the model
//
// The engine behind these entry points — the certificate sweep over
// isomorphism classes, the persistent certificate store, the distributed
// fleet, the HTTP daemon, the large-n simulation workload and the trace
// analyzer — lives in internal packages and is driven by the bncg
// command. Its package documentation (cmd/bncg) describes the sweep,
// critical, store, fleet, worker, serve, simulate and trace subcommands.
//
// See the examples directory for runnable programs and EXPERIMENTS.md for
// the recorded reproduction results, the certificate store's file
// format, the JSON schemas of the serving endpoints and the measured
// performance of each engine layer.
package bncg
