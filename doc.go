// Package bncg is a library for the Bilateral Network Creation Game of
// Corbo and Parkes, reproducing "The Impact of Cooperation in Bilateral
// Network Creation" (Friedrich, Gawendowicz, Lenzner, Zahn; PODC 2023).
//
// Agents are nodes of an undirected graph; an edge exists only if both
// endpoints pay the edge price α for it. Each agent minimizes
// α·(edges bought) + Σ_v dist(u, v). The library provides:
//
//   - exact, witness-producing equilibrium checkers for every solution
//     concept of the paper: RE, BAE, PS, BSwE, BGE, BNE, k-BSE and BSE,
//     plus the unilateral NCG's RE/AE/NE for the Section 2 comparisons;
//   - exact rational cost arithmetic (no floating point in stability
//     decisions) with the paper's disconnection semantics;
//   - the lower-bound constructions: stretched binary trees, stretched
//     tree stars, d-ary trees, cycles and the witness gadgets of
//     Figures 2 and 5–8;
//   - Price-of-Anarchy machinery: closed-form bounds of Sections 3.2–3.3
//     and exhaustive worst-case search over all small trees and graphs;
//   - a parallel sweep engine (RunSweep) that shards the isomorphism-free
//     enumeration streams across a worker pool and memoizes stability
//     verdicts in a canonical-form cache; the exhaustive experiments and
//     the PoA searches run on it, and a differential test harness pins its
//     vectors to the sequential checkers bit for bit (see EXPERIMENTS.md);
//   - improving-response dynamics converging to PS/BGE states;
//   - one experiment runner per table row and figure of the paper
//     (package repro/internal/experiments, surfaced via Experiment);
//   - a persistent verdict store (OpenStore) and an HTTP serving daemon
//     (NewServer, `bncg serve`) that turn the sweep cache into a durable,
//     network-served resource — see "The v3 API" below.
//
// # Quick start
//
//	gm, _ := bncg.NewGame(6, bncg.Alpha2(3, 1)) // 6 agents, α = 3
//	star := bncg.Star(6)
//	res := bncg.Check(gm, star, bncg.PS)        // res.Stable == true
//	rho := gm.Rho(star)                          // 1.0: the social optimum
//
// # The v2 API: contexts, iterators, streaming
//
// Every long-running entry point takes a context.Context as its first
// argument: RunSweep, StreamSweep, WorstTree, WorstGraph, Experiment and
// RunDynamics. The context contract is uniform:
//
//   - Cancellation is honored within one task granularity (one (α, graph)
//     stability evaluation for sweeps and PoA searches, one improving move
//     for dynamics). Workers drain without leaking goroutines.
//   - On cancellation the partial result computed so far is returned
//     together with ctx.Err(): a sweep's Result has Completed < len(Items)
//     with the finished entries filled in, a PoAResult reduces the
//     completed portion, a dynamics Trace holds the moves applied, and an
//     Experiment report contains the rows produced before the cut.
//   - A nil context is treated as context.Background().
//
// Enumeration is iterator-first: AllGraphs and AllFreeTrees return
// iter.Seq2[*Graph, string] (graph, canonical key) sequences supporting
// early break, which stops the underlying generation immediately. The
// callback enumerators of v1 remain as thin shims over them.
//
// Streaming: StreamSweep (or SweepOptions.OnItem under RunSweep) delivers
// sweep items incrementally in exactly the deterministic α-major order of
// SweepResult.Items — byte-identical at every worker count — while workers
// keep computing ahead; SweepOptions.Progress reports completed/total task
// counts. SweepResult and ExperimentReport marshal to stable JSON (exact
// rational α strings, concept names, snake_case keys), which `bncg sweep
// -json`, `bncg experiment -json` and `bncg poa -json` expose on the
// command line.
//
// # The v3 API: persistence and serving
//
// Stability verdicts are pure functions of (canonical form, exact α,
// concept), so the in-memory sweep cache extends naturally to disk and to
// the network:
//
//   - OpenStore opens an append-only, sharded, CRC-framed verdict store.
//     SweepCache.WarmStart replays it into a cache at startup and
//     SweepCache.Persist registers it as the cache's write-behind sink, so
//     every verdict any sweep, PoA search or check computes becomes
//     durable (fsync-batched) and pre-warms every later run — the ~121×
//     warm-replay win across processes and machines. The store recovers
//     from crashes by truncating torn segment tails; Compact rewrites
//     segments dropping superseded frames.
//   - `bncg sweep -store <dir>` wires all of that up on the command line
//     and checkpoints grid progress (VerdictStore.SaveCheckpoint);
//     `bncg sweep -store <dir> -resume` continues an interrupted grid from
//     the checkpoint and finishes with byte-identical Items and Report.
//   - NewServer / `bncg serve` expose the engine over HTTP: /v1/sweep
//     streams items as NDJSON in the deterministic StreamSweep order,
//     /v1/poa answers Price-of-Anarchy searches, /v1/check verdicts an
//     uploaded graph, and /healthz reports cache (SweepCache.Stats),
//     store and traffic statistics. Identical in-flight requests are
//     deduplicated (singleflight); a request abandoned by every client is
//     cancelled and its workers drain. Per-request deadlines and n caps
//     ride on the v2 context plumbing.
//
// # The v4 hot path: bitset kernel, symmetry pruning, benchmark gating
//
// Everything the engine computes bottoms out in BFS distance sums and
// deviation scans, so v4 rebuilt that layer:
//
//   - Graphs up to 512 nodes maintain a dense []uint64 bitset mirror of
//     their adjacency alongside the sorted neighbor lists. BFS frontiers
//     advance word-at-a-time, edge queries are a single AND, and
//     Graph.BFSScratchInto traverses with caller-owned scratch. The
//     equilibrium checkers scan deviations by mutating edges in place with
//     per-Evaluator scratch buffers: a stability check at sweep sizes
//     allocates nothing (a NewEvaluator can be bound to a state with Bind
//     and queried per concept with CheckBound; Evaluator.Rho is the
//     allocation-free social-cost ratio).
//   - Enumeration is symmetry-pruned: AllGraphClasses and
//     AllFreeTreeClasses yield one representative per isomorphism class —
//     the same representative, in the same order, as ever — by rejecting
//     non-minimal labelings with an early-aborting automorphism search
//     instead of canonicalizing and deduplicating every labeled graph,
//     and report each class's orbit size n!/|Aut| (GraphClass).
//   - The performance trajectory in BENCH_sweep.json (a JSON array of
//     recorded `go test -bench` runs; see cmd/benchjson) is enforced by
//     CI: `benchjson -compare old.json new.json -max-regress 25%` diffs
//     the latest entries per benchmark and fails the build past the
//     threshold, so ns/op and allocs/op regressions on the sweep and
//     store hot paths cannot land silently.
//
// # The v5 engine: parametric α-interval certificates
//
// Every verdict in the paper's Table 1 is a threshold phenomenon: costs
// compare by the α-linear form num·Buy + den·Dist, so each deviation
// improves its actors on exactly one rational α-interval (breakpoint
// α* = −ΔDist/ΔBuy), and a state's stable-α set is the complement of a
// finite interval union. v5 computes that object directly:
//
//   - Certify (and Evaluator.Certify/CertifyBound) run the deviation
//     scans once, collecting each deviation's improving interval in exact
//     int64 rational arithmetic, and return an AlphaSet: sorted disjoint
//     intervals over [0, ∞) with open/closed endpoints (stable sets are
//     closed at breakpoints — indifference is stability — and may be
//     degenerate single prices), an O(log B) Contains query, and exact
//     Breakpoints. A scan aborts early once the improving union covers
//     the whole axis.
//   - RunSweep is certificate-backed: the task unit is one graph class,
//     one certificate per concept answers the entire α-grid, and
//     per-class equilibrium work is independent of grid density
//     (BenchmarkSweepGridScaling: a 64-point cold grid costs the same as
//     a 4-point one). SweepResult gains Certs, Certified and Critical —
//     the exact rational thresholds at which each concept's Table 1 row
//     flips — rendered by Result.CriticalReport, `bncg sweep -exact`, the
//     new `bncg critical` subcommand and the /v1/critical endpoint.
//   - The verdict store persists certificate records alongside legacy
//     per-α verdicts (one record per class and concept instead of one per
//     grid point); WarmStart replays both — certificates warm the sweep
//     engine, per-α verdicts warm /v1/check (sweeps over a pre-v5 store
//     re-certify once, then run from certificates) — `store stats`
//     reports counts per record type, and Compact folds verdict rows
//     subsumed by a certificate. /v1/check answers any α — gridded or
//     not — from a cached certificate.
//   - FuzzCertificateAgreement pins Certify(...).Contains(α) to the
//     per-α checkers over a dense rational grid including every
//     certificate's own breakpoints and their midpoints.
//
// # v6: the production-hardened daemon
//
// bncg serve graduates from a demo front end to an operable service,
// proven by an in-repo load-test harness:
//
//   - GET /metrics exposes hand-rolled Prometheus text exposition (no
//     client dependency): per-route request counters by status code,
//     per-route latency histograms (100µs–10s buckets), in-flight and
//     queue gauges, admission rejections by reason, the cache hit ratio,
//     singleflight and store statistics, and replica re-warm counters.
//   - Admission control sheds load before work starts: per-client
//     token-bucket rate limiting (-rate/-burst, keyed by remote IP), a
//     global concurrent-request cap with a bounded FIFO queue
//     (-max-inflight/-max-queue/-queue-wait). Over-budget clients get an
//     immediate 429 with Retry-After, a full queue a fast 429, an expired
//     queue wait a 503 — all in the pinned JSON error schema
//     {"error": "...", "status": N} that every endpoint's every failure
//     mode now shares. /healthz and /metrics bypass admission, so a
//     saturated daemon stays observable.
//   - bncg serve -readonly is a read replica: it opens the shared store
//     directory without the single-writer flock, warm-starts, and
//     re-warms on a ticker (-rewarm-interval) via Store.Refresh — an
//     incremental decode of exactly the frames the writer flushed since
//     the last pass, tolerating torn tails (retried next tick) and
//     writer compactions (detected by segment shrink, full rebuild).
//     Verdicts and certificates are pure functions of their keys, so
//     replicas converge without any invalidation protocol; the replica
//     answers byte-identically to the writer for every persisted
//     (class, concept, α).
//   - cmd/loadgen is a wrk-style HTTP driver (concurrency, duration or
//     request budget, latency percentiles, JSON summaries) and
//     BenchmarkServeCheck* measure the certified-cache /v1/check hot
//     path end to end over HTTP; their trajectory lives in BENCH_http.json
//     and is gated in CI next to the sweep benchmarks, after a loadgen
//     smoke against the real booted daemon.
//   - The store grew a fault-injection seam (Options.WrapSegmentWriter):
//     failing write/sync paths drive the flush-failure accounting that
//     /healthz surfaces as "degraded" — the daemon serves stale from
//     memory and recovers losslessly once the fault heals.
//
// # v7: the distributed sweep fleet
//
// One process per grid stops scaling at n=7 (853 connected classes, nine
// exponential-checker concepts), so v7 shards the sweep across processes:
//
//   - The pruned class stream is deterministic, so a contiguous position
//     range [start, end) is a well-defined unit of work:
//     SweepOptions.ClassStart/ClassEnd restrict a sweep to one range and
//     CountSweepClasses prices a grid without materializing it.
//   - internal/fleet is lease-based coordination over a shared directory:
//     PlanFleet cuts the stream into ranges and persists a lease table
//     (fleet.json, flock-guarded atomic read-modify-write — the same
//     discipline as the store's checkpoint). Each range carries owner,
//     epoch and heartbeat deadline; ClaimFleetRange grants the first
//     pending or expired range (stealing bumps the epoch, so a stalled
//     owner's later heartbeat or completion fails with ErrFleetLeaseLost
//     instead of corrupting a successor's work), and ReclaimFleet returns
//     expired leases to the pool.
//   - `bncg worker` (RunFleetWorker) loops claim → certify → flush own
//     store shard → complete, heartbeating at TTL/3 in the background.
//     The flush lands before the completion mark, so a done range is a
//     durable range; a worker killed mid-lease costs only the TTL wait.
//   - `bncg fleet` is the coordinator: plan once, then monitor and
//     reclaim until done; `bncg store merge` folds the shards into one
//     canonical store via VerdictStore.Ingest — certificates are pure
//     functions of (class, concept), so overlap from reclaimed ranges
//     folds as duplicates while any contradiction fails the merge loudly.
//     `bncg store dump` renders a store in deterministic order, making
//     "merged fleet ≡ single process" a byte-diff; CI runs that drill,
//     plus a kill -9 variant, on every push.
//   - The checkpoint schema is now versioned (SweepCheckpointVersion):
//     the lease table embeds the grid spec as a Checkpoint, legacy
//     unversioned checkpoints still resume, and future generations are
//     rejected instead of misread.
//
// # v8: compute-plane observability
//
// The fleet made "where does the time go?" a distributed question, so v8
// adds internal/obs, a zero-dependency observability layer threaded
// through the whole compute plane:
//
//   - Span tracing: Tracer appends NDJSON frames (one header, then spans
//     and events) with a deterministic schema — hand-built field order,
//     sorted attribute keys, microsecond timestamps — so a fixed-seed
//     single-worker sweep replays byte-identically (pinned by test). The
//     sweep engine records enumerate/class/certify/cache_write spans, the
//     store records flush/checkpoint/compact, and the fleet worker records
//     warmstart/claim/wait/range/complete plus heartbeats and steal
//     events. `-trace <file>` on sweep, worker, and fleet turns it on;
//     a nil Tracer costs one pointer check per class (the attr maps are
//     only built when a frame will be written — gated in BENCH_sweep.json).
//   - `bncg trace` reads one or more trace files (shards merge by source)
//     under a strict parser — unknown fields, missing attrs, and bad
//     frames are loud per-line errors, which is what the nightly schema
//     gate relies on — and reports inclusive stage totals, the top-K
//     slowest classes with per-concept certify durations, and a
//     per-worker timeline whose lanes are union-of-intervals busy time
//     with steals marked; `-json` emits the full TraceReport.
//   - Worker metrics: the hand-rolled Prometheus registry moved out of
//     internal/server into obs (counters, labeled vectors, gauges,
//     histograms; text exposition 0.0.4), and ComputeMetrics instruments
//     the sweep/fleet plane: classes certified and cached, certify
//     latency histogram, cache hits/misses, store flush bytes/failures,
//     and live lease epoch/deadline gauges. `bncg sweep` and
//     `bncg worker` serve the same exposition on a `-metrics-addr`
//     sidecar; `-pprof` mounts net/http/pprof there, and on the serve
//     daemon (where profiler routes pass through admission like any
//     other). LintExposition validates every HELP/TYPE/sample line —
//     name charsets, type consistency, histogram bucket monotonicity and
//     cumulativity — and both the server's /metrics and the compute
//     exposition must pass it in tests.
//   - `bncg fleet status` is a read-only, lock-free snapshot of the lease
//     table (pending/leased/done per range, owners, deadlines, reclaim
//     counts) safe to run against a live fleet directory, with `-json`.
//
// # v9: one certificate engine, many games
//
// Every layer below assumed the paper's exact rules: bilateral consent,
// SUM distances, one price for everyone. v9 turns those rules into data.
// GameVariant is a value descriptor — consent mode
// (ConsentBilateral/ConsentUnilateral), distance aggregate
// (DistSum/DistMax), and per-agent price multipliers — whose zero value
// is the paper's game, threaded through the whole stack:
//
//   - The equilibrium engine takes the variant on game.Game; eq.Check and
//     eq.Certify evaluate deviations under the variant's consent rule,
//     aggregate distances by SUM or eccentricity, and scale each agent's
//     buy cost by its multiplier — certificates stay exact rationals
//     (under DistMax, fractional critical prices like α = 1/3 are real;
//     see EXPERIMENTS.md).
//   - ParseVariant gives the descriptor one textual grammar —
//     "unilateral", "max", "mul:AGENT=P/Q", comma-joined — used by the
//     -variant flag on sweep/critical/serve/fleet/worker (one shared
//     flag-set helper defines it once) and the ?variant= query parameter
//     on /v1/check, /v1/critical and /v1/sweep; serve -variant sets the
//     daemon's default, requests override per call.
//   - The sweep cache and verdict store key records by variant. Non-default
//     records persist as extended frames (codec version 2); legacy frames
//     decode as the default variant, default-variant writes still emit
//     byte-identical legacy frames, and cross-variant stores merge safely
//     because the variant is part of every record identity.
//   - internal/ncg's independently-written unilateral NCG, formerly only a
//     differential-testing oracle, is now a shim over the unilateral
//     variant — and the variant is the engine's own implementation, swept,
//     certified, persisted and served like the paper's game.
//
// The compatibility contract is byte-exact and machine-enforced: at the
// default variant every output — text reports, JSON modulo the new
// schema_version/variant fields (SchemaVersion stamps every public JSON
// payload), store frames, dumps — matches the pre-variant binary, pinned
// by a golden differential harness in tier-1 and fuzzed at the codec and
// engine layers.
//
// # v10: incremental-distance dynamics and the large-n stochastic workload
//
// Enumeration certifies every class exactly and dies at n≈7. v10 adds the
// complementary instrument: sampling. Improving-response dynamics run to
// their fixed points (exactly the PS/BGE states for the chosen move set)
// from random initial states at n = 50–500, where the bottleneck was the
// old engine's fresh BFS per candidate probe.
//
//   - graph.IncDist is an incremental all-pairs distance kernel: n int32
//     rows plus per-source aggregates (finite-distance sum, unreachable
//     count), repaired under single edge toggles instead of recomputed.
//     Adds repair by a pruned partial BFS wave from the improved endpoint;
//     removals use a Ramalingam–Reps style two-phase repair (level-ordered
//     affected-set cascade, then a bucket-queue unit-Dijkstra seeded from
//     the unaffected boundary). Repairs touching more than a threshold of
//     nodes fall back to a fresh BFS of that row. Correctness is pinned
//     differentially: a table test, a randomized toggle test, and
//     FuzzIncrementalDistance compare every repaired row against fresh
//     BFS after every toggle (CI smoke + nightly rotation).
//   - internal/dynamics now probes candidates through the kernel. A removal
//     or swap probe flips the edge, repairs only the actors' rows, reads
//     costs from aggregates, and flips back. An edge purchase touches
//     nothing: each endpoint's post-purchase row is the elementwise
//     min(d(a,·), 1+d(b,·)) of two live rows, so one pass prices it. Most
//     probes at high α are non-improving adds; pricing them in closed form
//     made BenchmarkSimulateBatch 2.9× faster (BENCH_sim.json) and the
//     breakpoint scheduler 5.5× faster at n=50 (EXPERIMENTS.md). Candidate
//     scans reuse a persistent pair pool (zero allocations
//     at steady state, pinned by test), and three schedulers pick the scan
//     policy — uniform, round-robin, and a breakpoint-guided scheduler
//     that commits the move whose improving α-interval (via eq.Certify's
//     interval arithmetic) has maximal margin around the current price.
//     The uniform scheduler draws each step's random pair order lazily, a
//     forward Fisher–Yates that fixes position k just before probing it:
//     a step that commits the k-th pair it examines costs k rng.Intn
//     draws, not a full shuffle of all n(n−1)/2 pairs, and the committed
//     pair is still uniform over the improving pairs (pinned by a draw
//     count and a chi-square test).
//     The old evaluator path survives verbatim in the package's tests as
//     the differential oracle and benchmark baseline: ~9× more ns/op and
//     ~4000× more allocs/op at n=256 (BENCH_sim.json, gated ≥5× in CI).
//   - internal/sim batches trajectories across an α grid from seeded
//     random initial states (connectivity-patched Erdős–Rényi, uniform
//     Prüfer trees, stars): per-trajectory seeds derive via a splitmix64
//     finalizer from (base seed, grid coordinates), workers run in
//     parallel, and results stream in global index order — the report is
//     a pure function of the options, byte-identical at any worker count
//     (gated in CI by run-twice diffs). Per-α summaries aggregate
//     convergence steps (mean/p50/p95/max), final-topology statistics
//     (edges, diameter, tree/star shares) and ρ against the social
//     optimum.
//   - `bncg simulate` is the CLI face (α grid, trajectories, init family,
//     ps|bge move set, scheduler, seed, -json, the usual -trace and
//     -metrics-addr sidecar); GET /v1/simulate streams the same batch as
//     NDJSON under the daemon's admission control, with MaxSimN and
//     MaxTrajectories caps and per-route metrics. Four instrument
//     families record trajectory outcomes, step counts, latencies and
//     scan depth (bncg_sim_pairs_examined_total, from
//     dynamics.Trace.PairsExamined). sim.Options.Resolve is the one
//     place batch defaults are applied; Run and the /v1/simulate header
//     both echo its Params.
//
// See the examples directory for runnable programs and EXPERIMENTS.md for
// the recorded reproduction results, the file format of the verdict
// store, the NDJSON/JSON schemas of the serving endpoints, the
// before/after numbers of the v4 kernel, the exact critical-α tables
// of the v5 certificate engine, the n=7 fleet sweep recipe, the traced
// stage breakdowns of the v8 observability layer, the v9 unilateral
// and MAX-distance editions of Table 1, and the v10 sampled
// convergence-step and equilibrium-topology distributions beyond
// enumeration reach.
package bncg
