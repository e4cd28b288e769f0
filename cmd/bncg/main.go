// Command bncg is the CLI for the Bilateral Network Creation Game library:
// it generates the paper's graph families, checks equilibrium concepts,
// computes costs and Price-of-Anarchy searches, and runs the
// paper-reproduction experiments.
//
// Usage:
//
//	bncg [-timeout <d>] list
//	bncg [-timeout <d>] experiment <id>|all [-full] [-json]
//	bncg [-timeout <d>] gen <family> [params...]
//	bncg [-timeout <d>] check -alpha <p[/q]> [-concept <name>] [-file <graph>]
//	bncg [-timeout <d>] cost -alpha <p[/q]> [-file <graph>]
//	bncg [-timeout <d>] poa -n <nodes> -alpha <p[/q]> -concept <name> [-graphs] [-json]
//	bncg [-timeout <d>] sweep [-n <nodes>] [-workers <w>] [-alphas <grid>]
//	     [-concepts <list>] [-variant <desc>] [-trees] [-rho] [-exact]
//	     [-json] [-progress] [-store <dir>] [-trace <file>]
//	     [-metrics-addr <host:port>] [-pprof]
//	bncg [-timeout <d>] simulate [-n <nodes>] [-alphas <grid>]
//	     [-trajectories <t>] [-init er|tree|star|all] [-moves ps|bge]
//	     [-scheduler <name>] [-max-steps <s>] [-seed <s>] [-p <prob>]
//	     [-workers <w>] [-variant <desc>] [-json] [-progress]
//	     [-trace <file>] [-metrics-addr <host:port>] [-pprof]
//	bncg [-timeout <d>] critical [-n <nodes>] [-workers <w>]
//	     [-concepts <list>] [-variant <desc>] [-trees] [-json] [-store <dir>]
//	bncg serve [-addr <host:port>] [-store <dir>] [-workers <w>]
//	     [-variant <desc>] [-max-n <n>] [-max-tree-n <n>]
//	     [-request-timeout <d>] [-rate <r/s>] [-burst <b>]
//	     [-max-inflight <c>] [-max-queue <q>] [-queue-wait <d>] [-pprof]
//	bncg store stats|compact|dump -dir <dir>
//	bncg store merge -out <dir> <shard>...
//	bncg [-timeout <d>] fleet -dir <dir> [-n <nodes>] [-concepts <list>]
//	     [-variant <desc>] [-trees] [-range-size <k>] [-watch <d>]
//	     [-plan-only] [-merge-out <dir>] [-trace <file>]
//	bncg fleet status -dir <dir> [-json]
//	bncg [-timeout <d>] worker -dir <dir> [-id <name>] [-store <dir>]
//	     [-variant <desc>] [-ttl <d>] [-poll <d>] [-workers <w>] [-progress]
//	     [-trace <file>] [-metrics-addr <host:port>] [-pprof]
//	bncg trace [-json] [-top <k>] <file>...
//
// The global -timeout flag bounds the whole invocation; SIGINT (Ctrl-C)
// cancels gracefully. In both cases the long-running subcommands (sweep,
// simulate, poa, experiment) drain their workers, print the partial report
// computed so far, and exit non-zero; serve shuts down gracefully and
// exits zero.
// A second SIGINT kills the process.
//
// fleet and worker together form the distributed sweep: `fleet -dir d`
// plans the pruned class stream into lease ranges and persists the table
// in d; any number of `worker -dir d` processes (sharing d's filesystem)
// claim ranges, certify them, and append certificates each to its own
// store shard under d/shards/<id>. The coordinator reclaims leases whose
// worker died (missed heartbeats past the TTL), so killed workers cost
// only time. `store merge` folds the shards into one canonical store —
// identical duplicate records (from reclaimed, re-run ranges) fold
// silently; contradictory records fail the merge loudly. `store dump`
// prints a store's records in a deterministic order, so byte-comparing
// dumps checks that a merged fleet store equals a single-process sweep.
//
// With -store, sweep warm-starts the certificate cache from the
// persistent store and appends every newly computed certificate to it, so
// an interrupted grid is continued by re-running the same command: the
// certificates it persisted come back as cache hits, and the report is
// byte-identical to an uninterrupted run's. serve backs the HTTP daemon
// with the same store: certificates warm-start its cache, and /v1/check
// answers classes they do not cover by running the checker without
// persisting anything.
//
// Observability: -trace appends NDJSON spans (enumeration, per-class
// certify breakdowns, store flushes, lease lifecycle) to a file the
// `bncg trace` analyzer reads back — point it at one sweep trace or at
// every shard trace of a fleet run and it reports stage breakdowns, the
// slowest classes, and a per-worker timeline with steals marked.
// -metrics-addr starts a sidecar HTTP listener on sweep and worker
// serving the same Prometheus text exposition as serve's /metrics
// (classes, certify latency, cache and store counters, lease gauges);
// -pprof mounts net/http/pprof on that sidecar, and on serve's own mux.
// `fleet status` prints a read-only snapshot of the lease table without
// taking the writer lock, so it is safe against a live fleet.
//
// Game variants (v9): -variant selects which game the engine evaluates —
// "unilateral" (consent), "max" (eccentricity distance), "mul:AGENT=P/Q"
// (per-agent price multipliers), comma-joined; the empty default is the
// paper's bilateral sum-distance game. sweep and critical certify the
// selected variant (certificates persist variant-tagged); serve makes it
// the daemon's default, which requests override per call with ?variant=;
// fleet plans it into the lease table, and worker -variant asserts the
// table's grid matches before joining.
//
// Simulation (v10): `simulate` samples improving-response dynamics where
// enumeration cannot reach — batches of trajectories on the
// incremental-distance engine from random initial states (Erdős–Rényi,
// uniform trees, stars) across an α grid at n = 50–500. Every trajectory's
// seed derives deterministically from -seed and its grid coordinates, and
// results stream in index order, so the same flags print a byte-identical
// report at any -workers count. -scheduler picks the move-scan policy
// (uniform, roundrobin, or the certificate-guided breakpoint scheduler);
// -moves ps|bge picks the target concept's move families. The daemon
// exposes the same workload as GET /v1/simulate, streamed as NDJSON.
//
// Graphs are read in the plain text edge-list format ("n <count>" then one
// "u v" pair per line); with no -file, standard input is read.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		// Once the first signal has cancelled ctx, restore default signal
		// handling so a second Ctrl-C force-kills a stuck drain.
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bncg:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	global := flag.NewFlagSet("bncg", flag.ContinueOnError)
	timeout := global.Duration("timeout", 0, "global deadline for the whole invocation (0 = none)")
	global.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bncg [-timeout <d>] <subcommand> [flags]")
		global.PrintDefaults()
	}
	// Flag parsing stops at the first non-flag argument, so global flags go
	// before the subcommand and subcommand flags after it.
	if err := global.Parse(args); err != nil {
		return err
	}
	args = global.Args()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (list, experiment, gen, check, cost, poa, sweep, simulate, critical, serve, store, fleet, worker, trace)")
	}
	switch args[0] {
	case "list":
		return runList(stdout)
	case "experiment":
		return runExperiment(ctx, args[1:], stdout)
	case "gen":
		return runGen(args[1:], stdout)
	case "check":
		return runCheck(args[1:], stdin, stdout)
	case "cost":
		return runCost(args[1:], stdin, stdout)
	case "poa":
		return runPoA(ctx, args[1:], stdout)
	case "sweep":
		return runSweep(ctx, args[1:], stdout)
	case "simulate":
		return runSimulate(ctx, args[1:], stdout)
	case "critical":
		return runCritical(ctx, args[1:], stdout)
	case "serve":
		return runServe(ctx, args[1:], stdout)
	case "store":
		return runStore(args[1:], stdout)
	case "fleet":
		return runFleet(ctx, args[1:], stdout)
	case "worker":
		return runWorker(ctx, args[1:], stdout)
	case "trace":
		return runTrace(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// interrupted reports whether err is a context cancellation or deadline —
// the cases where a partial report has already been printed.
func interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func runList(stdout io.Writer) error {
	fmt.Fprintln(stdout, "experiments (DESIGN.md §4):")
	for _, id := range experiments.IDs() {
		fmt.Fprintln(stdout, " ", id)
	}
	return nil
}

func runExperiment(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	full := fs.Bool("full", false, "run at full scale (slower, extends sweeps)")
	asJSON := fs.Bool("json", false, "emit reports as a JSON array instead of text")
	// Accept flags before or after the experiment id.
	var flags, positional []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			flags = append(flags, a)
		} else {
			positional = append(positional, a)
		}
	}
	if err := fs.Parse(flags); err != nil {
		return err
	}
	if len(positional) != 1 {
		return fmt.Errorf("experiment: want exactly one id or 'all'")
	}
	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	ids := positional
	if positional[0] == "all" {
		ids = experiments.IDs()
	}
	var reports []*experiments.Report
	failed := 0
	var runErr error
	for _, id := range ids {
		rep, err := experiments.Run(ctx, id, scale)
		if err != nil && !interrupted(err) {
			return err
		}
		if rep != nil {
			reports = append(reports, rep)
			if !rep.AllPass() {
				failed++
			}
		}
		if err != nil {
			runErr = err
			break
		}
	}
	if *asJSON {
		if err := writeJSON(stdout, reports); err != nil {
			return err
		}
	} else {
		for _, rep := range reports {
			fmt.Fprintln(stdout, rep)
		}
	}
	if runErr != nil {
		return fmt.Errorf("interrupted after %d of %d experiment(s): %w", len(reports), len(ids), runErr)
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) had failing checks", failed)
	}
	return nil
}

func runGen(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("gen: want a family: star|clique|path|cycle|dary|stretched|treestar")
	}
	// atoi parses argument i, which must lie in [lo, graph.MaxDecodeNodes]:
	// gen emits nothing check and cost cannot read back.
	atoi := func(i int, name string, lo int) (int, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("gen %s: missing %s", args[0], name)
		}
		v, err := strconv.Atoi(args[i])
		if err != nil {
			return 0, fmt.Errorf("gen %s: bad %s %q", args[0], name, args[i])
		}
		if v < lo || v > graph.MaxDecodeNodes {
			return 0, fmt.Errorf("gen %s: %s %d outside [%d, %d]", args[0], name, v, lo, graph.MaxDecodeNodes)
		}
		return v, nil
	}
	var g *graph.Graph
	switch args[0] {
	case "star", "clique", "path", "cycle":
		lo := 0
		if args[0] == "cycle" {
			lo = 3
		}
		n, err := atoi(1, "node count", lo)
		if err != nil {
			return err
		}
		switch args[0] {
		case "star":
			g = game.Star(n)
		case "clique":
			g = game.Clique(n)
		case "path":
			g = construct.Path(n)
		case "cycle":
			g = construct.Cycle(n)
		}
	case "dary":
		n, err := atoi(1, "node count", 0)
		if err != nil {
			return err
		}
		d, err := atoi(2, "arity", 1)
		if err != nil {
			return err
		}
		g = construct.AlmostCompleteDAry(n, d)
	case "stretched":
		d, err := atoi(1, "depth", 0)
		if err != nil {
			return err
		}
		k, err := atoi(2, "stretch factor", 1)
		if err != nil {
			return err
		}
		// The tree has (2^(d+1)−2)·k+1 nodes; d ≤ 21 keeps that product
		// below 2^44, far from overflow.
		if d > 21 || ((1<<(d+1))-2)*k+1 > graph.MaxDecodeNodes {
			return fmt.Errorf("gen stretched: depth %d and stretch factor %d exceed %d nodes", d, k, graph.MaxDecodeNodes)
		}
		g = construct.NewStretched(d, k).G
	case "treestar":
		k, err := atoi(1, "stretch factor", 0)
		if err != nil {
			return err
		}
		t, err := atoi(2, "target subtree size", 0)
		if err != nil {
			return err
		}
		eta, err := atoi(3, "target size", 0)
		if err != nil {
			return err
		}
		ts, err := construct.NewTreeStar(k, float64(t), eta)
		if err != nil {
			return err
		}
		g = ts.G
	default:
		return fmt.Errorf("gen: unknown family %q", args[0])
	}
	fmt.Fprint(stdout, graph.Encode(g))
	return nil
}

// writeJSON encodes v as indented JSON, the form of every -json output.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func readGraph(file string, stdin io.Reader) (*graph.Graph, error) {
	var data []byte
	var err error
	if file == "" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(file)
	}
	if err != nil {
		return nil, err
	}
	return graph.DecodeLimit(data, graph.MaxDecodeNodes)
}

func runCheck(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	alphaStr := fs.String("alpha", "", "edge price p or p/q")
	conceptStr := fs.String("concept", "", "single concept to check (default: all)")
	file := fs.String("file", "", "graph file (default: stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	alpha, err := game.ParseAlpha(*alphaStr)
	if err != nil {
		return err
	}
	g, err := readGraph(*file, stdin)
	if err != nil {
		return err
	}
	gm, err := game.NewGame(g.N(), alpha)
	if err != nil {
		return err
	}
	concepts := eq.Concepts()
	if *conceptStr != "" {
		c, err := eq.ParseConcept(*conceptStr)
		if err != nil {
			return err
		}
		concepts = []eq.Concept{c}
	}
	for _, c := range concepts {
		res := eq.Check(gm, g, c)
		if res.Stable {
			fmt.Fprintf(stdout, "%-6s stable\n", c)
		} else {
			fmt.Fprintf(stdout, "%-6s UNSTABLE: %v\n", c, res.Witness)
		}
	}
	return nil
}

func runCost(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cost", flag.ContinueOnError)
	alphaStr := fs.String("alpha", "", "edge price p or p/q")
	file := fs.String("file", "", "graph file (default: stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	alpha, err := game.ParseAlpha(*alphaStr)
	if err != nil {
		return err
	}
	g, err := readGraph(*file, stdin)
	if err != nil {
		return err
	}
	gm, err := game.NewGame(g.N(), alpha)
	if err != nil {
		return err
	}
	for u := 0; u < g.N(); u++ {
		c := gm.AgentCost(g, u)
		fmt.Fprintf(stdout, "agent %d: %v (= %.3f)\n", u, c, c.Value(alpha))
	}
	total := gm.SocialCost(g)
	fmt.Fprintf(stdout, "social cost: %.3f  OPT: %.3f  rho: %.4f\n",
		total.Value(alpha), gm.OptCost().Value(alpha), gm.Rho(g))
	return nil
}

func runSweep(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var cf commonFlags
	n := fs.Int("n", 6, "node count (6 is the Full-scale lattice sweep)")
	cf.addWorkers(fs, "worker pool size (0 = all CPUs)")
	alphasStr := fs.String("alphas", "1/2,1,3/2,2,3,5", "comma-separated α grid")
	conceptsStr := fs.String("concepts", "all", "comma-separated concepts (default: all nine)")
	cf.addVariant(fs)
	trees := fs.Bool("trees", false, "sweep free trees instead of connected graphs")
	rho := fs.Bool("rho", false, "also compute the social cost ratio ρ per graph")
	exact := fs.Bool("exact", false, "append the exact critical-α report: the rational thresholds where verdicts flip")
	asJSON := fs.Bool("json", false, "emit the full result as JSON instead of the text report")
	progress := fs.Bool("progress", false, "report task completion and cache stats on stderr")
	cf.addStore(fs, "certificate store directory: warm-start the cache and persist new certificates")
	cf.addTrace(fs, "append NDJSON spans for this sweep to <file> (read back with `bncg trace`)")
	cf.addSidecar(fs, "sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	alphas, err := game.ParseAlphas(*alphasStr)
	if err != nil {
		return err
	}
	concepts, err := eq.ParseConcepts(*conceptsStr)
	if err != nil {
		return err
	}
	variant, err := cf.variant()
	if err != nil {
		return err
	}
	source := sweep.Graphs
	if *trees {
		source = sweep.Trees
	}

	tracer, closeTracer, err := cf.openTracer("sweep")
	if err != nil {
		return err
	}
	defer closeTracer()
	cache := sweep.NewCache()
	st, _, closeStore, err := cf.openSweepStore(cache, store.Options{Trace: tracer}, *progress)
	if err != nil {
		return err
	}
	defer closeStore()
	metrics := cf.metrics()
	bindCacheStats(metrics, cache)
	bindStoreStats(metrics, st)
	closeSidecar, err := cf.startSidecar("sweep", metrics)
	if err != nil {
		return err
	}
	defer closeSidecar()
	opts := sweep.Options{
		N:        *n,
		Alphas:   alphas,
		Concepts: concepts,
		Source:   source,
		Variant:  variant,
		Rho:      *rho,
		Workers:  *cf.workers,
		Cache:    cache,
		Trace:    tracer,
		Metrics:  metrics,
	}
	if *progress {
		opts.Progress = func(done, total int) {
			if done%64 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\rsweep: %d/%d tasks", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	res, err := sweep.Run(ctx, opts)
	if err != nil && !interrupted(err) {
		return err
	}
	if *asJSON {
		if jerr := writeJSON(stdout, res); jerr != nil {
			return jerr
		}
	} else {
		fmt.Fprint(stdout, res.Report())
		if *exact {
			// The certificates behind the grid answer the whole α-axis;
			// print the exact thresholds, not just the sampled verdicts.
			fmt.Fprint(stdout, res.CriticalReport())
		}
		fmt.Fprintf(stdout, "workers=%d cache: %d hits, %d misses\n", res.Workers, res.Hits, res.Misses)
	}
	if *progress {
		stats := cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d entries, lifetime %d hits / %d misses\n",
			stats.Entries, stats.Hits, stats.Misses)
	}
	if err != nil {
		return fmt.Errorf("interrupted with %d of %d tasks done: %w", res.Completed, len(res.Items), err)
	}
	return nil
}

// runCritical is the dedicated exact-threshold workload: certify every
// enumerated class once per concept and report, per concept, the rational
// α breakpoints at which any verdict flips, plus the stable-class counts
// on every region between (and at) them. No α grid exists because none is
// needed: the certificates answer the whole axis.
func runCritical(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("critical", flag.ContinueOnError)
	var cf commonFlags
	n := fs.Int("n", 5, "node count")
	cf.addWorkers(fs, "worker pool size (0 = all CPUs)")
	conceptsStr := fs.String("concepts", "all", "comma-separated concepts (default: all nine)")
	cf.addVariant(fs)
	trees := fs.Bool("trees", false, "analyze free trees instead of connected graphs")
	asJSON := fs.Bool("json", false, "emit the analysis as JSON instead of text")
	cf.addStore(fs, "certificate store directory: warm-start the cache, persist new certificates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	concepts, err := eq.ParseConcepts(*conceptsStr)
	if err != nil {
		return err
	}
	variant, err := cf.variant()
	if err != nil {
		return err
	}
	source := sweep.Graphs
	if *trees {
		source = sweep.Trees
	}
	cache := sweep.NewCache()
	_, _, closeStore, err := cf.openSweepStore(cache, store.Options{}, false)
	if err != nil {
		return err
	}
	defer closeStore()
	res, err := sweep.Run(ctx, sweep.Options{
		N: *n,
		// A single-point grid satisfies the engine's options contract; the
		// certificates it computes cover every α.
		Alphas:   []game.Alpha{game.A(1)},
		Concepts: concepts,
		Workers:  *cf.workers,
		Source:   source,
		Variant:  variant,
		Cache:    cache,
	})
	if err != nil {
		if interrupted(err) {
			return fmt.Errorf("interrupted with %d of %d classes done: %w", res.Completed, len(res.Items), err)
		}
		return err
	}
	if *asJSON {
		return writeJSON(stdout, res.CriticalPayload())
	}
	fmt.Fprint(stdout, res.CriticalReport())
	return nil
}

func runServe(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var cf commonFlags
	addr := fs.String("addr", "127.0.0.1:8371", "listen address")
	cf.addStore(fs, "certificate store directory backing the daemon")
	cf.addWorkers(fs, "sweep worker pool per computation (0 = all CPUs)")
	cf.addVariant(fs)
	maxN := fs.Int("max-n", 0, "cap on n for connected-graph requests (0 = default 7)")
	maxTreeN := fs.Int("max-tree-n", 0, "cap on n for free-tree requests (0 = default 12)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-computation deadline (0 = default 2m)")
	flushInterval := fs.Duration("flush-interval", 2*time.Second, "store fsync batching interval")
	rate := fs.Float64("rate", 0, "per-client rate limit in requests/second (0 = unlimited)")
	burst := fs.Int("burst", 0, "per-client token-bucket burst (0 = default 1; only with -rate)")
	maxInflight := fs.Int("max-inflight", 0, "global concurrent-request cap (0 = default 256)")
	maxQueue := fs.Int("max-queue", 0, "bounded request queue ahead of the cap (0 = default: the cap)")
	queueWait := fs.Duration("queue-wait", 0, "per-request queue deadline (0 = default 1s)")
	pprofFlag := fs.Bool("pprof", false, "mount /debug/pprof on the daemon mux")
	if err := fs.Parse(args); err != nil {
		return err
	}
	variant, err := cf.variant()
	if err != nil {
		return err
	}
	cache := sweep.NewCache()
	st, loaded, closeStore, err := cf.openSweepStore(cache, store.Options{FlushInterval: *flushInterval}, false)
	if err != nil {
		return err
	}
	defer closeStore()
	if st != nil {
		fmt.Fprintf(stdout, "store: %s (%d certificates warm-started)\n", *cf.storeDir, loaded)
	}
	srv := server.New(server.Config{
		Cache:          cache,
		Store:          st,
		Workers:        *cf.workers,
		DefaultVariant: variant,
		MaxN:           *maxN,
		MaxTreeN:       *maxTreeN,
		RequestTimeout: *reqTimeout,
		RatePerSec:     *rate,
		Burst:          *burst,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		EnablePprof:    *pprofFlag,
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bncg serve: listening on http://%s\n", ln.Addr())
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting, let streaming responses finish,
		// then force-close laggards. A clean shutdown exits zero.
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			_ = hs.Close()
		}
		<-errc
		fmt.Fprintln(stdout, "bncg serve: shut down")
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

func runStore(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("store: want a verb: stats|compact|merge|dump")
	}
	verb, args := args[0], args[1:]
	if verb == "merge" {
		return runStoreMerge(args, stdout)
	}
	fs := flag.NewFlagSet("store "+verb, flag.ContinueOnError)
	dir := fs.String("dir", "", "certificate store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("store %s: missing -dir", verb)
	}
	// stats and dump are pure reads: open without the writer lock so they
	// work against a store a live daemon or sweep holds. compact rewrites
	// segments and genuinely needs exclusivity.
	st, err := store.Open(*dir, store.Options{ReadOnly: verb != "compact"})
	if err != nil {
		return err
	}
	defer st.Close()
	switch verb {
	case "stats":
		// The per-segment breakdown makes shard skew across a fleet
		// visible at a glance: uneven canonical-key hashing shows up as
		// one segment's bytes dwarfing its siblings'.
		out := struct {
			SchemaVersion int `json:"schema_version"`
			store.Stats
			SegmentDetail []store.SegmentStat `json:"segment_detail"`
		}{sweep.SchemaVersion, st.Stats(), st.SegmentStats()}
		return writeJSON(stdout, out)
	case "dump":
		return dumpStore(st, stdout)
	case "compact":
		before := st.Stats()
		if err := st.Compact(); err != nil {
			return err
		}
		after := st.Stats()
		fmt.Fprintf(stdout, "compacted %s: %d records, %d -> %d bytes\n",
			*dir, after.Records, before.DiskBytes, after.DiskBytes)
		return nil
	default:
		return fmt.Errorf("store: unknown verb %q (want stats|compact|merge|dump)", verb)
	}
}

// runStoreMerge folds store shards into one canonical store: `bncg store
// merge -out <dir> <shard>...`. Identical duplicate records fold silently;
// a contradictory (class, concept) record fails the merge loudly with a
// non-zero exit — determinism makes contradictions impossible for honest
// shards, so one can only mean corruption.
func runStoreMerge(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("store merge", flag.ContinueOnError)
	out := fs.String("out", "", "destination store directory (created if absent)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	shards := fs.Args()
	if *out == "" {
		return fmt.Errorf("store merge: missing -out")
	}
	if len(shards) == 0 {
		return fmt.Errorf("store merge: no shard directories given")
	}
	dst, err := store.Open(*out, store.Options{})
	if err != nil {
		return err
	}
	defer dst.Close()
	var total store.IngestStats
	for _, shard := range shards {
		src, err := store.Open(shard, store.Options{ReadOnly: true})
		if err != nil {
			return fmt.Errorf("store merge: %w", err)
		}
		stats, ierr := dst.Ingest(src)
		cerr := src.Close()
		if ierr != nil {
			return fmt.Errorf("store merge %s: %w", shard, ierr)
		}
		if cerr != nil {
			return cerr
		}
		fmt.Fprintf(stdout, "merged %s: +%d certificates, %d duplicates folded\n",
			shard, stats.Certificates, stats.Duplicates)
		total.Certificates += stats.Certificates
		total.Duplicates += stats.Duplicates
	}
	if err := dst.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "merge complete: %d shards -> %s (%d certificates, %d duplicates folded)\n",
		len(shards), *out, total.Certificates, total.Duplicates)
	return nil
}

// dumpStore prints every certificate in a deterministic text form, sorted
// by key, so two stores holding the same certificate set produce
// byte-identical dumps: the comparison the fleet's
// merged-equals-single-process guarantee is checked with.
func dumpStore(st *store.Store, stdout io.Writer) error {
	var certs []store.CertRecord
	st.RangeCerts(func(r store.CertRecord) bool {
		certs = append(certs, r)
		return true
	})
	slices.SortFunc(certs, func(a, b store.CertRecord) int {
		if c := strings.Compare(a.Canon, b.Canon); c != 0 {
			return c
		}
		if c := strings.Compare(a.Variant, b.Variant); c != 0 {
			return c
		}
		return int(a.Concept) - int(b.Concept)
	})
	for _, r := range certs {
		fmt.Fprintf(stdout, "cert %x %s%s %s\n", r.Canon, r.Concept, dumpVariant(r.Variant), intervalsString(r.Set))
	}
	return nil
}

// dumpVariant renders a record's variant for `store dump` lines — empty
// for the default variant, so pre-variant stores dump byte-identically.
func dumpVariant(variant string) string {
	if variant == "" {
		return ""
	}
	return " variant=" + variant
}

// intervalsString renders a persisted certificate's α set with each
// endpoint as stored, e.g. "[1/1,2/1) [3/1,inf)"; an empty set renders as
// "(empty)".
func intervalsString(set eq.AlphaSet) string {
	if set.IsEmpty() {
		return "(empty)"
	}
	var b strings.Builder
	for i, iv := range set.All() {
		if i > 0 {
			b.WriteByte(' ')
		}
		if iv.LoOpen {
			b.WriteByte('(')
		} else {
			b.WriteByte('[')
		}
		fmt.Fprintf(&b, "%d/%d,", iv.Lo.Num, iv.Lo.Den)
		if iv.Hi.IsInf() {
			b.WriteString("inf)")
			continue
		}
		fmt.Fprintf(&b, "%d/%d", iv.Hi.Num, iv.Hi.Den)
		if iv.HiOpen {
			b.WriteByte(')')
		} else {
			b.WriteByte(']')
		}
	}
	return b.String()
}

// runFleet is the coordinator of a distributed sweep: plan the pruned
// class stream into lease ranges, persist the table, then watch the fleet
// — reclaiming expired leases so a dead worker's ranges return to the pool
// — until every range is done. Workers are separate `bncg worker`
// processes sharing the fleet directory; the coordinator never certifies
// anything itself. With -merge-out it finishes by folding every shard
// under <dir>/shards into one canonical store and checking completeness.
func runFleet(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "status" {
		return runFleetStatus(args[1:], stdout)
	}
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	var cf commonFlags
	dir := fs.String("dir", "", "fleet directory: lease table + default shard location")
	n := fs.Int("n", 7, "node count (7 is the fleet-scale frontier)")
	conceptsStr := fs.String("concepts", "all", "comma-separated concepts (default: all nine)")
	cf.addVariant(fs)
	trees := fs.Bool("trees", false, "sweep free trees instead of connected graphs")
	rangeSize := fs.Int("range-size", 32, "classes per lease range")
	watch := fs.Duration("watch", 2*time.Second, "monitor poll interval")
	planOnly := fs.Bool("plan-only", false, "plan and persist the lease table, then exit without monitoring")
	mergeOut := fs.String("merge-out", "", "after completion, merge every shard under <dir>/shards into this store")
	cf.addTrace(fs, "append NDJSON spans for the coordinator (plan, reclaims, merge) to <file>")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("fleet: missing -dir")
	}
	if *watch <= 0 && !*planOnly {
		return fmt.Errorf("fleet: -watch must be positive, got %v", *watch)
	}
	tracer, closeTracer, err := cf.openTracer("fleet")
	if err != nil {
		return err
	}
	defer closeTracer()
	concepts, err := eq.ParseConcepts(*conceptsStr)
	if err != nil {
		return err
	}
	variant, err := cf.variant()
	if err != nil {
		return err
	}
	source := sweep.Graphs
	if *trees {
		source = sweep.Trees
	}
	// Fleet sweeps are certificate workloads: each (class, concept) gets
	// one parametric certificate answering every α, so the grid spec pins
	// a single nominal α and any α-grid report is derived after the merge.
	opts := sweep.Options{
		N:        *n,
		Alphas:   []game.Alpha{game.A(1)},
		Concepts: concepts,
		Source:   source,
		Variant:  variant,
	}

	table, err := fleet.Load(*dir)
	switch {
	case err == nil:
		// Resuming an existing fleet: the table is the authority on the
		// grid, but refuse a flag mismatch rather than silently monitoring
		// a different sweep than the one asked for.
		if !table.Grid.Matches(opts) {
			return fmt.Errorf("fleet: %s holds the lease table of a different grid (n=%d source=%s); use a fresh directory",
				*dir, table.Grid.N, table.Grid.Source)
		}
		p := table.Progress()
		fmt.Fprintf(stdout, "fleet: resuming %s: %d classes in %d ranges (%d done)\n",
			*dir, table.Classes, len(table.Ranges), p.Done)
	case os.IsNotExist(err):
		planSpan := tracer.Start("plan")
		table, err = fleet.Plan(ctx, opts, *rangeSize)
		if err != nil {
			planSpan.End(obs.Attrs{"error": err.Error()})
			return err
		}
		planSpan.End(obs.Attrs{"classes": table.Classes, "ranges": len(table.Ranges)})
		if err := fleet.Create(*dir, table); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fleet: planned n=%d source=%s: %d classes in %d ranges of <=%d\n",
			*n, source, table.Classes, len(table.Ranges), *rangeSize)
	default:
		return err
	}
	if *planOnly {
		return nil
	}

	ticker := time.NewTicker(*watch)
	defer ticker.Stop()
	lastDone := -1
	for {
		reclaimed, err := fleet.Reclaim(*dir)
		if err != nil {
			return err
		}
		if reclaimed > 0 {
			tracer.Event("reclaim", obs.Attrs{"leases": reclaimed})
			fmt.Fprintf(stdout, "fleet: reclaimed %d expired lease(s)\n", reclaimed)
		}
		t, err := fleet.Load(*dir)
		if err != nil {
			return err
		}
		p := t.Progress()
		if p.Done != lastDone {
			fmt.Fprintf(stdout, "fleet: %d/%d ranges done (%d leased, %d pending, %d reclaims)\n",
				p.Done, len(t.Ranges), p.Leased, p.Pending, p.Reclaims)
			lastDone = p.Done
		}
		if t.Done() {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: interrupted with %d/%d ranges done: %w", p.Done, len(t.Ranges), ctx.Err())
		case <-ticker.C:
		}
	}
	fmt.Fprintf(stdout, "fleet: complete: %d classes certified across %d ranges\n", table.Classes, len(table.Ranges))

	if *mergeOut == "" {
		return nil
	}
	matches, err := filepath.Glob(filepath.Join(*dir, fleet.ShardsDir, "*"))
	if err != nil {
		return err
	}
	var shards []string
	for _, m := range matches {
		if info, err := os.Stat(m); err == nil && info.IsDir() {
			shards = append(shards, m)
		}
	}
	if len(shards) == 0 {
		return fmt.Errorf("fleet: no shards under %s to merge", filepath.Join(*dir, fleet.ShardsDir))
	}
	mergeSpan := tracer.Start("merge")
	if err := runStoreMerge(append([]string{"-out", *mergeOut}, shards...), stdout); err != nil {
		mergeSpan.End(obs.Attrs{"shards": len(shards), "error": err.Error()})
		return err
	}
	mergeSpan.End(obs.Attrs{"shards": len(shards)})
	// Completeness check: a done table plus the durability-before-
	// completion worker invariant means the merged store must hold exactly
	// one certificate per (class, concept).
	merged, err := store.Open(*mergeOut, store.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	defer merged.Close()
	certs := 0
	merged.RangeCerts(func(store.CertRecord) bool {
		certs++
		return true
	})
	want := table.Classes * len(concepts)
	if certs != want {
		return fmt.Errorf("fleet: merged store %s holds %d certificates, want %d (%d classes x %d concepts)",
			*mergeOut, certs, want, table.Classes, len(concepts))
	}
	fmt.Fprintf(stdout, "fleet: merged store complete: %d certificates (%d classes x %d concepts)\n",
		certs, table.Classes, len(concepts))
	return nil
}

// runWorker is one member of a fleet: claim lease ranges from the table in
// -dir, certify them with the shared engine, append certificates to its
// own shard, and exit when the whole fleet's table is done. Run any number
// of these against one fleet directory, from any number of machines
// sharing the filesystem.
func runWorker(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	var cf commonFlags
	dir := fs.String("dir", "", "fleet directory holding the lease table")
	id := fs.String("id", "", "worker id recorded as lease owner (default: host-pid)")
	cf.addStore(fs, "this worker's shard store (default: <dir>/shards/<id>)")
	cf.addVariant(fs)
	ttl := fs.Duration("ttl", 30*time.Second, "lease duration; heartbeats extend it")
	poll := fs.Duration("poll", 500*time.Millisecond, "back-off between claim attempts when every range is taken")
	cf.addWorkers(fs, "per-range sweep pool size (0 = all CPUs)")
	progress := fs.Bool("progress", false, "log per-range lease activity on stderr")
	cf.addTrace(fs, "append NDJSON spans for this worker's shard to <file> (merge shard traces with `bncg trace`)")
	cf.addSidecar(fs, "worker")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("worker: missing -dir")
	}
	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if *cf.storeDir == "" {
		*cf.storeDir = filepath.Join(*dir, fleet.ShardsDir, *id)
	}
	if cf.variantSet() {
		// The lease table is the authority on the grid — including its
		// variant. -variant here is an assertion: refuse to join a fleet
		// certifying a different game than the operator expects.
		variant, err := cf.variant()
		if err != nil {
			return err
		}
		if t, err := fleet.Load(*dir); err == nil && t.Grid.Variant != variant.Key() {
			want := t.Grid.Variant
			if want == "" {
				want = "the default variant"
			}
			return fmt.Errorf("worker: -variant %q does not match the fleet grid (%s)", variant.Key(), want)
		}
	}
	tracer, closeTracer, err := cf.openTracer(*id)
	if err != nil {
		return err
	}
	defer closeTracer()
	st, err := store.Open(*cf.storeDir, store.Options{Trace: tracer})
	if err != nil {
		return err
	}
	defer st.Close()
	// The worker's cache is private to RunFleetWorker, which binds its
	// stats onto this registry itself; only the shard is visible here.
	metrics := cf.metrics()
	bindStoreStats(metrics, st)
	closeSidecar, err := cf.startSidecar("worker", metrics)
	if err != nil {
		return err
	}
	defer closeSidecar()
	wopts := fleet.WorkerOptions{
		Dir:          *dir,
		Owner:        *id,
		Store:        st,
		TTL:          *ttl,
		Poll:         *poll,
		SweepWorkers: *cf.workers,
		Trace:        tracer,
		Metrics:      metrics,
	}
	if *progress {
		wopts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	stats, err := fleet.RunWorker(ctx, wopts)
	if err != nil {
		if interrupted(err) {
			return fmt.Errorf("worker %s: interrupted after %d range(s); leases will expire for others: %w",
				*id, stats.Ranges, err)
		}
		return err
	}
	fmt.Fprintf(stdout, "worker %s: fleet done: %d range(s), %d classes, %d certificates fresh, %d cache hits, %d leases lost\n",
		*id, stats.Ranges, stats.Classes, stats.Certified, stats.Hits, stats.LeasesLost)
	return nil
}

// runFleetStatus prints a read-only snapshot of a fleet's lease table. It
// reads the table file directly — no flock, no mutation — so it is safe
// to point at a directory a live coordinator and workers are using.
func runFleetStatus(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fleet status", flag.ContinueOnError)
	dir := fs.String("dir", "", "fleet directory holding the lease table")
	asJSON := fs.Bool("json", false, "emit the snapshot as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("fleet status: missing -dir")
	}
	t, err := fleet.Load(*dir)
	if err != nil {
		return err
	}
	p := t.Progress()
	if *asJSON {
		out := struct {
			SchemaVersion int           `json:"schema_version"`
			N             int           `json:"n"`
			Source        string        `json:"source"`
			Variant       string        `json:"variant,omitempty"`
			Classes       int           `json:"classes"`
			Pending       int           `json:"pending"`
			Leased        int           `json:"leased"`
			Done          int           `json:"done"`
			Reclaims      int           `json:"reclaims"`
			Ranges        []fleet.Range `json:"ranges"`
		}{sweep.SchemaVersion, t.Grid.N, t.Grid.Source, t.Grid.Variant, t.Classes, p.Pending, p.Leased, p.Done, p.Reclaims, t.Ranges}
		return writeJSON(stdout, out)
	}
	fmt.Fprintf(stdout, "fleet %s: n=%d source=%s%s, %d classes in %d ranges\n",
		*dir, t.Grid.N, t.Grid.Source, dumpVariant(t.Grid.Variant), t.Classes, len(t.Ranges))
	fmt.Fprintf(stdout, "progress: %d done, %d leased, %d pending, %d reclaims\n",
		p.Done, p.Leased, p.Pending, p.Reclaims)
	now := time.Now()
	for _, r := range t.Ranges {
		// Pending ranges that were never reclaimed carry no history worth a
		// row; everything else shows who holds (or held) the lease.
		if r.State == "pending" && r.Reclaims == 0 {
			continue
		}
		line := fmt.Sprintf("  [%6d,%6d) %-7s", r.Start, r.End, r.State)
		if r.Owner != "" {
			line += " owner=" + r.Owner
		}
		if r.State == "leased" {
			line += fmt.Sprintf(" epoch=%d deadline=%s", r.Epoch, r.Deadline.Sub(now).Round(time.Millisecond))
		}
		if r.Reclaims > 0 {
			line += fmt.Sprintf(" reclaims=%d", r.Reclaims)
		}
		fmt.Fprintln(stdout, line)
	}
	return nil
}

// runTrace is the analyzer: read one or more NDJSON trace files (a sweep's
// -trace output, or every shard trace of a fleet run) and report where the
// time went. Parse and schema errors surface as a non-zero exit — the
// nightly workflow relies on this to pin the trace schema.
func runTrace(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	topK := fs.Int("top", 10, "slowest classes to report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("trace: want one or more trace files")
	}
	tr, err := obs.ReadTraceFiles(fs.Args()...)
	if err != nil {
		return err
	}
	rep := obs.Analyze(tr, *topK)
	rep.SchemaVersion = sweep.SchemaVersion
	rep.Files = fs.NArg()
	if *asJSON {
		return writeJSON(stdout, rep)
	}
	fmt.Fprint(stdout, rep.Text())
	return nil
}

func runPoA(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("poa", flag.ContinueOnError)
	n := fs.Int("n", 8, "number of agents")
	alphaStr := fs.String("alpha", "", "edge price p or p/q")
	conceptStr := fs.String("concept", "PS", "solution concept")
	graphs := fs.Bool("graphs", false, "search all connected graphs instead of trees")
	asJSON := fs.Bool("json", false, "emit the result as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	alpha, err := game.ParseAlpha(*alphaStr)
	if err != nil {
		return err
	}
	c, err := eq.ParseConcept(*conceptStr)
	if err != nil {
		return err
	}
	var res core.PoAResult
	var searchErr error
	if *graphs {
		res, searchErr = core.WorstGraph(ctx, *n, alpha, c, nil)
	} else {
		res, searchErr = core.WorstTree(ctx, *n, alpha, c, nil)
	}
	if searchErr != nil && !interrupted(searchErr) {
		return searchErr
	}
	if *asJSON {
		if err := writeJSON(stdout, res.Payload(*n, alpha, c, searchErr != nil)); err != nil {
			return err
		}
	} else {
		qualifier := ""
		if searchErr != nil {
			qualifier = " (partial)"
		}
		fmt.Fprintf(stdout, "n=%d α=%s %s: worst%s ρ = %.4f over %d equilibria of %d candidates\n",
			*n, alpha, c, qualifier, res.Rho, res.Equilibria, res.Candidates)
		if res.Witness != nil {
			fmt.Fprintf(stdout, "witness: %s\n", res.Witness)
		}
	}
	if searchErr != nil {
		return fmt.Errorf("interrupted: %w", searchErr)
	}
	return nil
}
