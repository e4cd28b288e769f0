package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/game"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

// commonFlags bundles the flag plumbing the compute subcommands share —
// the certificate store, the game-variant selector, the worker pool, NDJSON
// tracing and the metrics/pprof sidecar. Each shared flag is defined here
// exactly once, so a new one (as -variant was) lands on every subcommand
// through one definition and the per-subcommand runners keep only the
// wiring that genuinely differs. A subcommand registers only the groups
// it supports, so its -h output stays honest.
type commonFlags struct {
	storeDir    *string
	variantStr  *string
	workers     *int
	tracePath   *string
	metricsAddr *string
	pprofFlag   *bool
}

// addStore registers -store. The usage string differs per subcommand
// because the store plays a different role in each (warm-start + persist
// for sweeps, backing store for serve, shard for worker).
func (c *commonFlags) addStore(fs *flag.FlagSet, usage string) {
	c.storeDir = fs.String("store", "", usage)
}

// addVariant registers -variant, the game-variant selector shared by
// sweep, critical, serve and worker.
func (c *commonFlags) addVariant(fs *flag.FlagSet) {
	c.variantStr = fs.String("variant", "",
		`game variant: "unilateral", "max" and/or "mul:AGENT=P/Q", comma-joined (default: the paper's game)`)
}

// addWorkers registers -workers (0 = all CPUs).
func (c *commonFlags) addWorkers(fs *flag.FlagSet, usage string) {
	c.workers = fs.Int("workers", 0, usage)
}

// addTrace registers -trace, the NDJSON span output read back with
// `bncg trace`.
func (c *commonFlags) addTrace(fs *flag.FlagSet, usage string) {
	c.tracePath = fs.String("trace", "", usage)
}

// addSidecar registers -metrics-addr and -pprof as a pair; subject names
// the workload in the help text ("sweep", "worker").
func (c *commonFlags) addSidecar(fs *flag.FlagSet, subject string) {
	c.metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics for this "+subject+" on a sidecar listener")
	c.pprofFlag = fs.Bool("pprof", false, "mount /debug/pprof on the -metrics-addr sidecar")
}

// variantSet reports whether -variant was registered and given a value.
func (c *commonFlags) variantSet() bool {
	return c.variantStr != nil && *c.variantStr != ""
}

// variant parses -variant; the zero value is the paper's default game.
func (c *commonFlags) variant() (game.Variant, error) {
	if !c.variantSet() {
		return game.Variant{}, nil
	}
	return game.ParseVariant(*c.variantStr)
}

// openTracer creates the -trace NDJSON writer, or returns a nil tracer (a
// valid disabled one) when the flag is unset. The returned cleanup is
// safe to defer unconditionally.
func (c *commonFlags) openTracer(source string) (*obs.Tracer, func(), error) {
	if c.tracePath == nil || *c.tracePath == "" {
		return nil, func() {}, nil
	}
	tracer, err := obs.CreateTrace(*c.tracePath, source)
	if err != nil {
		return nil, nil, err
	}
	return tracer, func() { _ = tracer.Close() }, nil
}

// openSweepStore opens -store with opts (nil when unset), warm-starts
// cache from it, attaches it as the cache's write-behind sink and returns
// the number of certificates loaded. The returned cleanup detaches the
// sink and closes the store; safe to defer unconditionally.
func (c *commonFlags) openSweepStore(cache *sweep.Cache, opts store.Options, progress bool) (*store.Store, int, func(), error) {
	if c.storeDir == nil || *c.storeDir == "" {
		return nil, 0, func() {}, nil
	}
	st, err := store.Open(*c.storeDir, opts)
	if err != nil {
		return nil, 0, nil, err
	}
	warmSpan := opts.Trace.Start("warmstart")
	loaded := cache.WarmStart(st)
	warmSpan.End(obs.Attrs{"records": loaded})
	if loaded > 0 && progress {
		fmt.Fprintf(os.Stderr, "store: warm-started %d certificates from %s\n", loaded, *c.storeDir)
	}
	cache.Persist(st)
	return st, loaded, func() {
		cache.Persist(nil)
		_ = st.Close()
	}, nil
}

// metrics returns a ComputeMetrics bundle when -metrics-addr is set, nil
// otherwise (a nil *ComputeMetrics is a valid disabled bundle everywhere
// it is threaded).
func (c *commonFlags) metrics() *obs.ComputeMetrics {
	if c.metricsAddr == nil || *c.metricsAddr == "" {
		return nil
	}
	return obs.NewComputeMetrics()
}

// startSidecar starts the -metrics-addr listener serving metrics, or does
// nothing when the flag is unset — rejecting a dangling -pprof, which
// needs the sidecar to serve it. The returned cleanup is safe to defer
// unconditionally.
func (c *commonFlags) startSidecar(subject string, metrics *obs.ComputeMetrics) (func(), error) {
	if metrics == nil {
		if c.pprofFlag != nil && *c.pprofFlag {
			return nil, fmt.Errorf("%s: -pprof needs the -metrics-addr sidecar to serve it", subject)
		}
		return func() {}, nil
	}
	sidecar, err := obs.StartSidecar(*c.metricsAddr, metrics.Registry, *c.pprofFlag)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", sidecar.Addr())
	return func() { sidecar.Close() }, nil
}

// bindStoreStats wires a store's flush counters onto a metrics bundle;
// both sides are optional.
func bindStoreStats(metrics *obs.ComputeMetrics, st *store.Store) {
	if metrics == nil || st == nil {
		return
	}
	metrics.BindStoreStats(func() (int64, int64, int64, int) {
		s := st.Stats()
		return s.FlushedBytes, s.FlushFailures, s.DiskBytes, s.Pending
	})
}

// bindCacheStats wires a cache's entry and hit counters onto a metrics
// bundle.
func bindCacheStats(metrics *obs.ComputeMetrics, cache *sweep.Cache) {
	if metrics == nil || cache == nil {
		return
	}
	metrics.BindCacheStats(func() (int, int64, int64) {
		s := cache.Stats()
		return s.Entries, s.Hits, s.Misses
	})
}
