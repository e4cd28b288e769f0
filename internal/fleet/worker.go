package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Dir is the fleet directory holding the lease table.
	Dir string
	// Owner identifies this worker in the lease table.
	Owner string
	// Store is the worker's own shard: certificates computed here are
	// appended to it (and warm-started from it, so a restarted worker
	// re-claiming a range it already certified recomputes nothing).
	Store *store.Store
	// TTL is the lease duration; heartbeats extend it at TTL/3 cadence.
	// Values <= 0 select 30s.
	TTL time.Duration
	// Poll is the back-off between claim attempts when nothing is
	// claimable but the fleet is not done (another worker holds the
	// remaining leases and may yet die). Values <= 0 select 500ms.
	Poll time.Duration
	// SweepWorkers is the per-range sweep pool size (<= 0 = GOMAXPROCS).
	SweepWorkers int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Trace, when non-nil, records the worker lifecycle: "warmstart",
	// "claim", "wait", "range", "heartbeat" and "complete" spans plus a
	// "steal" event whenever a claim takes over an expired lease. The
	// same tracer is threaded into the per-range sweeps, so one shard
	// trace file holds the worker's whole timeline.
	Trace *obs.Tracer
	// Metrics, when non-nil, records lease gauges and range counters for
	// the sidecar exposition, and is threaded into the sweeps.
	Metrics *obs.ComputeMetrics
}

// WorkerStats summarizes one worker's run.
type WorkerStats struct {
	Ranges     int   // ranges completed by this worker
	Classes    int   // classes in those ranges
	Certified  int64 // certificates computed fresh
	Hits       int64 // verdict-unit cache hits (warm-started shard)
	LeasesLost int   // ranges abandoned to a reclaim mid-work
}

// RunWorker claims and certifies ranges until the fleet's table is fully
// done, then returns. It is the body of `bncg worker`: one call per worker
// process, any number of processes per fleet directory. The worker flushes
// its shard before marking a range complete — completion in the table
// implies durability in the shard — and a lease lost mid-range (expiry +
// reclaim while this worker stalled) abandons the range without marking
// it, leaving any partial shard contents as mergeable duplicates.
// Cancelling ctx returns promptly with ctx.Err(); leased-but-unfinished
// ranges simply expire for someone else to take.
func RunWorker(ctx context.Context, opts WorkerOptions) (WorkerStats, error) {
	var stats WorkerStats
	if opts.Dir == "" || opts.Owner == "" {
		return stats, fmt.Errorf("fleet: worker needs a directory and an owner id")
	}
	if opts.Store == nil {
		return stats, fmt.Errorf("fleet: worker needs a store shard")
	}
	if opts.TTL <= 0 {
		opts.TTL = 30 * time.Second
	}
	if opts.TTL/3 == 0 {
		return stats, fmt.Errorf("fleet: lease TTL %v is too short for a heartbeat period of TTL/3", opts.TTL)
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	t, err := Load(opts.Dir)
	if err != nil {
		return stats, err
	}
	grid, err := t.Grid.Options()
	if err != nil {
		return stats, err
	}

	// The worker's cache is private to its process and backed by its own
	// shard: certificates land in this shard only, and a restart resumes
	// from whatever the shard already holds.
	cache := sweep.NewCache()
	// Bind cache sampling here rather than in the CLI: the cache lives and
	// dies inside this call, so the scrape-time closure must too.
	opts.Metrics.BindCacheStats(func() (int, int64, int64) {
		s := cache.Stats()
		return s.Entries, s.Hits, s.Misses
	})
	warmSpan := opts.Trace.Start("warmstart")
	loaded := cache.WarmStart(opts.Store)
	warmSpan.End(obs.Attrs{"records": loaded})
	cache.Persist(opts.Store)
	defer cache.Persist(nil)

	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		claimSpan := opts.Trace.Start("claim")
		lease, ok, err := Claim(opts.Dir, opts.Owner, opts.TTL)
		claimSpan.End(obs.Attrs{"ok": ok})
		if err != nil {
			return stats, err
		}
		if !ok {
			waitSpan := opts.Trace.Start("wait")
			t, err := Load(opts.Dir)
			if err != nil {
				waitSpan.End(nil)
				return stats, err
			}
			if t.Done() {
				waitSpan.End(obs.Attrs{"done": true})
				return stats, opts.Store.Flush()
			}
			select {
			case <-ctx.Done():
				waitSpan.End(obs.Attrs{"done": false})
				return stats, ctx.Err()
			case <-time.After(opts.Poll):
			}
			waitSpan.End(obs.Attrs{"done": false})
			continue
		}
		if lease.Stolen {
			opts.Trace.Event("steal", obs.Attrs{"start": lease.Start, "end": lease.End, "epoch": lease.Epoch})
		}
		opts.Metrics.LeaseHeld(int64(lease.Epoch), lease.Deadline, lease.Stolen)
		logf("worker %s: leased range [%d,%d) epoch %d", opts.Owner, lease.Start, lease.End, lease.Epoch)
		rangeSpan := opts.Trace.Start("range")
		res, lost, err := runRange(ctx, opts, grid, cache, lease)
		if err != nil {
			rangeSpan.End(obs.Attrs{"start": lease.Start, "end": lease.End, "epoch": lease.Epoch, "error": err.Error()})
			opts.Metrics.LeaseDone(true)
			if ctx.Err() != nil {
				return stats, ctx.Err()
			}
			return stats, err
		}
		rangeSpan.End(obs.Attrs{
			"start": lease.Start, "end": lease.End, "epoch": lease.Epoch,
			"classes": res.Graphs, "certified": res.Certified, "lost": lost,
		})
		if lost {
			stats.LeasesLost++
			opts.Metrics.LeaseDone(true)
			logf("worker %s: lost lease on range [%d,%d), abandoning", opts.Owner, lease.Start, lease.End)
			continue
		}
		// Durability before completion: once the table says done, no one
		// will ever certify these classes again.
		if err := opts.Store.Flush(); err != nil {
			opts.Metrics.LeaseDone(true)
			return stats, fmt.Errorf("fleet: flushing shard before completing range [%d,%d): %w", lease.Start, lease.End, err)
		}
		completeSpan := opts.Trace.Start("complete")
		err = Complete(opts.Dir, lease)
		completeSpan.End(obs.Attrs{"start": lease.Start, "end": lease.End})
		if err != nil {
			if errors.Is(err, ErrLeaseLost) {
				// Reclaimed between our flush and the mark: the work is
				// durable in our shard and the merge folds the overlap.
				stats.LeasesLost++
				opts.Metrics.LeaseDone(true)
				logf("worker %s: range [%d,%d) reclaimed before completion", opts.Owner, lease.Start, lease.End)
				continue
			}
			opts.Metrics.LeaseDone(true)
			return stats, err
		}
		opts.Metrics.LeaseDone(false)
		stats.Ranges++
		stats.Classes += lease.End - lease.Start
		stats.Certified += res.Certified
		stats.Hits += res.Hits
		logf("worker %s: completed range [%d,%d): %d classes, %d certificates fresh", opts.Owner, lease.Start, lease.End, res.Graphs, res.Certified)
	}
}

// runRange certifies one leased range, heartbeating in the background.
// lost reports that the lease was fenced off mid-range; the partial work
// stays in the worker's shard as mergeable duplicates.
func runRange(ctx context.Context, opts WorkerOptions, grid sweep.Options, cache *sweep.Cache, lease Lease) (res *sweep.Result, lost bool, err error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hb := make(chan struct{})
	lostc := make(chan struct{}, 1)
	go func() {
		defer close(hb)
		tick := time.NewTicker(opts.TTL / 3)
		defer tick.Stop()
		l := lease
		for {
			select {
			case <-rctx.Done():
				return
			case <-tick.C:
				hbSpan := opts.Trace.Start("heartbeat")
				var herr error
				if l, herr = Heartbeat(opts.Dir, l, opts.TTL); herr != nil {
					hbSpan.End(obs.Attrs{"ok": false})
					if errors.Is(herr, ErrLeaseLost) {
						lostc <- struct{}{}
						cancel()
						return
					}
					// A transient heartbeat error (I/O) is retried on the
					// next tick; the lease survives until its deadline.
				} else {
					hbSpan.End(obs.Attrs{"ok": true})
					opts.Metrics.LeaseRenewed(l.Deadline)
				}
			}
		}
	}()

	ropts := grid
	ropts.ClassStart, ropts.ClassEnd = lease.Start, lease.End
	ropts.Workers = opts.SweepWorkers
	ropts.Cache = cache
	ropts.Trace = opts.Trace
	ropts.Metrics = opts.Metrics
	res, err = sweep.Run(rctx, ropts)
	cancel()
	<-hb
	select {
	case <-lostc:
		return res, true, nil
	default:
	}
	return res, false, err
}
