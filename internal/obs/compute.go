package obs

import (
	"sync/atomic"
	"time"
)

// certifyBuckets spans the observed certify-latency range: sub-ms
// cache-adjacent classes up to the multi-minute monsters at n=7.
var certifyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250,
}

// trajectoryStepBuckets covers convergence-step counts from toy n up to
// the 10·n² ceiling at n=500.
var trajectoryStepBuckets = []float64{
	1, 2, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 25000, 50000, 100000,
}

// ComputeMetrics bundles the compute-plane instruments exposed by the
// `-metrics-addr` sidecar of `bncg worker` and `bncg sweep`: classes
// certified, a certify-latency histogram, cache hit/miss/entry samples,
// store flush bytes/failures, and lease epoch/deadline gauges. Recording
// methods are nil-receiver safe so callers thread an optional
// *ComputeMetrics exactly like an optional *Tracer.
type ComputeMetrics struct {
	Registry *Registry

	classes        *Counter
	cachedClasses  *Counter
	certificates   *Counter
	certifySeconds *Histogram
	ranges         *Counter
	steals         *Counter
	leasesLost     *Counter

	trajectories    *CounterVec // by outcome: converged / maxsteps
	trajectorySteps *Histogram
	trajectorySecs  *Histogram
	pairsExamined   *Counter
	incRepairs      *Counter
	incFallbacks    *Counter

	leaseEpoch    atomic.Int64
	leaseDeadline atomic.Int64 // UnixNano; 0 = no lease held
}

// NewComputeMetrics builds the registry with the recorded instrument
// families. Live cache/store state is attached afterwards with
// BindCacheStats/BindStoreStats (sampled at scrape time), keeping obs
// free of any dependency on the packages it observes.
func NewComputeMetrics() *ComputeMetrics {
	r := NewRegistry()
	m := &ComputeMetrics{Registry: r}
	m.classes = r.Counter("bncg_sweep_classes_total",
		"Isomorphism classes completed by this process.")
	m.cachedClasses = r.Counter("bncg_sweep_classes_cached_total",
		"Classes answered entirely from cached certificates.")
	m.certificates = r.Counter("bncg_certificates_total",
		"Fresh (class, concept) certificates computed.")
	m.certifySeconds = r.Histogram("bncg_certify_duration_seconds",
		"Latency of one certificate scan (per class and concept).", certifyBuckets)
	m.ranges = r.Counter("bncg_worker_ranges_total",
		"Lease ranges completed by this worker.")
	m.steals = r.Counter("bncg_worker_steals_total",
		"Expired leases stolen from other workers.")
	m.leasesLost = r.Counter("bncg_worker_leases_lost_total",
		"Leases lost to epoch fencing mid-range.")
	m.trajectories = r.CounterVec("bncg_sim_trajectories_total",
		"Dynamics trajectories finished, by outcome (converged or maxsteps).",
		"outcome")
	m.trajectorySteps = r.Histogram("bncg_sim_trajectory_steps",
		"Improving moves applied per finished trajectory.", trajectoryStepBuckets)
	m.trajectorySecs = r.Histogram("bncg_sim_trajectory_duration_seconds",
		"Wall-clock latency of one dynamics trajectory.", certifyBuckets)
	m.pairsExamined = r.Counter("bncg_sim_pairs_examined_total",
		"Candidate pairs examined by the move scans of finished trajectories (scan depth).")
	m.incRepairs = r.Counter("bncg_sim_incdist_repairs_total",
		"Distance rows repaired incrementally by the committed moves of finished trajectories: per toggle, the rows of the smaller side of the edge (plus both endpoints on a removal); entries mirrored into the other side's rows are not counted.")
	m.incFallbacks = r.Counter("bncg_sim_incdist_fallbacks_total",
		"Distance rows recomputed by a full BFS (removal affected set over budget) in finished trajectories.")
	r.GaugeFunc("bncg_lease_epoch",
		"Epoch of the currently held lease (0 when idle).",
		func() float64 { return float64(m.leaseEpoch.Load()) })
	r.GaugeFunc("bncg_lease_deadline_seconds",
		"Seconds until the held lease expires (0 when idle).",
		func() float64 {
			dl := m.leaseDeadline.Load()
			if dl == 0 {
				return 0
			}
			return time.Until(time.Unix(0, dl)).Seconds()
		})
	return m
}

// BindCacheStats attaches scrape-time cache sampling. The closure
// returns the current certificate count and lifetime hit/miss totals.
func (m *ComputeMetrics) BindCacheStats(fn func() (certificates int, hits, misses int64)) {
	if m == nil {
		return
	}
	RegisterCacheFamilies(m.Registry, fn)
}

// BindStoreStats attaches scrape-time store sampling: cumulative flushed
// bytes, flush failures, on-disk bytes and pending (unflushed) records.
func (m *ComputeMetrics) BindStoreStats(fn func() (flushedBytes, flushFailures, diskBytes int64, pending int)) {
	if m == nil {
		return
	}
	m.Registry.Custom("bncg_store_flushed_bytes_total",
		"Bytes appended to store segments by flushes.", "counter",
		func(e *Exposition) {
			b, _, _, _ := fn()
			e.SampleInt(b)
		})
	RegisterStoreFamilies(m.Registry, func() (int64, int64, int) {
		_, f, d, p := fn()
		return f, d, p
	})
}

// RegisterCacheFamilies registers the certificate cache's families on r,
// sampled by fn at scrape time: the resident certificates and the
// lifetime hits and misses in verdict units. The daemon and the sidecars
// both export the cache through it, so each family has one definition.
func RegisterCacheFamilies(r *Registry, fn func() (certificates int, hits, misses int64)) {
	r.Custom("bncg_cache_entries", "Entries resident in the in-memory certificate cache, by kind.", "gauge",
		func(e *Exposition) {
			c, _, _ := fn()
			e.SampleInt(int64(c), L("kind", "certificate"))
		})
	r.Custom("bncg_cache_hits_total", "Verdicts answered from a cached certificate.", "counter",
		func(e *Exposition) {
			_, h, _ := fn()
			e.SampleInt(h)
		})
	r.Custom("bncg_cache_misses_total", "Verdicts that fell through to a checker or certification.", "counter",
		func(e *Exposition) {
			_, _, mi := fn()
			e.SampleInt(mi)
		})
}

// RegisterStoreFamilies registers the store's on-disk bytes, pending
// (unflushed) records and flush failures on r, sampled by fn at scrape
// time: the one definition of these families for the daemon and the
// sidecars.
func RegisterStoreFamilies(r *Registry, fn func() (flushFailures, diskBytes int64, pending int)) {
	r.Custom("bncg_store_disk_bytes", "Bytes across all store segment files.", "gauge",
		func(e *Exposition) {
			_, d, _ := fn()
			e.SampleInt(d)
		})
	r.Custom("bncg_store_pending_records", "Records buffered in memory awaiting flush.", "gauge",
		func(e *Exposition) {
			_, _, p := fn()
			e.SampleInt(int64(p))
		})
	r.Custom("bncg_store_flush_failures_total",
		"Store flushes that returned an error; non-zero means durability is degraded.", "counter",
		func(e *Exposition) {
			f, _, _ := fn()
			e.SampleInt(f)
		})
}

// ClassDone records one completed class; cached marks classes answered
// without any fresh certification.
func (m *ComputeMetrics) ClassDone(cached bool) {
	if m == nil {
		return
	}
	m.classes.Inc()
	if cached {
		m.cachedClasses.Inc()
	}
}

// CertifyObserved records the latency of one fresh certificate scan.
func (m *ComputeMetrics) CertifyObserved(d time.Duration) {
	if m == nil {
		return
	}
	m.certificates.Inc()
	m.certifySeconds.Observe(d.Seconds())
}

// TrajectoryObserved records one finished dynamics trajectory for the
// simulation workload: its applied moves, outcome, the pairs its scans
// examined, the distance-kernel rows its commits repaired incrementally
// and by full-row fallback, and its wall-clock time.
func (m *ComputeMetrics) TrajectoryObserved(steps int, converged bool, pairsExamined int, repairs, fallbacks uint64, d time.Duration) {
	if m == nil {
		return
	}
	outcome := "maxsteps"
	if converged {
		outcome = "converged"
	}
	m.trajectories.With(outcome).Inc()
	m.trajectorySteps.Observe(float64(steps))
	m.pairsExamined.Add(int64(pairsExamined))
	m.incRepairs.Add(int64(repairs))
	m.incFallbacks.Add(int64(fallbacks))
	m.trajectorySecs.Observe(d.Seconds())
}

// LeaseHeld publishes the held lease's epoch and deadline; stolen marks
// a lease claimed off an expired owner.
func (m *ComputeMetrics) LeaseHeld(epoch int64, deadline time.Time, stolen bool) {
	if m == nil {
		return
	}
	m.leaseEpoch.Store(epoch)
	m.leaseDeadline.Store(deadline.UnixNano())
	if stolen {
		m.steals.Inc()
	}
}

// LeaseRenewed moves the held lease's deadline after a heartbeat.
func (m *ComputeMetrics) LeaseRenewed(deadline time.Time) {
	if m == nil {
		return
	}
	m.leaseDeadline.Store(deadline.UnixNano())
}

// LeaseDone clears the lease gauges; lost marks epoch-fence losses.
func (m *ComputeMetrics) LeaseDone(lost bool) {
	if m == nil {
		return
	}
	m.leaseEpoch.Store(0)
	m.leaseDeadline.Store(0)
	if lost {
		m.leasesLost.Inc()
	} else {
		m.ranges.Inc()
	}
}
