package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Prometheus-style observability without a client dependency: the daemon
// exposes the standard text exposition format on GET /metrics. The
// registry machinery lives in internal/obs (shared with the worker and
// sweep sidecars); this file wires the serving plane's instruments onto
// it. Per-route request counters and latency histograms are recorded by
// the ServeHTTP middleware; gauges (in-flight requests, cache and store
// state, flight counts) are sampled live at scrape time, so the scrape
// is always consistent with /healthz.

// metricRoutes are the route labels the middleware records under. Paths
// outside the served API collapse into "other" so an URL-scanning client
// cannot grow the label space without bound.
var metricRoutes = []string{
	"/v1/sweep", "/v1/poa", "/v1/critical", "/v1/check", "/v1/simulate",
	"/healthz", "/metrics", "other",
}

func metricRoute(path string) string {
	for _, r := range metricRoutes[:len(metricRoutes)-1] {
		if path == r {
			return r
		}
	}
	return "other"
}

// latencyBuckets are the histogram upper bounds in seconds (an implicit
// +Inf bucket follows): 100µs to 10s, covering certificate-cache hits
// through cold exhaustive sweeps.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metricsRegistry holds the middleware-recorded instruments plus the
// obs.Registry carrying every family the daemon exposes.
type metricsRegistry struct {
	reg      *obs.Registry
	requests *obs.CounterVec   // by route, code
	duration *obs.HistogramVec // by route
	rejected *obs.CounterVec   // admission rejections by reason
}

// newMetricsRegistry builds the daemon's exposition. Families register
// in the order they render; scrape-time gauges close over s, so this
// runs after the Server's other fields are in place.
func newMetricsRegistry(s *Server) *metricsRegistry {
	reg := obs.NewRegistry()
	m := &metricsRegistry{reg: reg}

	m.requests = reg.CounterVec("bncg_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	m.duration = reg.HistogramVec("bncg_http_request_duration_seconds",
		"HTTP request latency, by route.", latencyBuckets, "route")
	reg.GaugeFunc("bncg_http_inflight_requests", "Requests currently being served.",
		func() float64 { return float64(s.inflight.Load()) })
	m.rejected = reg.CounterVec("bncg_http_requests_rejected_total",
		"Requests rejected by admission control, by reason.", "reason")
	if s.gate != nil {
		reg.GaugeFunc("bncg_http_queued_requests", "Requests waiting for an in-flight slot.",
			func() float64 { return float64(s.gate.queuedCount()) })
	}

	// Singleflight: computations started vs streams served measures the
	// dedup win; live flights show what is burning CPU right now.
	reg.GaugeFunc("bncg_sweep_flights_inflight", "Shared sweep computations currently running.",
		func() float64 { return float64(s.sweeps.live()) })
	reg.Custom("bncg_sweep_flights_started_total",
		"Shared sweep computations ever started; /v1/sweep requests minus this is the singleflight join count.",
		"counter", func(e *obs.Exposition) { e.SampleInt(s.sweeps.startedCount()) })

	// Certificate cache.
	obs.RegisterCacheFamilies(reg, func() (int, int64, int64) {
		cs := s.cfg.Cache.Stats()
		return cs.Entries, cs.Hits, cs.Misses
	})
	reg.GaugeFunc("bncg_cache_hit_ratio", "Lifetime cache hit ratio (0 when no lookups yet).",
		func() float64 {
			cs := s.cfg.Cache.Stats()
			if total := cs.Hits + cs.Misses; total > 0 {
				return float64(cs.Hits) / float64(total)
			}
			return 0
		})

	// Store.
	if s.cfg.Store != nil {
		reg.Custom("bncg_store_records", "Persisted records, by kind.", "gauge",
			func(e *obs.Exposition) {
				e.SampleInt(int64(s.cfg.Store.Len()), obs.L("kind", "certificate"))
			})
		obs.RegisterStoreFamilies(reg, func() (int64, int64, int) {
			st := s.cfg.Store.Stats()
			return st.FlushFailures, st.DiskBytes, st.Pending
		})
	}

	reg.Custom("bncg_uptime_seconds", "Seconds since the daemon started.", "gauge",
		func(e *obs.Exposition) { e.SampleInt(int64(time.Since(s.started).Seconds())) })
	return m
}

// observe records one finished request.
func (m *metricsRegistry) observe(route string, code int, d time.Duration) {
	m.requests.With(route, strconv.Itoa(code)).Inc()
	m.duration.With(route).Observe(d.Seconds())
}

// reject counts one admission-control rejection by reason
// ("rate", "capacity", "queue_timeout").
func (m *metricsRegistry) reject(reason string) {
	m.rejected.With(reason).Inc()
}

// rejectedSnapshot returns the rejection counts by reason, for /healthz.
func (m *metricsRegistry) rejectedSnapshot() map[string]int64 {
	var out map[string]int64
	m.rejected.Each(func(values []string, n int64) {
		if out == nil {
			out = make(map[string]int64)
		}
		out[values[0]] = n
	})
	return out
}

// statusRecorder captures the response status for the metrics middleware
// while passing Flush through, so NDJSON streaming keeps working behind
// it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WriteText(w)
}
