// Package server implements the bncg serving daemon: an HTTP front end
// over the sweep engine, the PoA searches and the equilibrium checkers,
// backed by its certificate cache and (optionally) the persistent
// certificate store, so repeat queries are pure memory or disk hits.
//
// Endpoints:
//
//	GET  /v1/sweep?n=5&alphas=1,2&concepts=PS,BSE[&trees=1][&rho=1]
//	     — streams the sweep as NDJSON: one header line, one line per
//	     (α, graph) item in the deterministic α-major stream order, one
//	     summary trailer. Identical concurrent requests share a single
//	     computation; a request cancelled by its client detaches, and the
//	     computation itself is cancelled once its last subscriber is gone.
//	GET  /v1/poa?n=8&alpha=4&concept=PS[&graphs=1]
//	     — the exhaustive Price-of-Anarchy search, deduplicated across
//	     concurrent identical requests, as one JSON object.
//	GET  /v1/critical?n=5[&concepts=PS,BSE][&trees=1]
//	     — the exact critical-α analysis: per concept, the rational
//	     breakpoints at which any class's verdict flips, with the stable
//	     class counts on every region between (and at) them. One
//	     certificate pass answers the whole α-axis; no grid parameter
//	     exists because none is needed. Deduplicated like /v1/poa.
//	POST /v1/check?alpha=3[&concept=PS][&witness=1]
//	     — checks the graph uploaded as the request body (plain edge-list
//	     format). A verdict is read off a cached sweep certificate for
//	     the graph's class when one exists; otherwise the checker runs
//	     and its verdict is returned, not memoized. witness=1 makes
//	     unstable verdicts run the checker, so they carry a witness move.
//	GET  /v1/simulate?n=200&alphas=2,100[&trajectories=50][&init=all]
//	     [&moves=ps|bge][&scheduler=uniform][&seed=7][&p=0.04][&max-steps=0]
//	     — streams a batch of sampled improving-response dynamics
//	     trajectories as NDJSON: one header line echoing the resolved
//	     parameters, one line per trajectory in deterministic index order,
//	     one per-α summary trailer. The seed makes the stream a pure
//	     function of the URL (see simulate.go).
//	GET  /healthz
//	     — liveness plus cache, store and traffic statistics; "degraded"
//	     when store flushes are failing.
//	GET  /metrics
//	     — Prometheus text exposition: per-route request counters and
//	     latency histograms, in-flight and queue gauges, cache hit ratio,
//	     singleflight and store statistics (see metrics.go).
//
// Every request is bounded by Config.RequestTimeout and the Config size
// caps; exceeding a cap is a 422, a malformed request a 400, and
// admission control (limiter.go) sheds excess load with 429/503 before
// any computation starts. Errors are JSON objects
// {"error": "...", "status": N}.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Config configures New. The zero value serves with a fresh cache owned by
// the server, no store, and the documented default limits.
type Config struct {
	// Cache is the certificate cache backing /v1/sweep, /v1/poa,
	// /v1/critical and /v1/check.
	// Nil selects a fresh sweep.NewCache() private to this server.
	Cache *sweep.Cache
	// Store, when non-nil, is reported by /healthz. It persists the same
	// eq.AlphaSet certificates under the same store.CertKey that Cache
	// serves /v1/check from. The server never writes it directly: wiring
	// it as the cache's write-behind sink (Cache.Persist), warm-starting
	// the cache from it, and flushing/closing it on shutdown are the
	// caller's composition — the bncg serve command does all three.
	Store *store.Store
	// Workers is the sweep worker-pool size per computation (0 = all CPUs).
	Workers int
	// MaxN and MaxTreeN cap the node count of sweep and PoA enumerations
	// over connected graphs and free trees (defaults 7 and 12: the largest
	// grids that stay interactive — beyond them the streams explode).
	// MaxN is clamped to graph.MaxEnumNodes, the graph enumeration's own
	// limit.
	MaxN, MaxTreeN int
	// MaxAlphas caps the α grid of one sweep request (default 16).
	MaxAlphas int
	// MaxCheckN caps the node count of an uploaded /v1/check graph
	// (default 128); request bodies are capped at 1 MiB regardless.
	MaxCheckN int
	// MaxSimN caps the node count of a /v1/simulate batch (default 500)
	// and MaxTrajectories its total trajectory count — the product of the
	// α-grid size and the per-α trajectories (default 2000).
	MaxSimN         int
	MaxTrajectories int
	// RequestTimeout bounds every computation (default 2m). Shared
	// computations time out as a whole, not per subscriber.
	RequestTimeout time.Duration

	// RatePerSec and Burst configure per-client (remote IP) token-bucket
	// rate limiting. RatePerSec 0 disables it — the default. A client over
	// budget gets an immediate 429 with Retry-After.
	RatePerSec float64
	Burst      int
	// MaxInflight caps concurrently admitted requests (default 256);
	// /healthz and /metrics bypass admission so a saturated daemon stays
	// observable. MaxQueue bounds requests waiting for a slot (default
	// MaxInflight) — a request arriving to a full queue is rejected
	// immediately with 429. QueueWait bounds one request's time in the
	// queue (default 1s); exceeding it is a 503.
	MaxInflight int
	MaxQueue    int
	QueueWait   time.Duration

	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/
	// (bncg serve -pprof). Profiling endpoints go through admission
	// control like any other non-observability route.
	EnablePprof bool

	// DefaultVariant is the game variant served when a request carries no
	// "variant" query parameter (bncg serve -variant). The zero value is
	// the paper's default model; requests override it per call.
	DefaultVariant game.Variant
}

func (c Config) withDefaults() Config {
	if c.Cache == nil {
		c.Cache = sweep.NewCache()
	}
	if c.MaxN <= 0 {
		c.MaxN = 7
	}
	c.MaxN = min(c.MaxN, graph.MaxEnumNodes)
	if c.MaxTreeN <= 0 {
		c.MaxTreeN = 12
	}
	if c.MaxAlphas <= 0 {
		c.MaxAlphas = 16
	}
	if c.MaxCheckN <= 0 {
		c.MaxCheckN = 128
	}
	if c.MaxSimN <= 0 {
		c.MaxSimN = 500
	}
	if c.MaxTrajectories <= 0 {
		c.MaxTrajectories = 2000
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInflight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	return c
}

// Server is the HTTP handler of the serving daemon.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	sweeps  *flightGroup
	calls   *callGroup
	started time.Time
	metrics *metricsRegistry
	limiter *tokenBuckets
	gate    *gate

	inflight atomic.Int64
	served   atomic.Int64
}

// New returns a Server for cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		sweeps:  newFlightGroup(),
		calls:   newCallGroup(),
		started: time.Now(),
		limiter: newTokenBuckets(cfg.RatePerSec, cfg.Burst),
		gate:    newGate(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueWait),
	}
	s.metrics = newMetricsRegistry(s)
	s.mux.HandleFunc("GET /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/poa", s.handlePoA)
	s.mux.HandleFunc("GET /v1/critical", s.handleCritical)
	s.mux.HandleFunc("POST /v1/check", s.handleCheck)
	s.mux.HandleFunc("GET /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		obs.MountPprof(s.mux)
	}
	return s
}

// Close releases the server. A Server starts no background work of its
// own, so Close has nothing to stop and returns nil; the HTTP listener's
// lifecycle belongs to the caller.
func (s *Server) Close() error { return nil }

// ServeHTTP implements http.Handler: admission control (rate limit, then
// the global in-flight gate), the metrics middleware, and the mux.
// Observability routes bypass admission — a saturated daemon must stay
// diagnosable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	route := metricRoute(r.URL.Path)
	rec := &statusRecorder{ResponseWriter: w}
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.served.Add(1)
		s.metrics.observe(route, rec.status(), time.Since(start))
	}()
	if route != "/healthz" && route != "/metrics" {
		if s.limiter != nil && !s.limiter.allow(clientKey(r), time.Now()) {
			s.metrics.reject("rate")
			rec.Header().Set("Retry-After", "1")
			writeError(rec, &httpError{http.StatusTooManyRequests, "rate limit exceeded"})
			return
		}
		switch err := s.gate.enter(r.Context()); {
		case err == nil:
			defer s.gate.leave()
		case errors.Is(err, errQueueFull):
			s.metrics.reject("capacity")
			rec.Header().Set("Retry-After", "1")
			writeError(rec, &httpError{http.StatusTooManyRequests, err.Error()})
			return
		case errors.Is(err, errQueueTimeout):
			s.metrics.reject("queue_timeout")
			rec.Header().Set("Retry-After", "1")
			writeError(rec, &httpError{http.StatusServiceUnavailable, err.Error()})
			return
		default: // client gave up while queued
			writeError(rec, err)
			return
		}
	}
	s.mux.ServeHTTP(rec, r)
}

// httpError is a client-visible request failure.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

func overLimit(format string, args ...any) *httpError {
	return &httpError{http.StatusUnprocessableEntity, fmt.Sprintf(format, args...)}
}

// errorBody is the stable JSON error schema of every endpoint: the
// human-readable message plus the status code repeated in the body, so
// clients parsing NDJSON or logs see the code without the transport
// headers. Pinned by the table-driven error tests; extend it, never
// change existing fields.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Status: status})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ---- request parsing ----

func (s *Server) parseN(r *http.Request, trees bool) (int, error) {
	q := r.URL.Query().Get("n")
	if q == "" {
		return 0, badRequest("missing n")
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 1 {
		return 0, badRequest("bad n %q", q)
	}
	limit := s.cfg.MaxN
	if trees {
		limit = s.cfg.MaxTreeN
	}
	if n > limit {
		return 0, overLimit("n=%d exceeds the server limit %d", n, limit)
	}
	return n, nil
}

func (s *Server) parseAlphas(r *http.Request) ([]game.Alpha, error) {
	q := r.URL.Query().Get("alphas")
	if q == "" {
		return nil, badRequest("missing alphas")
	}
	if k := strings.Count(q, ",") + 1; k > s.cfg.MaxAlphas {
		return nil, overLimit("%d alphas exceed the server limit %d", k, s.cfg.MaxAlphas)
	}
	alphas, err := game.ParseAlphas(q)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return alphas, nil
}

func parseConcepts(r *http.Request) ([]eq.Concept, error) {
	q := r.URL.Query().Get("concepts")
	if q == "" {
		return eq.Concepts(), nil
	}
	concepts, err := eq.ParseConcepts(q)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return concepts, nil
}

func boolParam(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// parseVariant reads the optional "variant" query parameter shared by
// /v1/sweep, /v1/critical and /v1/check. An absent or empty parameter
// selects the daemon's configured default (the paper's model unless
// `serve -variant` says otherwise), so pre-variant request URLs keep
// their exact meaning on a default daemon.
func (s *Server) parseVariant(r *http.Request) (game.Variant, error) {
	q := r.URL.Query().Get("variant")
	if q == "" {
		return s.cfg.DefaultVariant, nil
	}
	v, err := game.ParseVariant(q)
	if err != nil {
		return game.Variant{}, badRequest("%v", err)
	}
	return v, nil
}

// ---- /v1/sweep ----

// The NDJSON line schemas of /v1/sweep. Every line carries "type"; graphs
// are encoded in the plain edge-list format on the items of the first α
// row (alpha_index 0), where each isomorphism class appears first.
type sweepHeader struct {
	Type          string   `json:"type"` // "header"
	SchemaVersion int      `json:"schema_version"`
	N             int      `json:"n"`
	Source        string   `json:"source"`
	Variant       string   `json:"variant,omitempty"`
	Alphas        []string `json:"alphas"`
	Concepts      []string `json:"concepts"`
	Rho           bool     `json:"with_rho,omitempty"`
	Shared        bool     `json:"shared,omitempty"` // joined an in-flight computation
}

type sweepItemLine struct {
	Type       string  `json:"type"` // "item"
	AlphaIndex int     `json:"alpha_index"`
	GraphIndex int     `json:"graph_index"`
	Vector     uint16  `json:"vector"`
	Rho        float64 `json:"rho,omitempty"`
	FromCache  bool    `json:"from_cache,omitempty"`
	Graph      string  `json:"graph,omitempty"`
}

type sweepSummary struct {
	Type        string `json:"type"` // "summary"
	Graphs      int    `json:"graphs"`
	Completed   int    `json:"completed"`
	Total       int    `json:"total"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Error       string `json:"error,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	trees := boolParam(r, "trees")
	n, err := s.parseN(r, trees)
	if err != nil {
		writeError(w, err)
		return
	}
	alphas, err := s.parseAlphas(r)
	if err != nil {
		writeError(w, err)
		return
	}
	concepts, err := parseConcepts(r)
	if err != nil {
		writeError(w, err)
		return
	}
	variant, err := s.parseVariant(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := eq.ValidateVariant(n, variant, concepts); err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	opts := sweep.Options{
		N:        n,
		Alphas:   alphas,
		Concepts: concepts,
		Variant:  variant,
		Workers:  s.cfg.Workers,
		Cache:    s.cfg.Cache,
		Rho:      boolParam(r, "rho"),
	}
	if opts.Rho && !variant.IsDefault() {
		writeError(w, badRequest("rho is defined for the default variant only"))
		return
	}
	if trees {
		opts.Source = sweep.Trees
	}

	key := sweepKey(opts)
	joined := s.sweeps.hasFlight(key)
	fl := s.sweeps.join(key, s.cfg.RequestTimeout, func(ctx context.Context, fl *flight) {
		runOpts := opts
		runOpts.OnItem = fl.publish
		res, err := sweep.Run(ctx, runOpts)
		fl.finish(res, err)
	})
	defer fl.leave()
	stop := fl.watch(r.Context())
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	header := sweepHeader{
		Type:          "header",
		SchemaVersion: sweep.SchemaVersion,
		N:             n,
		Source:        opts.Source.String(),
		Variant:       variant.Key(),
		Alphas:        alphaStrings(alphas),
		Concepts:      conceptStrings(concepts),
		Rho:           opts.Rho,
		Shared:        joined,
	}
	if enc.Encode(header) != nil {
		return
	}
	flush()

	for i := 0; ; i++ {
		it, ok := fl.next(r.Context(), i)
		if !ok {
			break
		}
		line := sweepItemLine{
			Type:       "item",
			AlphaIndex: it.AlphaIndex,
			GraphIndex: it.GraphIndex,
			Vector:     uint16(it.Vector),
			Rho:        it.Rho,
			FromCache:  it.FromCache,
		}
		if it.AlphaIndex == 0 {
			line.Graph = graph.Encode(it.Graph)
		}
		if enc.Encode(line) != nil {
			return // client gone; leave() detaches us
		}
		flush()
	}
	if r.Context().Err() != nil {
		return
	}
	res, runErr := fl.outcome()
	summary := sweepSummary{Type: "summary"}
	if res != nil {
		summary.Graphs = res.Graphs
		summary.Completed = res.Completed
		summary.Total = len(res.Items)
		summary.CacheHits = res.Hits
		summary.CacheMisses = res.Misses
	}
	if runErr != nil {
		summary.Error = runErr.Error()
	}
	enc.Encode(summary)
	flush()
}

// sweepKey normalizes a sweep request for singleflight deduplication. The
// exact reduced α strings, concept names and the canonical variant
// descriptor make syntactically different but semantically equal grids
// ("2/4" vs "1/2", "max,unilateral" vs "unilateral,max") share one flight.
func sweepKey(opts sweep.Options) string {
	return fmt.Sprintf("n=%d src=%s v=%s rho=%t a=%s c=%s",
		opts.N, opts.Source, opts.Variant.Key(), opts.Rho,
		strings.Join(alphaStrings(opts.Alphas), ","),
		strings.Join(conceptStrings(opts.Concepts), ","))
}

func alphaStrings(alphas []game.Alpha) []string {
	out := make([]string, len(alphas))
	for i, a := range alphas {
		out[i] = a.String()
	}
	return out
}

func conceptStrings(concepts []eq.Concept) []string {
	out := make([]string, len(concepts))
	for i, c := range concepts {
		out[i] = c.String()
	}
	return out
}

// ---- /v1/poa ----

func (s *Server) handlePoA(w http.ResponseWriter, r *http.Request) {
	graphs := boolParam(r, "graphs")
	n, err := s.parseN(r, !graphs)
	if err != nil {
		writeError(w, err)
		return
	}
	if variant, err := s.parseVariant(r); err != nil {
		writeError(w, err)
		return
	} else if !variant.IsDefault() {
		// PoA normalizes by OptCost, whose closed forms are specific to the
		// default model.
		writeError(w, badRequest("poa is defined for the default variant only"))
		return
	}
	alpha, err := game.ParseAlpha(r.URL.Query().Get("alpha"))
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	concept, err := eq.ParseConcept(r.URL.Query().Get("concept"))
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	key := fmt.Sprintf("poa n=%d a=%s c=%s graphs=%t", n, alpha, concept, graphs)
	val, runErr, shared := s.calls.Do(r.Context(), key, s.cfg.RequestTimeout, func(ctx context.Context) (any, error) {
		if graphs {
			res, err := core.WorstGraph(ctx, n, alpha, concept, s.cfg.Cache)
			return res, err
		}
		res, err := core.WorstTree(ctx, n, alpha, concept, s.cfg.Cache)
		return res, err
	})
	if val == nil {
		writeError(w, runErr)
		return
	}
	resp := val.(core.PoAResult).Payload(n, alpha, concept, runErr != nil)
	resp.Shared = shared
	writeJSON(w, resp)
}

// ---- /v1/critical ----

func (s *Server) handleCritical(w http.ResponseWriter, r *http.Request) {
	trees := boolParam(r, "trees")
	n, err := s.parseN(r, trees)
	if err != nil {
		writeError(w, err)
		return
	}
	concepts, err := parseConcepts(r)
	if err != nil {
		writeError(w, err)
		return
	}
	variant, err := s.parseVariant(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := eq.ValidateVariant(n, variant, concepts); err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	opts := sweep.Options{
		N: n,
		// The grid is irrelevant to certificates; one α satisfies the
		// engine's options contract without costing anything.
		Alphas:   []game.Alpha{game.A(1)},
		Concepts: concepts,
		Variant:  variant,
		Workers:  s.cfg.Workers,
		Cache:    s.cfg.Cache,
	}
	if trees {
		opts.Source = sweep.Trees
	}
	key := "critical " + sweepKey(opts)
	val, runErr, shared := s.calls.Do(r.Context(), key, s.cfg.RequestTimeout, func(ctx context.Context) (any, error) {
		return sweep.Run(ctx, opts)
	})
	if val == nil || runErr != nil {
		if runErr == nil {
			runErr = errors.New("critical analysis failed")
		}
		writeError(w, runErr)
		return
	}
	res := val.(*sweep.Result)
	resp := res.CriticalPayload()
	resp.Report = res.CriticalReport()
	resp.Shared = shared
	writeJSON(w, resp)
}

// ---- /v1/check ----

type checkVerdict struct {
	Concept   string `json:"concept"`
	Stable    bool   `json:"stable"`
	Witness   string `json:"witness,omitempty"`
	FromCache bool   `json:"from_cache,omitempty"`
}

type checkResponse struct {
	SchemaVersion int            `json:"schema_version"`
	N             int            `json:"n"`
	Alpha         string         `json:"alpha"`
	Variant       string         `json:"variant,omitempty"`
	Results       []checkVerdict `json:"results"`
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	// The other endpoints bound their computations through the flight
	// groups; /v1/check computes inline, so it carries its own deadline.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	alpha, err := game.ParseAlpha(r.URL.Query().Get("alpha"))
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	concepts := eq.Concepts()
	if q := r.URL.Query().Get("concept"); q != "" {
		c, err := eq.ParseConcept(q)
		if err != nil {
			writeError(w, badRequest("%v", err))
			return
		}
		concepts = []eq.Concept{c}
	}
	variant, err := s.parseVariant(r)
	if err != nil {
		writeError(w, err)
		return
	}
	wantWitness := boolParam(r, "witness")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, badRequest("reading body: %v", err))
		return
	}
	g, err := graph.Decode(string(body))
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	if g.N() > s.cfg.MaxCheckN {
		writeError(w, overLimit("graph on %d nodes exceeds the server limit %d", g.N(), s.cfg.MaxCheckN))
		return
	}
	gm, err := game.NewGame(g.N(), alpha)
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	if err := eq.ValidateVariant(g.N(), variant, concepts); err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	gm.Variant = variant
	vkey := variant.Key()
	// One canonical key serves every concept. Certificates come only from
	// sweeps: graph sweeps key by CanonicalKey and stop at
	// graph.MaxEnumNodes, and tree sweeps key by FreeTreeKey, a disjoint
	// alphabet no upload matches. Above that node count no certificate can
	// exist, so the key — super-exponential on symmetric graphs — is
	// skipped.
	keyed := g.N() <= graph.MaxEnumNodes
	var canon string
	if keyed {
		canon = g.CanonicalKey()
	}
	resp := checkResponse{SchemaVersion: sweep.SchemaVersion, N: g.N(), Alpha: alpha.String(), Variant: vkey}
	ev := eq.NewEvaluator()
	for _, concept := range concepts {
		if ctx.Err() != nil {
			writeError(w, ctx.Err())
			return
		}
		v := checkVerdict{Concept: concept.String()}
		var set eq.AlphaSet
		var ok bool
		if keyed {
			set, ok = s.cfg.Cache.GetCert(store.CertKey{Canon: canon, Concept: concept, Variant: vkey})
		}
		if ok && !(wantWitness && !set.Contains(alpha)) {
			// A parametric certificate answers any α, including prices no
			// sweep ever put on a grid.
			v.Stable, v.FromCache = set.Contains(alpha), true
		} else {
			// Checkers mutate the graph under test; evaluate a clone.
			res := ev.Check(gm, g.Clone(), concept)
			v.Stable = res.Stable
			if !res.Stable && res.Witness != nil {
				v.Witness = fmt.Sprint(res.Witness)
			}
		}
		s.cfg.Cache.CountLookup(v.FromCache)
		resp.Results = append(resp.Results, v)
	}
	writeJSON(w, resp)
}

// ---- /healthz ----

type healthz struct {
	// Status is "ok", or "degraded" when the store has failed flushes —
	// the daemon keeps serving from memory but new certificates may not
	// be durable.
	SchemaVersion int              `json:"schema_version"`
	Status        string           `json:"status"`
	UptimeSeconds int64            `json:"uptime_seconds"`
	Inflight      int64            `json:"requests_inflight"`
	Served        int64            `json:"requests_served"`
	Rejected      map[string]int64 `json:"requests_rejected,omitempty"`
	SweepsLive    int              `json:"sweeps_inflight"`
	SweepsStarted int64            `json:"sweeps_started"`
	Cache         sweep.CacheStats `json:"cache"`
	Store         *store.Stats     `json:"store,omitempty"`
	Limits        map[string]int   `json:"limits"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthz{
		SchemaVersion: sweep.SchemaVersion,
		Status:        "ok",
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
		Inflight:      s.inflight.Load(),
		Served:        s.served.Load(),
		SweepsLive:    s.sweeps.live(),
		SweepsStarted: s.sweeps.startedCount(),
		Cache:         s.cfg.Cache.Stats(),
		Limits: map[string]int{
			"max_n":            s.cfg.MaxN,
			"max_tree_n":       s.cfg.MaxTreeN,
			"max_alphas":       s.cfg.MaxAlphas,
			"max_check_n":      s.cfg.MaxCheckN,
			"max_sim_n":        s.cfg.MaxSimN,
			"max_trajectories": s.cfg.MaxTrajectories,
			"max_inflight":     s.cfg.MaxInflight,
			"max_queue":        s.cfg.MaxQueue,
			"request_timeout":  int(s.cfg.RequestTimeout.Seconds()),
		},
	}
	h.Rejected = s.metrics.rejectedSnapshot()
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		h.Store = &st
		if st.FlushFailures > 0 {
			h.Status = "degraded"
		}
	}
	writeJSON(w, h)
}
