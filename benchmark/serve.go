package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/sweep"
)

const (
	// hitPoolSize is the number of distinct hit requests built in set-up;
	// the run cycles through them.
	hitPoolSize = 1024
	// missEvery makes every 8th request a miss: the designed hit share is
	// 7/8.
	missEvery = 8
	// warmupRequests are sent over the loopback before timing starts.
	warmupRequests = 64
)

// checkReq is one POST /v1/check request and the verdict eq gives for it.
type checkReq struct {
	path    string // "/v1/check?alpha=...&concept=..."
	body    []byte // the graph, in graph.Encode's format
	g       *graph.Graph
	concept eq.Concept
	want    bool
	miss    bool
}

// serveBench is an in-process daemon wired the way `bncg serve -store`
// wires it, driven over one loopback connection by a closed loop.
type serveBench struct {
	dir    string
	st     *store.Store
	cache  *sweep.Cache
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
	spans  *lockedBuffer // store spans, traced runs only
	tracer *obs.Tracer

	hits      []checkReq
	nextHit   int
	missRng   *rand.Rand
	usedAlpha map[game.Alpha]bool
	ev        *eq.Evaluator
	allocs    []metrics.Sample

	warmstart time.Duration

	// Per phase.
	traced               bool
	start                time.Time
	sentHits, sentMisses int64
	cache0               sweep.CacheStats
	appended0            int64
	hitLat, missLat      []time.Duration

	// The untraced phase's figures, kept for the traced run's report.
	plainHitLat, plainMissLat []time.Duration
	plainHitRatio             float64

	// Traced phase.
	opNS, canonNS, checkNS      int64
	checks, loopMisses          int
	handlerHitNS, handlerMissNS int64
	handlerHits, handlerMisses  int
	handlerAllocs               uint64
	appended                    int64
	flushes                     int
	flushUS                     int64
}

// lockedBuffer is an io.Writer safe for the store's flusher goroutine and
// the request path at once.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func checkPath(alpha game.Alpha, c eq.Concept) string {
	return "/v1/check?alpha=" + alpha.String() + "&concept=" + c.String()
}

func newServeCheck(cfg config) (inst instance, err error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "serve-check-")
	if err != nil {
		return nil, err
	}
	b := &serveBench{
		dir:       dir,
		missRng:   rand.New(rand.NewSource(cfg.seed ^ 0x5eed)),
		usedAlpha: make(map[game.Alpha]bool),
		ev:        eq.NewEvaluator(),
		allocs:    []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
	defer func() {
		if err != nil {
			_ = b.close()
		}
	}()
	if err := fillStore(dir); err != nil {
		return nil, err
	}

	storeOpts := store.Options{FlushInterval: 2 * time.Second}
	if cfg.trace {
		b.spans = &lockedBuffer{}
		b.tracer = obs.NewTracer(b.spans, obs.TracerOptions{Source: "store"})
		storeOpts.Trace = b.tracer
	}
	t0 := time.Now()
	b.st, err = store.Open(dir, storeOpts)
	if err != nil {
		return nil, err
	}
	b.cache = sweep.NewCache()
	b.cache.WarmStart(b.st)
	b.warmstart = time.Since(t0)
	b.cache.Persist(b.st)

	b.srv = server.New(server.Config{Cache: b.cache, Store: b.st, Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.hs = &http.Server{Handler: b.srv, ReadHeaderTimeout: 10 * time.Second}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}

	if err := b.buildHits(rand.New(rand.NewSource(cfg.seed))); err != nil {
		return nil, err
	}
	for i := 0; i < warmupRequests; i++ {
		if _, err := b.op(i, false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

// fillStore certifies every connected n=5 class under all nine concepts and
// every connected n=6 class under RE through 2-BSE into a fresh store in
// dir, the way `bncg sweep -store` fills one.
func fillStore(dir string) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	cache := sweep.NewCache()
	cache.Persist(st)
	for _, part := range []struct {
		n        int
		concepts []eq.Concept
	}{{5, eq.Concepts()}, {6, eq.Concepts()[:7]}} {
		if _, err := sweep.Run(context.Background(), sweep.Options{
			N: part.n, Alphas: grid, Concepts: part.concepts, Workers: 1, Cache: cache,
		}); err != nil {
			_ = st.Close()
			return fmt.Errorf("filling the store: %w", err)
		}
	}
	cache.Persist(nil)
	return st.Close()
}

// buildHits builds the hit pool: randomly relabelled n=5 and n=6 classes at
// random rational prices, under concepts the store holds certificates for,
// each with the verdict eq.Check gives.
func (b *serveBench) buildHits(rng *rand.Rand) error {
	type class struct {
		g        *graph.Graph
		concepts []eq.Concept
	}
	var classes []class
	for _, n := range []int{5, 6} {
		concepts := eq.Concepts()
		if n == 6 {
			concepts = concepts[:7] // the store holds RE through 2-BSE
		}
		for g := range graph.AllClasses(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			classes = append(classes, class{g, concepts})
		}
	}
	for len(b.hits) < hitPoolSize {
		cl := classes[rng.Intn(len(classes))]
		concept := cl.concepts[rng.Intn(len(cl.concepts))]
		g, err := cl.g.Permute(rng.Perm(cl.g.N()))
		if err != nil {
			return err
		}
		alpha := game.AFrac(1+rng.Int63n(40), 1+rng.Int63n(4))
		gm, err := game.NewGame(g.N(), alpha)
		if err != nil {
			return err
		}
		b.hits = append(b.hits, checkReq{
			path:    checkPath(alpha, concept),
			body:    []byte(graph.Encode(g)),
			g:       g,
			concept: concept,
			want:    b.ev.Check(gm, g.Clone(), concept).Stable,
		})
	}
	return nil
}

// newMiss draws a miss: a random connected n=8 graph under one of the six
// non-coalition concepts, at a price no earlier request of the run used,
// so its verdict key is new to the cache.
func (b *serveBench) newMiss() (checkReq, error) {
	rng := b.missRng
	g, err := graph.RandomConnectedGNP(8, 0.25+0.35*rng.Float64(), rng)
	if err != nil {
		return checkReq{}, err
	}
	concept := nonCoalition[rng.Intn(len(nonCoalition))]
	// Prices (p + j/1024)/q with p ≤ 4000, q ≤ 32: ~10^8 distinct values,
	// so a run of a few hundred thousand misses never runs short of fresh
	// ones.
	var alpha game.Alpha
	for {
		p := (1+rng.Int63n(4000))*1024 + rng.Int63n(1024)
		alpha = game.AFrac(p, (1+rng.Int63n(32))*1024)
		if !b.usedAlpha[alpha] {
			break
		}
	}
	b.usedAlpha[alpha] = true
	gm, err := game.NewGame(8, alpha)
	if err != nil {
		return checkReq{}, err
	}
	t0 := time.Now()
	want := b.ev.Check(gm, g.Clone(), concept).Stable
	if b.traced {
		b.checkNS += time.Since(t0).Nanoseconds()
		b.checks++
	}
	return checkReq{
		path:    checkPath(alpha, concept),
		body:    []byte(graph.Encode(g)),
		g:       g,
		concept: concept,
		want:    want,
		miss:    true,
	}, nil
}

// request returns the request of op i: every missEvery-th is a miss.
func (b *serveBench) request(i int) (checkReq, error) {
	if i%missEvery == missEvery-1 {
		b.sentMisses++
		return b.newMiss()
	}
	b.sentHits++
	req := b.hits[b.nextHit%len(b.hits)]
	b.nextHit++
	return req, nil
}

func (b *serveBench) begin(traced bool) {
	b.traced = traced
	b.start = time.Now()
	b.sentHits, b.sentMisses = 0, 0
	b.cache0 = b.cache.Stats()
	b.appended0 = b.st.Stats().Appended
	b.hitLat, b.missLat = b.hitLat[:0], b.missLat[:0]
}

func (b *serveBench) end() error {
	stats := b.cache.Stats()
	hits, misses := stats.Hits-b.cache0.Hits, stats.Misses-b.cache0.Misses
	if hits != b.sentHits || misses != b.sentMisses {
		return fmt.Errorf("cache counted %d hits and %d misses; the pool sent %d and %d", hits, misses, b.sentHits, b.sentMisses)
	}
	ratio := float64(hits) / float64(hits+misses)
	if !b.traced {
		b.plainHitLat = append([]time.Duration(nil), b.hitLat...)
		b.plainMissLat = append([]time.Duration(nil), b.missLat...)
		b.plainHitRatio = ratio
		return nil
	}
	b.appended = b.st.Stats().Appended - b.appended0
	if err := b.tracer.Flush(); err != nil {
		return err
	}
	tr, err := obs.ReadTrace(bytes.NewReader(b.spans.snapshot()), "store")
	if err != nil {
		return err
	}
	from := b.start.UnixMicro()
	for _, sp := range tr.Spans {
		if sp.Name == "store_flush" && sp.StartUS >= from {
			b.flushes++
			b.flushUS += sp.DurUS
		}
	}
	return nil
}

func (b *serveBench) op(i int, traced bool) (time.Duration, error) {
	req, err := b.request(i)
	if err != nil {
		return 0, err
	}
	hr, err := http.NewRequest(http.MethodPost, b.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := b.client.Do(hr)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	if req.miss {
		b.missLat = append(b.missLat, d)
	} else {
		b.hitLat = append(b.hitLat, d)
	}
	if err != nil {
		return d, err
	}
	if err := verifyCheck(req, resp.StatusCode, body); err != nil {
		return d, err
	}
	if !traced {
		return d, nil
	}
	b.opNS += d.Nanoseconds()
	if req.miss {
		b.loopMisses++
	}
	// The canonical key the handler computes for this request, timed on
	// the same graph.
	t1 := time.Now()
	_ = req.g.CanonicalKey()
	b.canonNS += time.Since(t1).Nanoseconds()
	// A request of the same class through the handler alone, no socket.
	return d, b.handlerOnly(i)
}

// handlerOnly sends request i's class through Server.ServeHTTP into a
// recorder and times it. A miss gets a fresh miss of its own: the
// loopback one is now cached.
func (b *serveBench) handlerOnly(i int) error {
	req, err := b.request(i)
	if err != nil {
		return err
	}
	hr := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
	rec := httptest.NewRecorder()
	metrics.Read(b.allocs)
	before := b.allocs[0].Value.Uint64()
	t0 := time.Now()
	b.srv.ServeHTTP(rec, hr)
	d := time.Since(t0).Nanoseconds()
	metrics.Read(b.allocs)
	b.handlerAllocs += b.allocs[0].Value.Uint64() - before
	if req.miss {
		b.handlerMissNS += d
		b.handlerMisses++
	} else {
		b.handlerHitNS += d
		b.handlerHits++
	}
	return verifyCheck(req, rec.Code, rec.Body.Bytes())
}

// verifyCheck checks a /v1/check response against the verdict eq gave.
func verifyCheck(req checkReq, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", req.path, status, bytes.TrimSpace(body))
	}
	var resp struct {
		Results []struct {
			Concept string `json:"concept"`
			Stable  bool   `json:"stable"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: %w", req.path, err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Concept != req.concept.String() {
		return fmt.Errorf("%s: want one %s verdict, got %s", req.path, req.concept, bytes.TrimSpace(body))
	}
	if resp.Results[0].Stable != req.want {
		return fmt.Errorf("%s: stable=%t, eq says %t", req.path, resp.Results[0].Stable, req.want)
	}
	return nil
}

func (b *serveBench) layers(ops int) map[string]float64 {
	nsPerOp := func(ns float64) float64 { return ns / 1e6 / float64(ops) }
	hitP50, hitTail := latencyStats(b.plainHitLat)
	missP50, missTail := latencyStats(b.plainMissLat)
	handlerUS := float64(b.handlerHitNS+b.handlerMissNS) / 1e3 / float64(b.handlerHits+b.handlerMisses)
	opUS := float64(b.opNS) / 1e3 / float64(ops)
	checkUS := float64(b.checkNS) / 1e3 / float64(max(b.checks, 1))
	missShare := float64(b.loopMisses) / float64(ops)
	// The handler-only misses flush the store too; charge the loopback
	// ops only their share of the flush time.
	storeShare := float64(b.loopMisses) / float64(max(b.loopMisses+b.handlerMisses, 1))
	return map[string]float64{
		"graph.canonical_key_us":        float64(b.canonNS) / 1e3 / float64(ops),
		"eq.check_miss_us":              checkUS,
		"sweep.cache_hit_ratio":         b.plainHitRatio,
		"store.warmstart_ms":            float64(b.warmstart.Nanoseconds()) / 1e6,
		"store.appended":                float64(b.appended),
		"store.flushes":                 float64(b.flushes),
		"server.hit_p50_ms":             hitP50,
		"server.hit_tail_ms":            hitTail,
		"server.miss_p50_ms":            missP50,
		"server.miss_tail_ms":           missTail,
		"server.handler_hit_us":         float64(b.handlerHitNS) / 1e3 / float64(max(b.handlerHits, 1)),
		"server.handler_miss_us":        float64(b.handlerMissNS) / 1e3 / float64(max(b.handlerMisses, 1)),
		"server.handler_allocs_per_req": float64(b.handlerAllocs) / float64(b.handlerHits+b.handlerMisses),
		"server.transport_us":           opUS - handlerUS,
		"layer.graph_ms":                nsPerOp(float64(b.canonNS)),
		"layer.eq_ms":                   checkUS * missShare / 1e3,
		"layer.store_ms":                float64(b.flushUS) * storeShare / 1e3 / float64(ops),
		"layer.server_ms":               (opUS - handlerUS) / 1e3,
	}
}

// latencyStats returns the median and the tail (see tail) of lat, in ms.
func latencyStats(lat []time.Duration) (p50, tailMs float64) {
	sorted := sortedMs(lat)
	tailMs, _ = tail(sorted)
	return median(sorted), tailMs
}

func (b *serveBench) close() error {
	var errs []error
	if b.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := b.hs.Shutdown(ctx); err != nil {
			_ = b.hs.Close()
		}
		cancel()
		if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		b.hs = nil
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.srv != nil {
		_ = b.srv.Close()
	}
	if b.cache != nil {
		b.cache.Persist(nil)
	}
	if b.st != nil {
		errs = append(errs, b.st.Close())
		b.st = nil
	}
	errs = append(errs, os.RemoveAll(b.dir))
	return errors.Join(errs...)
}
