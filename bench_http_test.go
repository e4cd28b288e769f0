package bncg_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/sweep"
)

// HTTP serving benchmarks (PR 6). These drive the bncg daemon end to end
// over real HTTP — mux, admission control, metrics middleware, JSON
// encoding — against a cache certified for every n=5 class, so /v1/check
// answers purely from parametric certificates: the certified-cache hot
// path a warm production daemon serves. Each benchmark reports req/s via
// b.ReportMetric on top of the usual ns/op; benchjson gates the ns/op
// trajectory in BENCH_http.json.

// newBenchServer builds a daemon whose cache holds a certificate for
// every (n=5 class, concept) pair, plus an httptest front end.
func newBenchServer(b *testing.B) (*httptest.Server, string) {
	b.Helper()
	cache := sweep.NewCache()
	_, err := sweep.Run(context.Background(), sweep.Options{
		N:        5,
		Alphas:   []game.Alpha{game.A(2)},
		Concepts: eq.Concepts(),
		Cache:    cache,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(server.Config{Cache: cache})
	b.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)
	return ts, graph.Encode(game.Star(5))
}

func checkOnce(client *http.Client, url, body string) error {
	resp, err := client.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// BenchmarkServeCheckCertified is one client issuing /v1/check requests
// back to back — per-request latency of the certified hot path. The α
// (7/3) is off the sweep grid on purpose: certificates answer every α,
// and the benchmark must never fall back to a fresh computation.
func BenchmarkServeCheckCertified(b *testing.B) {
	ts, star := newBenchServer(b)
	url := ts.URL + "/v1/check?alpha=7/3"
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checkOnce(client, url, star); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeCheckParallel is the same request under RunParallel —
// aggregate throughput with concurrent clients sharing the daemon.
func BenchmarkServeCheckParallel(b *testing.B) {
	ts, star := newBenchServer(b)
	url := ts.URL + "/v1/check?alpha=7/3"
	var failed atomic.Bool
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := ts.Client()
		for pb.Next() {
			if err := checkOnce(client, url, star); err != nil {
				failed.Store(true)
				return
			}
		}
	})
	b.StopTimer()
	if failed.Load() {
		b.Fatal("a parallel client saw a failed request")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// hitPoolSize is the number of distinct requests the handler-only hit
// benchmark and alloc test cycle through.
const hitPoolSize = 256

// hitCache certifies every connected n=5 class under all nine concepts and
// every connected n=6 class under RE through 2-BSE, the certificates the
// serve-check workload's store holds. Computed once per process.
var hitCache = sync.OnceValues(func() (*sweep.Cache, error) {
	cache := sweep.NewCache()
	for _, part := range []struct {
		n        int
		concepts []eq.Concept
	}{{5, eq.Concepts()}, {6, eq.Concepts()[:7]}} {
		if _, err := sweep.Run(context.Background(), sweep.Options{
			N: part.n, Alphas: []game.Alpha{game.A(2)}, Concepts: part.concepts, Cache: cache,
		}); err != nil {
			return nil, err
		}
	}
	return cache, nil
})

// hitRequest is one reusable POST /v1/check: ServeHTTP reads the body
// through req, and body.Reset rewinds it for the next round.
type hitRequest struct {
	req  *http.Request
	body *bytes.Reader
	data []byte
}

// hitPool returns a server over hitCache and a pool of certificate hits:
// randomly relabelled n=5 and n=6 classes at random rational prices, one
// certified concept each, as the serve-check workload draws them.
func hitPool(tb testing.TB) (*server.Server, []hitRequest) {
	tb.Helper()
	cache, err := hitCache()
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	type class struct {
		g        *graph.Graph
		concepts []eq.Concept
	}
	var classes []class
	for _, n := range []int{5, 6} {
		concepts := eq.Concepts()
		if n == 6 {
			concepts = concepts[:7]
		}
		for g := range graph.AllClasses(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			classes = append(classes, class{g, concepts})
		}
	}
	pool := make([]hitRequest, hitPoolSize)
	for i := range pool {
		cl := classes[rng.Intn(len(classes))]
		g, err := cl.g.Permute(rng.Perm(cl.g.N()))
		if err != nil {
			tb.Fatal(err)
		}
		alpha := game.AFrac(1+rng.Int63n(40), 1+rng.Int63n(4))
		concept := cl.concepts[rng.Intn(len(cl.concepts))]
		data := []byte(graph.Encode(g))
		body := bytes.NewReader(data)
		req := httptest.NewRequest(http.MethodPost, "/v1/check?alpha="+alpha.String()+"&concept="+concept.String(), body)
		pool[i] = hitRequest{req: req, body: body, data: data}
	}
	return server.New(server.Config{Cache: cache}), pool
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so a handler-only loop measures the handler and nothing else.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// serveHit sends one pooled request through the handler and reports a
// non-200 answer.
func serveHit(srv *server.Server, w *discardWriter, rq *hitRequest) error {
	rq.body.Reset(rq.data)
	w.status = http.StatusOK
	srv.ServeHTTP(w, rq.req)
	if w.status != http.StatusOK {
		return fmt.Errorf("%s: status %d", rq.req.URL, w.status)
	}
	return nil
}

// BenchmarkServeCheckHandlerHit is the certified /v1/check hit through
// Server.ServeHTTP alone — admission, metrics, query and body parsing,
// canonical key, certificate lookup, JSON response — without a socket or
// a client, so its ns/op and allocs/op resolve changes to the handler that
// the loopback benchmarks' transport noise hides.
func BenchmarkServeCheckHandlerHit(b *testing.B) {
	srv, pool := hitPool(b)
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serveHit(srv, w, &pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
}

// checkHitAllocs is the allocation ceiling of one certified /v1/check hit
// through Server.ServeHTTP: the query's url.Values (4), the body reader
// and buffer (2), the decoded graph (5), the canonical key (3), the α
// string, the response buffer, its Content-Type header and the status
// recorder (1 each).
const checkHitAllocs = 18

// raceEnabled is set by race_test.go in builds with the race detector,
// whose instrumentation changes what escapes to the heap.
var raceEnabled bool

// TestCheckHitAllocs pins the hit path's allocations per request, a count
// that repeats exactly where its wall time does not.
func TestCheckHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	srv, pool := hitPool(t)
	cache, _ := hitCache()
	misses := cache.Stats().Misses
	w := &discardWriter{header: http.Header{}}
	i := 0
	allocs := testing.AllocsPerRun(len(pool), func() {
		if err := serveHit(srv, w, &pool[i%len(pool)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got := cache.Stats().Misses; got != misses {
		t.Fatalf("%d of the pooled requests missed the certificates", got-misses)
	}
	if allocs > checkHitAllocs {
		t.Fatalf("a certified /v1/check hit allocates %v objects, ceiling %d", allocs, checkHitAllocs)
	}
}
