package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/construct"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Production-hardening tests (PR 6): the /metrics exposition, the pinned
// JSON error schema, admission control, fault degradation and the
// concurrency soak.

// parseErrorBody asserts the pinned error schema {"error": ..., "status": ...}
// and that the embedded status matches the transport status.
func parseErrorBody(t *testing.T, status int, body string) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("error body is not the pinned schema: %v: %s", err, body)
	}
	if eb.Error == "" || eb.Status != status {
		t.Fatalf("error body %+v does not mirror transport status %d", eb, status)
	}
	// Nothing beyond the pinned fields sneaks in.
	var raw map[string]any
	if err := json.Unmarshal([]byte(body), &raw); err != nil || len(raw) != 2 {
		t.Fatalf("error schema grew fields: %s", body)
	}
	return eb
}

// TestErrorSchemaEveryEndpoint: every endpoint's every failure mode
// returns the same two-field JSON error object with the status mirrored
// in the body — the schema clients are allowed to depend on.
func TestErrorSchemaEveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 5, MaxAlphas: 2, MaxCheckN: 6})
	star := graph.Encode(game.Star(6))
	for _, tc := range []struct {
		name   string
		method string
		url    string
		body   string
		status int
	}{
		{"sweep missing n", "GET", "/v1/sweep?alphas=1", "", 400},
		{"sweep malformed n", "GET", "/v1/sweep?n=abc&alphas=1", "", 400},
		{"sweep n over cap", "GET", "/v1/sweep?n=6&alphas=1", "", 422},
		{"sweep malformed alpha", "GET", "/v1/sweep?n=4&alphas=1/0", "", 400},
		{"sweep too many alphas", "GET", "/v1/sweep?n=4&alphas=1,2,3", "", 422},
		{"sweep bad concept", "GET", "/v1/sweep?n=4&alphas=1&concepts=NOPE", "", 400},
		{"poa malformed alpha", "GET", "/v1/poa?n=4&alpha=x&concept=PS", "", 400},
		{"poa bad concept", "GET", "/v1/poa?n=4&alpha=2&concept=nope", "", 400},
		{"critical n over cap", "GET", "/v1/critical?n=9", "", 422},
		{"check malformed alpha", "POST", "/v1/check?alpha=", star, 400},
		{"check bad concept", "POST", "/v1/check?alpha=2&concept=ZZ", star, 400},
		{"check malformed graph", "POST", "/v1/check?alpha=2", "not a graph", 400},
		{"check graph over cap", "POST", "/v1/check?alpha=2", graph.Encode(game.Star(7)), 422},
		{"simulate missing n", "GET", "/v1/simulate?alphas=1", "", 400},
		{"simulate malformed n", "GET", "/v1/simulate?n=one&alphas=1", "", 400},
		{"simulate n over cap", "GET", "/v1/simulate?n=501&alphas=1", "", 422},
		{"simulate malformed alpha", "GET", "/v1/simulate?n=10&alphas=1/0", "", 400},
		{"simulate trajectory cap", "GET", "/v1/simulate?n=10&alphas=1,2&trajectories=2000", "", 422},
		{"simulate trajectory overflow", "GET", "/v1/simulate?n=4&alphas=1,2&trajectories=4611686018427387905", "", 422},
		{"simulate bad init", "GET", "/v1/simulate?n=10&alphas=1&init=clique", "", 400},
		{"simulate bad moves", "GET", "/v1/simulate?n=10&alphas=1&moves=ne", "", 400},
		{"simulate bad scheduler", "GET", "/v1/simulate?n=10&alphas=1&scheduler=zigzag", "", 400},
		{"simulate bad seed", "GET", "/v1/simulate?n=10&alphas=1&seed=-3", "", 400},
		{"simulate bad p", "GET", "/v1/simulate?n=10&alphas=1&p=1.5", "", 400},
		{"simulate NaN p", "GET", "/v1/simulate?n=10&alphas=1&init=er&p=NaN", "", 400},
		{"method not allowed", "GET", "/v1/check?alpha=2", "", 405},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if tc.status == 405 {
				// The mux's method rejection predates our JSON schema and is
				// exempt from it; everything we write ourselves is pinned.
				return
			}
			parseErrorBody(t, resp.StatusCode, string(body))
		})
	}
}

// TestCheckDeadlineExceeded: a /v1/check that cannot finish inside
// RequestTimeout answers 504 in the pinned schema.
func TestCheckDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, err := http.Post(ts.URL+"/v1/check?alpha=2", "text/plain",
		strings.NewReader(graph.Encode(game.Star(5))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	parseErrorBody(t, resp.StatusCode, string(body))
}

// TestRateLimiting: with a one-token bucket the second immediate request
// from the same client is a 429 with Retry-After, in the pinned schema,
// and the rejection shows up in /healthz and /metrics. /healthz itself is
// never limited.
func TestRateLimiting(t *testing.T) {
	_, ts := newTestServer(t, Config{RatePerSec: 0.0001, Burst: 1})
	if status, body := get(t, ts.URL+"/v1/critical?n=3"); status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/v1/critical?n=3")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	parseErrorBody(t, resp.StatusCode, string(body))

	for i := 0; i < 3; i++ {
		if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
			t.Fatal("healthz must bypass rate limiting")
		}
	}
	var h struct {
		Rejected map[string]int64 `json:"requests_rejected"`
	}
	_, hb := get(t, ts.URL+"/healthz")
	if err := json.Unmarshal([]byte(hb), &h); err != nil {
		t.Fatal(err)
	}
	if h.Rejected["rate"] != 1 {
		t.Fatalf("healthz rejected = %v, want rate:1", h.Rejected)
	}
	_, mb := get(t, ts.URL+"/metrics")
	if !strings.Contains(mb, `bncg_http_requests_rejected_total{reason="rate"} 1`) {
		t.Fatalf("rejection missing from /metrics:\n%s", mb)
	}
}

// TestConcurrencyGate: with every in-flight slot and queue position
// occupied a new request is shed immediately with 429; a queued request
// outliving QueueWait gets 503. Observability routes bypass the gate.
func TestConcurrencyGate(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1, QueueWait: 100 * time.Millisecond})

	// Occupy the only slot directly — deterministic, no slow handler races.
	if err := s.gate.enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.gate.leave()

	// Fill the one queue position with a request that will wait out
	// QueueWait and come back 503.
	type result struct {
		status int
		body   string
	}
	queued := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/critical?n=3")
		if err != nil {
			queued <- result{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		queued <- result{resp.StatusCode, string(b)}
	}()
	// Wait until it is actually queued before probing the full-queue path.
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.queuedCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	status, body := get(t, ts.URL+"/v1/critical?n=3")
	if status != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429: %s", status, body)
	}
	parseErrorBody(t, status, body)

	r := <-queued
	if r.status != http.StatusServiceUnavailable {
		t.Fatalf("queued request: status %d, want 503: %s", r.status, r.body)
	}
	parseErrorBody(t, r.status, r.body)

	if status, _ := get(t, ts.URL+"/metrics"); status != http.StatusOK {
		t.Fatal("metrics must bypass the gate")
	}
	_, mb := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`bncg_http_requests_rejected_total{reason="capacity"} 1`,
		`bncg_http_requests_rejected_total{reason="queue_timeout"} 1`,
	} {
		if !strings.Contains(mb, want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, mb)
		}
	}
}

// TestMetricsExposition: after known traffic, /metrics carries the
// per-route counters and latency histograms, the cache hit ratio, and the
// store gauges — in well-formed Prometheus text exposition.
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cache := sweep.NewCache()
	cache.Persist(st)
	defer cache.Persist(nil)
	_, ts := newTestServer(t, Config{Cache: cache, Store: st})

	get(t, ts.URL+"/v1/sweep?n=4&alphas=1&concepts=PS")
	star := graph.Encode(game.Star(4))
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/check?alpha=2", "text/plain", strings.NewReader(star))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get(t, ts.URL+"/v1/sweep?nope") // a 400 to split the code label
	get(t, ts.URL+"/no/such/path")  // lands in route="other"

	_, body := get(t, ts.URL+"/metrics")

	for _, want := range []string{
		`bncg_http_requests_total{route="/v1/check",code="200"} 3`,
		`bncg_http_requests_total{route="/v1/sweep",code="200"} 1`,
		`bncg_http_requests_total{route="/v1/sweep",code="400"} 1`,
		`bncg_http_requests_total{route="other",code="404"} 1`,
		`bncg_http_request_duration_seconds_count{route="/v1/check"} 3`,
		`bncg_http_request_duration_seconds_bucket{route="/v1/check",le="+Inf"} 3`,
		"# TYPE bncg_http_request_duration_seconds histogram",
		"bncg_http_inflight_requests",
		"bncg_sweep_flights_started_total 1",
		`bncg_cache_entries{kind="certificate"}`,
		"bncg_cache_hits_total",
		"bncg_cache_misses_total",
		"bncg_cache_hit_ratio",
		`bncg_store_records{kind="certificate"}`,
		"bncg_store_disk_bytes",
		"bncg_store_flush_failures_total 0",
		"bncg_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition:\n%s", body)
	}

	// Every /v1/check answered PS from the sweep's certificate and ran the
	// checker for the other concepts; the exposed ratio must reflect hits
	// and misses both non-zero.
	ratio := metricValue(t, body, "bncg_cache_hit_ratio")
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("cache hit ratio %v, want strictly between 0 and 1", ratio)
	}

	// Histogram buckets are cumulative and end at the count.
	counts := bucketCounts(t, body, "/v1/check")
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("histogram not cumulative: %v", counts)
		}
	}
	if counts[len(counts)-1] != 3 {
		t.Fatalf("+Inf bucket %d, want 3", counts[len(counts)-1])
	}
}

func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("metric %s not found", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

func bucketCounts(t *testing.T, exposition, route string) []int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^bncg_http_request_duration_seconds_bucket\{route="` +
		regexp.QuoteMeta(route) + `",le="[^"]+"\} (\d+)$`)
	var counts []int64
	for _, m := range re.FindAllStringSubmatch(exposition, -1) {
		v, _ := strconv.ParseInt(m[1], 10, 64)
		counts = append(counts, v)
	}
	if len(counts) == 0 {
		t.Fatalf("no buckets for %s", route)
	}
	return counts
}

// TestServeDegradedOnFlushFailure: with the store's writer failing, the
// daemon keeps answering (serve-stale), /healthz flips to "degraded", and
// the failure count is visible on /metrics — the fault-injection harness
// driven end to end through HTTP.
func TestServeDegradedOnFlushFailure(t *testing.T) {
	var failWrites atomic.Bool
	st, err := store.Open(t.TempDir(), store.Options{
		FlushEvery: 1, // every PutCert flushes — and fails — immediately
		WrapSegmentWriter: func(w store.WriteSyncer) store.WriteSyncer {
			return faultySyncer{w, &failWrites}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cache := sweep.NewCache()
	cache.Persist(st)
	defer cache.Persist(nil)
	_, ts := newTestServer(t, Config{Cache: cache, Store: st})

	failWrites.Store(true)
	status, body := get(t, ts.URL+"/v1/sweep?n=4&alphas=2&concepts=PS")
	if lines := parseNDJSON(t, body); status != http.StatusOK || lines[len(lines)-1].Error != "" {
		t.Fatalf("sweep failed while store is failing: %d %s", status, body)
	}
	if status, body := postCheck(t, ts.URL+"/v1/check?alpha=2", graph.Encode(game.Star(4))); status != http.StatusOK {
		t.Fatalf("check failed while store is failing: %d %s", status, body)
	}
	if st.Stats().FlushFailures == 0 {
		t.Fatal("fault injection never fired")
	}

	_, hb := get(t, ts.URL+"/healthz")
	var h struct {
		Status string       `json:"status"`
		Store  *store.Stats `json:"store"`
	}
	if err := json.Unmarshal([]byte(hb), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Store == nil || h.Store.FlushFailures == 0 {
		t.Fatalf("healthz did not degrade: %s", hb)
	}
	_, mb := get(t, ts.URL+"/metrics")
	if metricValue(t, mb, "bncg_store_flush_failures_total") == 0 {
		t.Fatal("flush failures missing from /metrics")
	}

	// Fault heals: the daemon recovers to "ok"-with-history — still
	// serving, pending records flushable again.
	failWrites.Store(false)
	if err := st.Flush(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if st.Stats().Pending != 0 {
		t.Fatal("pending records stuck after heal")
	}
}

type faultySyncer struct {
	store.WriteSyncer
	fail *atomic.Bool
}

func (f faultySyncer) Write(p []byte) (int, error) {
	if f.fail.Load() {
		return 0, fmt.Errorf("injected write fault")
	}
	return f.WriteSyncer.Write(p)
}

// TestServeSoak: many parallel clients across /v1/check, /v1/sweep,
// /healthz and /metrics — a third of them disconnecting mid-request —
// leave the daemon consistent: no goroutine leaks, in-flight back to
// zero, and request accounting that adds up. Run under -race this is the
// concurrency certification of the admission/metrics middleware.
func TestServeSoak(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxInflight: 8, MaxQueue: 64, QueueWait: 5 * time.Second})
	star := graph.Encode(game.Star(5))
	before := runtime.NumGoroutine()

	const clients = 24
	var wg sync.WaitGroup
	var completed atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				resp, err := http.Post(ts.URL+"/v1/check?alpha=7/3", "text/plain", strings.NewReader(star))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					completed.Add(1)
				}
			case 1:
				// Disconnect mid-request: cancel while the body streams.
				ctx, cancel := context.WithCancel(context.Background())
				req, _ := http.NewRequestWithContext(ctx, "GET",
					ts.URL+"/v1/sweep?n=5&alphas=1/2,1,2,3&concepts=all", nil)
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					buf := make([]byte, 256)
					resp.Body.Read(buf) // first bytes, then hang up
					cancel()
					resp.Body.Close()
				}
				cancel()
				completed.Add(1)
			case 2:
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						completed.Add(1)
					}
				}
			default:
				resp, err := http.Get(ts.URL + "/healthz")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						completed.Add(1)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if completed.Load() < clients-clients/4 {
		t.Fatalf("only %d/%d clients completed", completed.Load(), clients)
	}
	// Pooled keep-alive connections hold client goroutines; retire them
	// before the leak check so only daemon-side goroutines are measured.
	http.DefaultClient.CloseIdleConnections()
	waitForGoroutines(t, before)
	if got := s.inflight.Load(); got != 0 {
		t.Fatalf("in-flight gauge stuck at %d", got)
	}
	if q := s.gate.queuedCount(); q != 0 {
		t.Fatalf("queue gauge stuck at %d", q)
	}
}

// TestCheckSkipsKeyAboveEnumLimit: above graph.MaxEnumNodes no sweep can
// have certified the class, so /v1/check skips the canonical key — whose
// cost grows about elevenfold per node on a cycle — counts a miss and
// runs the checker. A 14-node cycle answers in well under the bound.
func TestCheckSkipsKeyAboveEnumLimit(t *testing.T) {
	cache := sweep.NewCache()
	_, ts := newTestServer(t, Config{Cache: cache})
	start := time.Now()
	status, body := postCheck(t, ts.URL+"/v1/check?alpha=2&concept=PS", graph.Encode(construct.Cycle(14)))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("14-node cycle took %v", elapsed)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	gm, err := game.NewGame(14, game.A(2))
	if err != nil {
		t.Fatal(err)
	}
	want := eq.Check(gm, construct.Cycle(14), eq.PS).Stable
	if !strings.Contains(body, fmt.Sprintf(`"stable": %t`, want)) || strings.Contains(body, "from_cache") {
		t.Fatalf("check of C14 at α=2: %s, want stable=%t computed", body, want)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("cache counted %+v, want one miss", st)
	}
}

func postCheck(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestVariantMultiplierOutOfExactRange: a price multiplier whose scaled
// cost deltas leave int64 (here q = 2^62 against distance sums up to 6 on
// four nodes) is refused with 400 in the pinned schema on every endpoint
// that takes a variant, instead of panicking or answering wrongly.
func TestVariantMultiplierOutOfExactRange(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const variant = "variant=mul:0=1/4611686018427387904"
	star := graph.Encode(game.Star(4))
	for _, tc := range []struct{ method, url, body string }{
		{"GET", "/v1/sweep?n=4&alphas=1/2,3/2,3&concepts=RE&" + variant, ""},
		{"GET", "/v1/critical?n=4&concepts=RE&" + variant, ""},
		{"POST", "/v1/check?alpha=2&concept=RE&" + variant, star},
		{"GET", "/v1/simulate?n=4&alphas=1/2&trajectories=1&" + variant, ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d, want 400: %s", tc.method, tc.url, resp.StatusCode, body)
		}
		if eb := parseErrorBody(t, resp.StatusCode, string(body)); !strings.Contains(eb.Error, "out of exact range") {
			t.Fatalf("%s %s: error %q does not name the range", tc.method, tc.url, eb.Error)
		}
	}
}
