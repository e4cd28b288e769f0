package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/sweep"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

type ndjsonLine struct {
	Type        string  `json:"type"`
	N           int     `json:"n"`
	Source      string  `json:"source"`
	AlphaIndex  int     `json:"alpha_index"`
	GraphIndex  int     `json:"graph_index"`
	Vector      uint16  `json:"vector"`
	Rho         float64 `json:"rho"`
	FromCache   bool    `json:"from_cache"`
	Graph       string  `json:"graph"`
	Graphs      int     `json:"graphs"`
	Completed   int     `json:"completed"`
	Total       int     `json:"total"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	Error       string  `json:"error"`
}

func parseNDJSON(t *testing.T, body string) []ndjsonLine {
	t.Helper()
	var lines []ndjsonLine
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var l ndjsonLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	return lines
}

// TestSweepEndpointMatchesEngine: /v1/sweep streams a header, every item
// in the deterministic α-major order with the exact vectors the engine
// computes, and a summary trailer.
func TestSweepEndpointMatchesEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/sweep?n=4&alphas=1/2,2&concepts=PS,BSE&rho=1"
	status, body := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines := parseNDJSON(t, body)
	want, err := sweep.Run(context.Background(), sweep.Options{
		N:        4,
		Alphas:   []game.Alpha{game.AFrac(1, 2), game.A(2)},
		Concepts: []eq.Concept{eq.PS, eq.BSE},
		Rho:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Type != "header" || lines[0].N != 4 || lines[0].Source != "graphs" {
		t.Fatalf("bad header: %+v", lines[0])
	}
	items := lines[1 : len(lines)-1]
	if len(items) != len(want.Items) {
		t.Fatalf("streamed %d items, want %d", len(items), len(want.Items))
	}
	for i, l := range items {
		w := want.Items[i]
		if l.Type != "item" || l.AlphaIndex != w.AlphaIndex || l.GraphIndex != w.GraphIndex ||
			l.Vector != uint16(w.Vector) || l.Rho != w.Rho {
			t.Fatalf("item %d: got %+v, want %+v", i, l, w)
		}
		if (l.AlphaIndex == 0) != (l.Graph != "") {
			t.Fatalf("item %d: graph encoding on the wrong row: %+v", i, l)
		}
		if l.AlphaIndex == 0 && l.Graph != graph.Encode(w.Graph) {
			t.Fatalf("item %d: wrong graph encoding", i)
		}
	}
	sum := lines[len(lines)-1]
	if sum.Type != "summary" || sum.Completed != len(want.Items) || sum.Graphs != want.Graphs || sum.Error != "" {
		t.Fatalf("bad summary: %+v", sum)
	}
}

// TestSweepEndpointSecondRequestFromCache: an identical second request is
// served from the verdict cache — the store/cache-backed read path.
func TestSweepEndpointSecondRequestFromCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/sweep?n=4&alphas=1,2&concepts=PS,BGE"
	_, first := get(t, url)
	_, second := get(t, url)
	f, s := parseNDJSON(t, first), parseNDJSON(t, second)
	if len(f) != len(s) {
		t.Fatalf("line counts differ: %d vs %d", len(f), len(s))
	}
	sum := s[len(s)-1]
	if sum.CacheMisses != 0 || sum.CacheHits == 0 {
		t.Fatalf("second request not served from cache: %+v", sum)
	}
	for i := range f {
		if f[i].Type != "item" {
			continue
		}
		if f[i].Vector != s[i].Vector || f[i].AlphaIndex != s[i].AlphaIndex || f[i].GraphIndex != s[i].GraphIndex {
			t.Fatalf("item %d differs across requests: %+v vs %+v", i, f[i], s[i])
		}
		if !s[i].FromCache {
			t.Fatalf("second-request item %d not from cache", i)
		}
	}
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base, tolerating runtime goroutines that retire lazily.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d now vs %d before\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSweepCancelledClientDrainsWorkers: a client that disconnects mid
// /v1/sweep stream releases its flight; as the last subscriber it cancels
// the computation, whose workers drain without leaking goroutines.
func TestSweepCancelledClientDrainsWorkers(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// All nine concepts at n=5 is a multi-second sweep — plenty of stream
	// left when the client walks away after two lines.
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/sweep?n=5&alphas=1/2,1,3/2,2&concepts=all", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2 && sc.Scan(); i++ {
	}
	cancel()
	resp.Body.Close()
	waitForGoroutines(t, before)
	if live := srv.sweeps.live(); live != 0 {
		t.Fatalf("%d flights still live after the last client left", live)
	}
}

// TestSweepSingleflight: concurrent identical requests share one flight —
// the computation starts once and every subscriber still gets the
// complete, identical, ordered stream. The grid (n=5, all nine concepts)
// takes long enough that all clients overlap the single computation.
func TestSweepSingleflight(t *testing.T) {
	cache := sweep.NewCache()
	srv, ts := newTestServer(t, Config{Cache: cache})
	url := ts.URL + "/v1/sweep?n=5&alphas=1/2,1&concepts=all"
	const clients = 4
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			bodies[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		lines := parseNDJSON(t, b)
		sum := lines[len(lines)-1]
		if sum.Type != "summary" || sum.Completed != sum.Total || sum.Error != "" {
			t.Fatalf("client %d got an incomplete stream: %+v", i, sum)
		}
		// The shared flight gives every subscriber the same items; strip
		// the header (whose "shared" flag legitimately differs) and
		// compare the streams byte for byte.
		first := bodies[0][strings.IndexByte(bodies[0], '\n'):]
		this := b[strings.IndexByte(b, '\n'):]
		if this != first {
			t.Fatalf("client %d streamed different bytes than client 0", i)
		}
	}
	if n := srv.sweeps.startedCount(); n != 1 {
		t.Fatalf("%d computations started for %d identical concurrent requests", n, clients)
	}
}

// TestPoAEndpoint: /v1/poa returns the exact search result as JSON.
func TestPoAEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/poa?n=5&alpha=2&concept=PS")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		N          int     `json:"n"`
		Alpha      string  `json:"alpha"`
		Concept    string  `json:"concept"`
		Rho        float64 `json:"rho"`
		Witness    string  `json:"witness"`
		Equilibria int     `json:"equilibria"`
		Partial    bool    `json:"partial"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 5 || resp.Alpha != "2" || resp.Concept != "PS" || resp.Partial {
		t.Fatalf("bad response: %+v", resp)
	}
	if resp.Rho < 1 || resp.Equilibria == 0 || resp.Witness == "" {
		t.Fatalf("degenerate PoA result: %+v", resp)
	}
}

// TestPoAEndpointUsesConfigCache: the PoA search memoizes in the server's
// configured cache, not in a cache of its own.
func TestPoAEndpointUsesConfigCache(t *testing.T) {
	cache := sweep.NewCache()
	_, ts := newTestServer(t, Config{Cache: cache})
	if status, body := get(t, ts.URL+"/v1/poa?n=5&alpha=2&concept=PS"); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if st := cache.Stats(); st.Hits+st.Misses == 0 || st.Certificates == 0 {
		t.Fatalf("/v1/poa left the configured cache untouched: %+v", st)
	}
}

// TestCheckEndpoint: /v1/check verdicts match the library checkers, cache
// repeat queries, and carry witnesses when forced.
func TestCheckEndpoint(t *testing.T) {
	cache := sweep.NewCache()
	_, ts := newTestServer(t, Config{Cache: cache})
	star := graph.Encode(game.Star(6))
	post := func(query string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/check?"+query, "text/plain", strings.NewReader(star))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	status, body := post("alpha=2")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		N       int `json:"n"`
		Results []struct {
			Concept   string `json:"concept"`
			Stable    bool   `json:"stable"`
			Witness   string `json:"witness"`
			FromCache bool   `json:"from_cache"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 6 || len(resp.Results) != 9 {
		t.Fatalf("bad response: %s", body)
	}
	for _, r := range resp.Results {
		if !r.Stable {
			t.Fatalf("star at α=2 unstable for %s", r.Concept)
		}
		if r.FromCache {
			t.Fatalf("first query claimed a cache hit for %s", r.Concept)
		}
	}
	// Repeat: all nine verdicts now come from the cache.
	_, body = post("alpha=2")
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Results {
		if !r.FromCache {
			t.Fatalf("repeat query recomputed %s", r.Concept)
		}
	}
	// An unstable verdict with witness=1 carries the violating move.
	status, body = post("alpha=1/2&concept=BAE&witness=1")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Stable || resp.Results[0].Witness == "" {
		t.Fatalf("witness missing: %s", body)
	}
}

// TestHealthz: liveness with cache and store statistics.
func TestHealthz(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cache := sweep.NewCache()
	cache.Persist(st)
	_, ts := newTestServer(t, Config{Cache: cache, Store: st})
	get(t, ts.URL+"/v1/sweep?n=4&alphas=1&concepts=PS")

	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var h struct {
		Status string           `json:"status"`
		Served int64            `json:"requests_served"`
		Cache  sweep.CacheStats `json:"cache"`
		Store  *store.Stats     `json:"store"`
		Limits map[string]int   `json:"limits"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Served == 0 {
		t.Fatalf("bad healthz: %s", body)
	}
	if h.Cache.Entries == 0 || h.Cache.Misses == 0 {
		t.Fatalf("healthz cache stats empty after a sweep: %+v", h.Cache)
	}
	if h.Store == nil || h.Store.Appended == 0 {
		t.Fatalf("healthz store stats missing: %s", body)
	}
	if h.Limits["max_n"] != 7 {
		t.Fatalf("default limits not surfaced: %v", h.Limits)
	}
}

// TestRequestValidation: limit and syntax violations map to 422 and 400.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 5, MaxAlphas: 2})
	for _, tc := range []struct {
		url    string
		status int
	}{
		{"/v1/sweep?n=6&alphas=1", http.StatusUnprocessableEntity},
		{"/v1/sweep?n=4&alphas=1,2,3", http.StatusUnprocessableEntity},
		{"/v1/sweep?n=4&alphas=x", http.StatusBadRequest},
		{"/v1/sweep?alphas=1", http.StatusBadRequest},
		{"/v1/sweep?n=4&alphas=1&concepts=XX", http.StatusBadRequest},
		{"/v1/poa?n=4&alpha=2&concept=nope", http.StatusBadRequest},
		{"/v1/poa?n=44&alpha=2&concept=PS&graphs=1", http.StatusUnprocessableEntity},
	} {
		status, body := get(t, ts.URL+tc.url)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.url, status, tc.status, strings.TrimSpace(body))
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("%s: error body missing: %s", tc.url, body)
		}
	}
}

// TestRequestTimeout: a computation exceeding RequestTimeout ends with a
// partial summary carrying the deadline error, not a hung stream. The
// n=6 all-concepts stream costs seconds cold (the certificate engine
// finishes n=5 inside tens of milliseconds, too fast to outlast any
// usable deadline), so the 50ms deadline always cuts it mid-stream.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond, Workers: 1})
	status, body := get(t, ts.URL+"/v1/sweep?n=6&alphas=1/2,1,3/2,2,3,5&concepts=all")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	lines := parseNDJSON(t, body)
	sum := lines[len(lines)-1]
	// Under instrumentation (-race) the deadline can fire before any item
	// — or even the enumeration — completes, leaving Total 0; that is still
	// a partial deadline summary.
	if sum.Type != "summary" || sum.Error == "" || (sum.Total > 0 && sum.Completed >= sum.Total) {
		t.Fatalf("expected a partial deadline summary, got %+v", sum)
	}
}

// TestCriticalEndpoint: /v1/critical returns the exact per-concept
// breakpoints, agrees with the engine's own critical report, and
// deduplicates identical requests like the other computation endpoints.
func TestCriticalEndpoint(t *testing.T) {
	cache := sweep.NewCache()
	_, ts := newTestServer(t, Config{Cache: cache})
	status, body := get(t, ts.URL+"/v1/critical?n=4&concepts=RE,BAE")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		N        int    `json:"n"`
		Source   string `json:"source"`
		Classes  int    `json:"classes"`
		Critical []struct {
			Concept string   `json:"concept"`
			Alphas  []string `json:"alphas"`
		} `json:"critical"`
		Report string `json:"report"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("critical response not JSON: %v\n%s", err, body)
	}
	if resp.N != 4 || resp.Source != "graphs" || resp.Classes != 6 || len(resp.Critical) != 2 {
		t.Fatalf("unexpected critical response: %+v", resp)
	}
	want, err := sweep.Run(context.Background(), sweep.Options{
		N:        4,
		Alphas:   []game.Alpha{game.A(1)},
		Concepts: []eq.Concept{eq.RE, eq.BAE},
		Cache:    cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report != want.CriticalReport() {
		t.Fatalf("report differs from the engine:\n%q\nvs\n%q", resp.Report, want.CriticalReport())
	}
	for i, cc := range want.Critical {
		if resp.Critical[i].Concept != cc.Concept.String() || len(resp.Critical[i].Alphas) != len(cc.Alphas) {
			t.Fatalf("critical row %d: %+v vs engine %+v", i, resp.Critical[i], cc)
		}
		for j, a := range cc.Alphas {
			if resp.Critical[i].Alphas[j] != a.String() {
				t.Fatalf("critical row %d breakpoint %d: %q vs %q", i, j, resp.Critical[i].Alphas[j], a)
			}
		}
	}
	// The K4 clique flips RE at exactly α = 1.
	foundOne := false
	for _, a := range resp.Critical[0].Alphas {
		if a == "1" {
			foundOne = true
		}
	}
	if !foundOne {
		t.Fatalf("RE critical row misses the clique breakpoint 1: %+v", resp.Critical[0])
	}
	// Caps and validation ride the shared helpers.
	if status, _ := get(t, ts.URL+"/v1/critical?n=99"); status != http.StatusUnprocessableEntity {
		t.Fatalf("oversized n: status %d", status)
	}
	if status, _ := get(t, ts.URL+"/v1/critical?n=4&concepts=nope"); status != http.StatusBadRequest {
		t.Fatalf("bad concept: status %d", status)
	}
}

// TestCheckEndpointServedFromCertificate: an uploaded graph whose class
// was certified by an earlier sweep is answered from the certificate —
// at a price no sweep grid ever contained.
func TestCheckEndpointServedFromCertificate(t *testing.T) {
	cache := sweep.NewCache()
	if _, err := sweep.Run(context.Background(), sweep.Options{
		N:        4,
		Alphas:   []game.Alpha{game.A(1)},
		Concepts: []eq.Concept{eq.PS},
		Cache:    cache,
	}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: cache})
	// α = 7/3 was never on a grid; only the certificate can answer it
	// without recomputing.
	resp, err := http.Post(ts.URL+"/v1/check?alpha=7/3&concept=PS", "text/plain",
		strings.NewReader(graph.Encode(game.Star(4))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var out struct {
		Results []struct {
			Concept   string `json:"concept"`
			Stable    bool   `json:"stable"`
			FromCache bool   `json:"from_cache"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("check response not JSON: %v\n%s", err, body)
	}
	if len(out.Results) != 1 || !out.Results[0].Stable || !out.Results[0].FromCache {
		t.Fatalf("star at α=7/3 should be a PS-stable certificate hit: %+v", out.Results)
	}
}
