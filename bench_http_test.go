package bncg_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
