package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/sweep"
)

// encodeCheckResponse is the writeJSON rendering of r, the oracle of the
// hand-built appender.
func encodeCheckResponse(t testing.TB, r checkResponse) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckResponseMatchesEncoder: every /v1/check answer — certificate
// hits, fresh checks, witnesses, a variant and the default daemon — is
// byte for byte what json.Encoder renders for the same response.
func TestCheckResponseMatchesEncoder(t *testing.T) {
	cache := sweep.NewCache()
	if _, err := sweep.Run(context.Background(), sweep.Options{
		N: 5, Alphas: []game.Alpha{game.A(2)}, Concepts: eq.Concepts(), Cache: cache,
	}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: cache})
	star5, path6 := graph.Encode(game.Star(5)), "n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n"
	for _, tc := range []struct{ query, body string }{
		{"alpha=7/3", star5},                       // nine certificate hits
		{"alpha=1/2&concept=BAE&witness=1", star5}, // hit bypassed for a witness
		{"alpha=3", path6},                         // nine fresh checks
		{"alpha=1/3&witness=1", path6},             // unstable verdicts with witnesses
		{"alpha=2&concept=PS&variant=max", path6},  // a variant key in the response
	} {
		status, body := postCheck(t, ts.URL+"/v1/check?"+tc.query, tc.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.query, status, body)
		}
		var resp checkResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if want := encodeCheckResponse(t, resp); body != string(want) {
			t.Fatalf("%s: response\n%s\nwant json.Encoder's\n%s", tc.query, body, want)
		}
	}
}

// FuzzCheckResponseJSON: the appender renders any response, with any
// strings in it, exactly as json.Encoder with indentation and HTML
// escaping does.
func FuzzCheckResponseJSON(f *testing.F) {
	f.Add(1, 5, "7/3", "", uint8(9), "RE", true, "", true)
	f.Add(0, -1, "", "max", uint8(1), "2-BSE", false, "buy 0-3 by {0,3}", false)
	f.Add(3, 6, "<a&b>", "mul:0=1/2", uint8(2), "  ", false, "\x00\x1f\b\f\n\r\t\"\\\x7f", true)
	f.Add(1, 1, "\xff\xfe", "\xc3", uint8(3), "é€𝄞", true, "a\xed\xa0\x80z", false)
	f.Add(1, 2, "1", "", uint8(0), "", false, "", false)
	f.Add(1, 2, "1", "", uint8(255), "", false, "", false)
	f.Fuzz(func(t *testing.T, schema, n int, alpha, variant string, count uint8, concept string, stable bool, witness string, fromCache bool) {
		r := checkResponse{SchemaVersion: schema, N: n, Alpha: alpha, Variant: variant}
		// count 255 leaves Results nil ("null"); 0 makes it empty ("[]").
		if count != 255 {
			r.Results = []checkVerdict{}
			for i := range int(count % 12) {
				v := checkVerdict{Concept: concept, Stable: stable != (i%2 == 1), FromCache: fromCache != (i%3 == 0)}
				if i%2 == 0 {
					v.Witness = witness
				}
				r.Results = append(r.Results, v)
			}
		}
		got, want := r.appendJSON(nil), encodeCheckResponse(t, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("appender:\n%q\njson.Encoder:\n%q", got, want)
		}
	})
}

// TestCheckRefusesHugeNodeCountCheaply: a ten-byte upload declaring
// 4194304 nodes gets the over-limit 422 without the server allocating for
// those nodes first.
func TestCheckRefusesHugeNodeCountCheaply(t *testing.T) {
	s := New(Config{})
	const want = `{"error":"graph on 4194304 nodes exceeds the server limit 128","status":422}` + "\n"
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check?alpha=2", strings.NewReader("n 4194304\n")))
		return rec
	}
	serve() // lazily built instruments and route state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := serve()
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusUnprocessableEntity || rec.Body.String() != want {
		t.Fatalf("status %d, body %q; want 422, %q", rec.Code, rec.Body.String(), want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing the upload allocated %d bytes, want under 1 MiB", got)
	}
}
