package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/sim"
)

// simLine is the union of the /v1/simulate NDJSON line schemas.
type simLine struct {
	Type          string   `json:"type"`
	SchemaVersion int      `json:"schema_version"`
	N             int      `json:"n"`
	Alphas        []string `json:"alphas"`
	Trajectories  int      `json:"trajectories"`
	Scheduler     string   `json:"scheduler"`
	Seed          uint64   `json:"seed"`
	// item fields
	Index      int    `json:"index"`
	AlphaIndex int    `json:"alpha_index"`
	Steps      int    `json:"steps"`
	Converged  bool   `json:"converged"`
	Init       string `json:"init"`
	// summary fields
	Completed bool               `json:"completed"`
	Delivered int                `json:"delivered"`
	Summaries []sim.AlphaSummary `json:"summaries"`
	Error     string             `json:"error"`
}

func parseSimNDJSON(t *testing.T, body string) []simLine {
	t.Helper()
	var lines []simLine
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var l simLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	return lines
}

// TestSimulateEndpointStreams: /v1/simulate emits a header echoing the
// resolved parameters, every trajectory in index order, and a summary
// trailer matching a direct sim.Run of the same options.
func TestSimulateEndpointStreams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/simulate?n=16&alphas=2,50&trajectories=4&seed=9"
	status, body := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines := parseSimNDJSON(t, body)
	if len(lines) != 1+8+1 {
		t.Fatalf("got %d lines, want header + 8 items + summary", len(lines))
	}
	hdr := lines[0]
	if hdr.Type != "header" || hdr.N != 16 || hdr.Trajectories != 4 ||
		hdr.Seed != 9 || hdr.Scheduler != "uniform" || len(hdr.Alphas) != 2 {
		t.Fatalf("bad header: %+v", hdr)
	}
	for i, l := range lines[1:9] {
		if l.Type != "item" || l.Index != i {
			t.Fatalf("item %d: type=%q index=%d", i, l.Type, l.Index)
		}
	}
	sum := lines[len(lines)-1]
	if sum.Type != "summary" || !sum.Completed || sum.Delivered != 8 ||
		len(sum.Summaries) != 2 || sum.Error != "" {
		t.Fatalf("bad summary: %+v", sum)
	}
}

// TestSimulateEndpointDeterministic: the stream is a pure function of the
// URL — two requests return byte-identical bodies.
func TestSimulateEndpointDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	url := ts.URL + "/v1/simulate?n=14&alphas=1/2,3&trajectories=5&seed=77&scheduler=breakpoint-guided&moves=bge"
	_, first := get(t, url)
	_, second := get(t, url)
	if first != second {
		t.Fatalf("streams differ:\n%s\nvs\n%s", first, second)
	}
	lines := parseSimNDJSON(t, first)
	if got := lines[0].Scheduler; got != "breakpoint" {
		t.Fatalf("header scheduler %q, want breakpoint", got)
	}
}

// TestSimulateEndpointObserved: simulate requests land in the per-route
// metrics like any admitted route.
func TestSimulateEndpointObserved(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, body := get(t, ts.URL+"/v1/simulate?n=8&alphas=2&trajectories=2"); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, `route="/v1/simulate"`) {
		t.Fatal("/metrics does not label the /v1/simulate route")
	}
}

// TestSimulateSmallN: the default edge probability saturates at 1 below
// n=4, so the smallest batches stream like any other.
func TestSimulateSmallN(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/simulate?n=3&alphas=2&trajectories=3")
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", status, body)
	}
	lines := parseSimNDJSON(t, body)
	if sum := lines[len(lines)-1]; sum.Type != "summary" || !sum.Completed || sum.Delivered != 3 {
		t.Fatalf("bad summary: %+v", sum)
	}
}

// TestSimulateTrajectoryOverflow: an alphas × trajectories product that
// wraps int past zero is still over the limit, in the pinned schema.
func TestSimulateTrajectoryOverflow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/simulate?n=4&alphas=1,2,3,4&trajectories=4611686018427387904")
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", status, body)
	}
	parseErrorBody(t, status, body)
}

// TestSimulateHeaderMatchesResult: the header line echoes exactly the
// parameters a direct sim.Run of the same request reports, for defaulted
// and explicit parameters alike.
func TestSimulateHeaderMatchesResult(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		query string
		opts  sim.Options
	}{
		{"n=6&alphas=2&trajectories=1", sim.Options{N: 6, Alphas: []game.Alpha{game.A(2)}, Trajectories: 1,
			Kinds: []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind}}},
		{"n=6&alphas=1/2,3&trajectories=2&init=er&moves=bge&scheduler=roundrobin&seed=5&p=0.5&max-steps=40&variant=max",
			sim.Options{N: 6, Alphas: []game.Alpha{game.AFrac(1, 2), game.A(3)}, Trajectories: 2,
				Inits: []sim.Init{sim.InitER}, Kinds: []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind, dynamics.SwapKind},
				Scheduler: dynamics.SchedulerRoundRobin, Seed: 5, EdgeProb: 0.5, MaxSteps: 40,
				Variant: game.Variant{Dist: game.DistMax}}},
	} {
		status, body := get(t, ts.URL+"/v1/simulate?"+tc.query)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.query, status, body)
		}
		var hdr sim.Params
		if err := json.Unmarshal([]byte(body[:strings.IndexByte(body, '\n')]), &hdr); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(context.Background(), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hdr, res.Params) {
			t.Fatalf("%s: header %+v, sim.Run reports %+v", tc.query, hdr, res.Params)
		}
	}
}
