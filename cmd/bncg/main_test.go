package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eq"
	"repro/internal/store"
)

func runCLI(t *testing.T, stdin string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(context.Background(), args, strings.NewReader(stdin), &out)
	return out.String(), err
}

func TestList(t *testing.T) {
	out, err := runCLI(t, "", "list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T1-PS", "F1a", "L2.4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list output missing %q:\n%s", want, out)
		}
	}
}

func TestGenAndCheckPipe(t *testing.T) {
	graphText, err := runCLI(t, "", "gen", "star", "6")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, graphText, "check", "-alpha", "2")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "UNSTABLE") {
		t.Fatalf("star should be stable everywhere at α=2:\n%s", out)
	}
	out, err = runCLI(t, graphText, "check", "-alpha", "1/2", "-concept", "BAE")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "UNSTABLE") {
		t.Fatalf("star at α=1/2 should fail BAE:\n%s", out)
	}
}

// TestCheckExactAtHugeAlpha: on C6 every verdict at α = 2^62 and at
// α = 2^63−1 equals the one at α = 100, where no cost product leaves
// int64. Removing an edge pays off for every α > 6, so RE is unstable,
// and no edge purchase pays off at these prices, so BAE is stable.
func TestCheckExactAtHugeAlpha(t *testing.T) {
	cycle, err := runCLI(t, "", "gen", "cycle", "6")
	if err != nil {
		t.Fatal(err)
	}
	want, err := runCLI(t, cycle, "check", "-alpha", "100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, "RE     UNSTABLE") || !strings.Contains(want, "BAE    stable") {
		t.Fatalf("C6 at α=100:\n%s", want)
	}
	for _, alpha := range []string{"4611686018427387904", "9223372036854775807"} {
		got, err := runCLI(t, cycle, "check", "-alpha", alpha)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("C6 at α=%s:\n%swant the verdicts at α=100:\n%s", alpha, got, want)
		}
	}
}

func TestGenFamilies(t *testing.T) {
	for _, tc := range [][]string{
		{"gen", "clique", "4"},
		{"gen", "path", "5"},
		{"gen", "cycle", "5"},
		{"gen", "dary", "10", "3"},
		{"gen", "stretched", "2", "2"},
		{"gen", "treestar", "1", "7", "30"},
	} {
		out, err := runCLI(t, "", tc...)
		if err != nil {
			t.Fatalf("%v: %v", tc, err)
		}
		if !strings.HasPrefix(out, "n ") {
			t.Fatalf("%v: output not in edge-list format:\n%s", tc, out)
		}
	}
}

func TestCost(t *testing.T) {
	graphText, err := runCLI(t, "", "gen", "star", "5")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, graphText, "cost", "-alpha", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rho: 1.0000") {
		t.Fatalf("star should be optimal at α=3:\n%s", out)
	}
}

// TestOneNodeRho: the one-node game's ρ is 1 on every surface — cost,
// a ρ sweep's JSON and the PoA search — not NaN, an encoding error or 0.
func TestOneNodeRho(t *testing.T) {
	out, err := runCLI(t, "n 1\n", "cost", "-alpha", "1")
	if err != nil || !strings.Contains(out, "rho: 1.0000") {
		t.Fatalf("cost on one node: err %v, output:\n%s", err, out)
	}
	out, err = runCLI(t, "", "sweep", "-n", "1", "-rho", "-json", "-concepts", "RE", "-alphas", "1")
	if err != nil || !strings.Contains(out, `"rho": 1,`) {
		t.Fatalf("one-node ρ sweep JSON: err %v, output:\n%s", err, out)
	}
	out, err = runCLI(t, "", "poa", "-n", "1", "-alpha", "1")
	if err != nil || !strings.Contains(out, "worst ρ = 1.0000 over 1 equilibria") {
		t.Fatalf("one-node poa: err %v, output:\n%s", err, out)
	}
}

func TestPoA(t *testing.T) {
	out, err := runCLI(t, "", "poa", "-n", "6", "-alpha", "4", "-concept", "PS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "worst ρ") || !strings.Contains(out, "witness") {
		t.Fatalf("poa output:\n%s", out)
	}
}

func TestSweepCommand(t *testing.T) {
	out, err := runCLI(t, "", "sweep", "-n", "4", "-workers", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sweep n=4 source=graphs: 6 graphs", "BSE", "workers=2 cache:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
	// Deterministic report: same grid, different pool size — the table
	// (everything before the cache line) matches.
	out2, err := runCLI(t, "", "sweep", "-n", "4", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	table := func(s string) string { return s[:strings.LastIndex(s, "workers=")] }
	if table(out) != table(out2) {
		t.Fatalf("sweep reports differ across worker counts:\n%s\nvs\n%s", out, out2)
	}
}

func TestSweepCommandTreesAndConcepts(t *testing.T) {
	out, err := runCLI(t, "", "sweep", "-n", "7", "-trees", "-alphas", "4", "-concepts", "PS,BGE")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sweep n=7 source=trees: 11 graphs × 1 α × 2 concepts") {
		t.Fatalf("sweep trees output:\n%s", out)
	}
}

func TestExperimentCommand(t *testing.T) {
	out, err := runCLI(t, "", "experiment", "F3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[PASS]") {
		t.Fatalf("experiment output:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"gen"},
		{"gen", "star"},
		{"gen", "star", "x"},
		{"gen", "nope", "5"},
		{"gen", "star", "-3"},
		{"gen", "cycle", "2"},
		{"gen", "dary", "5", "0"},
		{"gen", "stretched", "0", "0"},
		{"check", "-alpha", "zzz"},
		{"check"},
		{"poa", "-alpha", "2", "-concept", "nope"},
		{"experiment"},
		{"experiment", "nope"},
		{"sweep", "-n", "0"},
		{"sweep", "-alphas", "x"},
		{"sweep", "-concepts", "nope"},
		{"simulate", "-n", "10", "-alphas", "2", "-trajectories", "1", "-max-steps", "-5"},
		{"simulate", "-n", "10", "-alphas", "2", "-trajectories", "1", "-init", "er", "-p", "NaN"},
		{"simulate", "-n", "4", "-alphas", "1,2", "-trajectories", "4611686018427387905"},
	}
	for _, tc := range cases {
		if _, err := runCLI(t, "", tc...); err == nil {
			t.Fatalf("args %v: expected error", tc)
		}
	}
}

// TestGraphSweepAboveEnumLimitFails: graph enumeration stops at 11
// nodes, so graph sweeps and PoA searches past it must exit with an error
// rather than print an empty table or a ρ over zero candidates.
func TestGraphSweepAboveEnumLimitFails(t *testing.T) {
	for _, args := range [][]string{
		{"poa", "-n", "12", "-graphs", "-alpha", "2"},
		{"sweep", "-n", "12", "-concepts", "RE", "-alphas", "2"},
	} {
		out, err := runCLI(t, "", args...)
		if err == nil || !strings.Contains(err.Error(), "limited to 11 nodes") {
			t.Errorf("%v: err %v, want the enumeration-limit error (output %q)", args, err, out)
		}
	}
}

func TestSweepRhoAndJSON(t *testing.T) {
	out, err := runCLI(t, "", "sweep", "-n", "4", "-rho", "-json", "-alphas", "2", "-concepts", "PS")
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		N         int      `json:"n"`
		Source    string   `json:"source"`
		Alphas    []string `json:"alphas"`
		Concepts  []string `json:"concepts"`
		Graphs    int      `json:"graphs"`
		Completed int      `json:"completed"`
		GraphList []string `json:"graph_list"`
		Items     []struct {
			Vector uint16  `json:"vector"`
			Rho    float64 `json:"rho"`
			Done   bool    `json:"done"`
		} `json:"items"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("sweep -json output is not valid JSON: %v\n%s", err, out)
	}
	if res.N != 4 || res.Source != "graphs" || res.Graphs != 6 || res.Completed != 6 {
		t.Fatalf("unexpected sweep JSON header: %+v", res)
	}
	if len(res.Items) != 6 || len(res.GraphList) != 6 {
		t.Fatalf("want 6 items and graphs, got %d/%d", len(res.Items), len(res.GraphList))
	}
	sawRho := false
	for _, it := range res.Items {
		if !it.Done {
			t.Fatalf("completed sweep has undone item: %+v", it)
		}
		if it.Rho > 1 {
			sawRho = true
		}
	}
	if !sawRho {
		t.Fatal("-rho did not populate any ρ > 1")
	}
}

func TestPoAJSON(t *testing.T) {
	out, err := runCLI(t, "", "poa", "-n", "5", "-alpha", "3", "-concept", "PS", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		N          int     `json:"n"`
		Alpha      string  `json:"alpha"`
		Concept    string  `json:"concept"`
		Rho        float64 `json:"rho"`
		Witness    string  `json:"witness"`
		Candidates int     `json:"candidates"`
		Partial    bool    `json:"partial"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("poa -json output is not valid JSON: %v\n%s", err, out)
	}
	if res.N != 5 || res.Alpha != "3" || res.Concept != "PS" || res.Rho < 1 || res.Partial {
		t.Fatalf("unexpected poa JSON: %+v", res)
	}
	if !strings.HasPrefix(res.Witness, "n 5\n") {
		t.Fatalf("witness not in edge-list format: %q", res.Witness)
	}
}

func TestExperimentJSON(t *testing.T) {
	out, err := runCLI(t, "", "experiment", "F3", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var reports []struct {
		ID      string `json:"id"`
		Title   string `json:"title"`
		AllPass bool   `json:"all_pass"`
		Checks  []struct {
			Name string `json:"name"`
			Pass bool   `json:"pass"`
		} `json:"checks"`
	}
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("experiment -json output is not valid JSON: %v\n%s", err, out)
	}
	if len(reports) != 1 || reports[0].ID != "F3" || !reports[0].AllPass || len(reports[0].Checks) == 0 {
		t.Fatalf("unexpected experiment JSON: %+v", reports)
	}
}

// TestTimeoutInterruptsSweep: an unmeetable global deadline still prints
// the partial report and surfaces an "interrupted" error — the same path a
// SIGINT takes through signal.NotifyContext.
func TestTimeoutInterruptsSweep(t *testing.T) {
	out, err := runCLI(t, "", "-timeout", "1ns", "sweep", "-n", "6")
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupted", err)
	}
	if !strings.Contains(out, "sweep n=6") {
		t.Fatalf("partial report missing:\n%s", out)
	}
	out, err = runCLI(t, "", "-timeout", "1ns", "poa", "-n", "8", "-alpha", "4", "-concept", "PS")
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("poa err = %v, want interrupted", err)
	}
	if !strings.Contains(out, "(partial)") {
		t.Fatalf("poa partial marker missing:\n%s", out)
	}
	if _, err := runCLI(t, "", "-timeout", "1m", "list"); err != nil {
		t.Fatalf("generous timeout broke list: %v", err)
	}
}

// cacheLine extracts the trailing "workers=… cache: X hits, Y misses"
// counters from a sweep text report.
func cacheLine(t *testing.T, out string) (hits, misses int) {
	t.Helper()
	i := strings.LastIndex(out, "cache: ")
	if i < 0 {
		t.Fatalf("no cache line in output:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "cache: %d hits, %d misses", &hits, &misses); err != nil {
		t.Fatalf("unparseable cache line %q: %v", out[i:], err)
	}
	return hits, misses
}

// TestSweepStoreRunTwiceByteIdentical: two runs of the same grid against
// the same store — each with its own fresh in-memory cache, so only the
// disk can help — produce byte-identical reports, and the second
// run is served entirely (≥ 90% required, 100% delivered) from persisted
// verdicts.
func TestSweepStoreRunTwiceByteIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{"sweep", "-n", "4", "-store", dir}
	out1, err := runCLI(t, "", args...)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := runCLI(t, "", args...)
	if err != nil {
		t.Fatal(err)
	}
	table := func(s string) string { return s[:strings.LastIndex(s, "workers=")] }
	if table(out1) != table(out2) {
		t.Fatalf("store-backed reruns differ:\n%s\nvs\n%s", out1, out2)
	}
	hits1, misses1 := cacheLine(t, out1)
	hits2, misses2 := cacheLine(t, out2)
	if hits1 != 0 || misses1 == 0 {
		t.Fatalf("first run against an empty store: %d hits, %d misses", hits1, misses1)
	}
	if misses2 != 0 || hits2 != hits1+misses1 {
		t.Fatalf("second run not fully served from the store: %d hits, %d misses", hits2, misses2)
	}
}

// TestSweepResume: an interrupted store-backed sweep is continued by
// re-running the same command against the store. The rerun (a fresh
// cache, so only the disk can help) is served partly from the
// certificates the interrupted run persisted, and prints the
// byte-identical report of an uninterrupted run. The deadline starts at
// half the uninterrupted run's wall time and adapts until one run is
// interrupted after persisting at least one certificate.
func TestSweepResume(t *testing.T) {
	args := []string{"sweep", "-n", "5", "-concepts", "all"}
	start := time.Now()
	fresh, err := runCLI(t, "", args...)
	if err != nil {
		t.Fatal(err)
	}
	budget := time.Since(start) / 2
	table := func(s string) string { return s[:strings.LastIndex(s, "workers=")] }
	for range 8 {
		dir := t.TempDir()
		stored := append(slices.Clone(args), "-store", dir)
		_, err := runCLI(t, "", append([]string{"-timeout", budget.String()}, stored...)...)
		if err == nil {
			budget /= 2 // the grid finished inside the deadline
			continue
		}
		if !strings.Contains(err.Error(), "interrupted") {
			t.Fatalf("want an interrupted error, got: %v", err)
		}
		st, err := store.Open(dir, store.Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		persisted := st.Len()
		st.Close()
		if persisted == 0 {
			budget *= 3 // interrupted before any certificate was persisted
			continue
		}
		rerun, err := runCLI(t, "", stored...)
		if err != nil {
			t.Fatal(err)
		}
		if table(rerun) != table(fresh) {
			t.Fatalf("rerun report differs from an uninterrupted run:\n%s\nvs\n%s", rerun, fresh)
		}
		if hits, _ := cacheLine(t, rerun); hits == 0 {
			t.Fatalf("rerun reused none of the %d persisted certificates", persisted)
		}
		return
	}
	t.Skip("no deadline interrupted the grid after a certificate was persisted; host timing too uneven")
}

// TestSweepResumeFromCheckpoint: the certificate store is the sweep's
// checkpoint. A store left by a run over part of a grid (two of three α
// rows) continues into the whole grid when the larger sweep is run
// against it: the report matches a fresh run, and the rows already
// persisted are served from the store rather than recomputed.
func TestSweepResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI(t, "", "sweep", "-n", "5", "-alphas", "1,2", "-store", dir); err != nil {
		t.Fatal(err)
	}
	resumed, err := runCLI(t, "", "sweep", "-n", "5", "-alphas", "1,2,3", "-store", dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := runCLI(t, "", "sweep", "-n", "5", "-alphas", "1,2,3")
	if err != nil {
		t.Fatal(err)
	}
	table := func(s string) string { return s[:strings.LastIndex(s, "workers=")] }
	if table(resumed) != table(fresh) {
		t.Fatalf("resumed report differs:\n%s\nvs\n%s", resumed, fresh)
	}
	// Two of the three α rows were persisted: the resumed run must have
	// been served ≥ 2/3 from the store.
	hits, misses := cacheLine(t, resumed)
	if hits < 2*misses {
		t.Fatalf("resume reused too little: %d hits, %d misses", hits, misses)
	}
}

// TestStoreCommand: stats and compact verbs over a store populated by a
// sweep.
func TestStoreCommand(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI(t, "", "sweep", "-n", "4", "-alphas", "1,2", "-concepts", "PS,BGE", "-store", dir); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "", "store", "stats", "-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Records  int   `json:"records"`
		Segments int   `json:"segments"`
		Bytes    int64 `json:"disk_bytes"`
	}
	if err := json.Unmarshal([]byte(out), &stats); err != nil {
		t.Fatalf("stats output: %v\n%s", err, out)
	}
	// The certificate engine persists one record per (class, concept) —
	// 6 classes × 2 concepts — regardless of the two-point α grid.
	if stats.Records != 6*2 || stats.Segments == 0 || stats.Bytes == 0 {
		t.Fatalf("unexpected stats: %+v", stats)
	}
	out, err = runCLI(t, "", "store", "compact", "-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "compacted") {
		t.Fatalf("compact output:\n%s", out)
	}
	if _, err := runCLI(t, "", "store", "frobnicate", "-dir", dir); err == nil {
		t.Fatal("unknown store verb accepted")
	}
	if _, err := runCLI(t, "", "store", "stats"); err == nil {
		t.Fatal("store stats without -dir accepted")
	}
}

// syncWriter makes a bytes.Buffer safe to share between the serve
// goroutine and the test's polling reads.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestServeCommand: end to end through the daemon loop — boot `bncg
// serve` on an ephemeral port with a store, stream one NDJSON sweep and
// read /healthz over real HTTP, then SIGnal shutdown and expect a clean
// (nil-error) exit.
func TestServeCommand(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-store", dir}, strings.NewReader(""), &out)
	}()
	var base string
	for deadline := time.Now().Add(5 * time.Second); ; {
		s := out.String()
		if i := strings.Index(s, "listening on http://"); i >= 0 {
			base = strings.TrimSpace(s[i+len("listening on "):])
			base = strings.Split(base, "\n")[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never came up:\n%s", s)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(base + "/v1/sweep?n=4&alphas=1,2&concepts=PS")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"type":"summary"`) {
		t.Fatalf("sweep over HTTP: status %d\n%s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"status": "ok"`) || !strings.Contains(string(body), `"store"`) {
		t.Fatalf("healthz:\n%s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited non-zero: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Fatalf("no shutdown notice:\n%s", out.String())
	}
	// The store was flushed and unlocked on the way out: the verdicts the
	// HTTP sweep computed are durable.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() == 0 {
		t.Fatal("daemon persisted no verdicts")
	}
}

// TestCriticalCommandByteStable: `bncg critical` run twice (each run owns
// a fresh cache, so the second run re-certifies from scratch) produces byte-identical output, and its thresholds agree with
// per-α sweep verdicts on every side of each breakpoint.
func TestCriticalCommandByteStable(t *testing.T) {
	out1, err := runCLI(t, "", "critical", "-n", "4")
	if err != nil {
		t.Fatal(err)
	}
	out2, err := runCLI(t, "", "critical", "-n", "4", "-workers", "3")
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatalf("critical runs differ:\n%s\nvs\n%s", out1, out2)
	}
	if !strings.Contains(out1, "breakpoints") || !strings.Contains(out1, "stable classes") {
		t.Fatalf("critical output malformed:\n%s", out1)
	}

	// JSON form carries the exact rational thresholds.
	jout, err := runCLI(t, "", "critical", "-n", "4", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		N        int    `json:"n"`
		Source   string `json:"source"`
		Classes  int    `json:"classes"`
		Critical []struct {
			Concept string   `json:"concept"`
			Alphas  []string `json:"alphas"`
		} `json:"critical"`
	}
	if err := json.Unmarshal([]byte(jout), &res); err != nil {
		t.Fatalf("critical -json output: %v\n%s", err, jout)
	}
	if res.N != 4 || res.Classes != 6 || len(res.Critical) != 9 {
		t.Fatalf("unexpected critical JSON: %+v", res)
	}

	// Exactness: the RE row reports the clique threshold α = 1; the sweep
	// verdict counts must differ across it and match on it.
	reRow := res.Critical[0]
	if reRow.Concept != "RE" || len(reRow.Alphas) == 0 || reRow.Alphas[0] != "1" {
		t.Fatalf("RE critical row misses the α=1 threshold: %+v", reRow)
	}
	sweepOut, err := runCLI(t, "", "sweep", "-n", "4", "-alphas", "1/2,1,3/2", "-concepts", "RE")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"     1/2      6", "       1      6", "     3/2      3"} {
		if !strings.Contains(sweepOut, want) {
			t.Fatalf("sweep verdicts around the RE threshold missing %q:\n%s", want, sweepOut)
		}
	}
}

// TestCriticalInt64Breakpoint: price multipliers near 2^62 put
// breakpoints where int64 region probes and sort keys overflow: 1/2^62
// for mul:0=2^62 at n=3, and 2/m, 4/m with m = 2^62−1 for mul:0=m/2 at
// n=4. Each report prints in increasing breakpoint order, with the
// counts of the default game scaled onto the tiny breakpoints.
func TestCriticalInt64Breakpoint(t *testing.T) {
	for _, tc := range []struct{ n, variant, want string }{
		{"3", "mul:0=4611686018427387904/1",
			"critical n=3 source=graphs variant=mul:0=4611686018427387904: 2 classes, exact stable-α structure\n" +
				"RE     breakpoints: 1/4611686018427387904\n" +
				"RE     stable classes: [0,1/4611686018427387904):2 {1/4611686018427387904}:2 (1/4611686018427387904,∞):1\n"},
		{"4", "mul:0=4611686018427387903/2",
			"critical n=4 source=graphs variant=mul:0=4611686018427387903/2: 6 classes, exact stable-α structure\n" +
				"RE     breakpoints: 2/4611686018427387903 4/4611686018427387903\n" +
				"RE     stable classes: [0,2/4611686018427387903):6 {2/4611686018427387903}:6 " +
				"(2/4611686018427387903,4/4611686018427387903):3 {4/4611686018427387903}:3 (4/4611686018427387903,∞):2\n"},
	} {
		out, err := runCLI(t, "", "critical", "-n", tc.n, "-concepts", "RE", "-variant", tc.variant)
		if err != nil {
			t.Fatal(err)
		}
		if out != tc.want {
			t.Errorf("%s: got:\n%s\nwant:\n%s", tc.variant, out, tc.want)
		}
	}
}

// TestSweepMultiplierOutOfExactRange: at n=4 a distance sum reaches 6,
// so a multiplier denominator above ⌊(2^63−1)/6⌋ could scale a cost delta
// out of int64. sweep refuses mul:0=1/2^62 with an error; it panicked
// computing agent 0's effective price α/2^62.
func TestSweepMultiplierOutOfExactRange(t *testing.T) {
	out, err := runCLI(t, "", "sweep", "-n", "4", "-concepts", "RE", "-alphas", "1/2,3/2,3",
		"-variant", "mul:0=1/4611686018427387904")
	if err == nil || !strings.Contains(err.Error(), "out of exact range") {
		t.Fatalf("err = %v, want the exact-range refusal; output:\n%s", err, out)
	}
}

// TestCriticalMultiplierOutOfExactRange: critical refuses denominators
// past the bound of TestSweepMultiplierOutOfExactRange (it printed
// breakpoints 1 and wrong counts for 1/2^62), while the largest admitted
// denominator answers exactly: the report of mul:0=1/1000000.
func TestCriticalMultiplierOutOfExactRange(t *testing.T) {
	for _, variant := range []string{"mul:0=1/4611686018427387904", "mul:0=1/1537228672809129302"} {
		out, err := runCLI(t, "", "critical", "-n", "4", "-concepts", "RE", "-variant", variant)
		if err == nil || !strings.Contains(err.Error(), "out of exact range") {
			t.Fatalf("%s: err = %v, want the exact-range refusal; output:\n%s", variant, err, out)
		}
	}
	report := func(variant string) string {
		out, err := runCLI(t, "", "critical", "-n", "4", "-concepts", "RE", "-variant", variant)
		if err != nil {
			t.Fatal(err)
		}
		return out[strings.Index(out, "\n")+1:] // drop the header naming the variant
	}
	if got, want := report("mul:0=1/1537228672809129301"), report("mul:0=1/1000000"); got != want {
		t.Fatalf("largest admitted multiplier:\n%s\nwant:\n%s", got, want)
	}
}

// TestSweepExactFlag: `sweep -exact` appends the critical report to the
// standard table, byte-stable across worker counts.
func TestSweepExactFlag(t *testing.T) {
	out1, err := runCLI(t, "", "sweep", "-n", "4", "-exact", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	out2, err := runCLI(t, "", "sweep", "-n", "4", "-exact", "-workers", "4")
	if err != nil {
		t.Fatal(err)
	}
	table := func(s string) string { return s[:strings.LastIndex(s, "workers=")] }
	if table(out1) != table(out2) {
		t.Fatalf("sweep -exact reports differ across worker counts:\n%s\nvs\n%s", out1, out2)
	}
	if !strings.Contains(out1, "sweep n=4") || !strings.Contains(out1, "critical n=4") {
		t.Fatalf("sweep -exact output missing a section:\n%s", out1)
	}
	// The critical section matches the dedicated subcommand byte for byte.
	crit, err := runCLI(t, "", "critical", "-n", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out1, crit) {
		t.Fatalf("sweep -exact critical section differs from `bncg critical`:\n%s\nvs\n%s", out1, crit)
	}
}

// TestCriticalCommandStore: `critical -store` persists certificates that a
// later sweep over any grid is fully served from.
func TestCriticalCommandStore(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI(t, "", "critical", "-n", "4", "-store", dir); err != nil {
		t.Fatal(err)
	}
	// A dense shifted grid no prior run ever touched: every verdict must
	// still come from the persisted certificates.
	out, err := runCLI(t, "", "sweep", "-n", "4", "-alphas", "1/3,2/3,4/3,7/3,11/3", "-store", dir)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cacheLine(t, out)
	if misses != 0 || hits == 0 {
		t.Fatalf("dense-grid sweep not served from certificates: %d hits, %d misses", hits, misses)
	}
}

// TestServeRejectsReadonlyFlag: the read-replica role is gone; serve
// refuses -readonly as an unknown flag, before binding a socket.
func TestServeRejectsReadonlyFlag(t *testing.T) {
	_, err := runCLI(t, "", "serve", "-readonly", "-store", t.TempDir(), "-addr", "127.0.0.1:0")
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -readonly") {
		t.Fatalf("err = %v, want -readonly rejected as an unknown flag", err)
	}
}

// TestFleetDurationFlagsRejected: a non-positive coordinator -watch and a
// worker -ttl too short for its TTL/3 heartbeat are clean errors, not
// ticker panics; -plan-only never watches, so it accepts any -watch.
func TestFleetDurationFlagsRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	if _, err := runCLI(t, "", "fleet", "-dir", dir, "-n", "3", "-watch", "0"); err == nil || !strings.Contains(err.Error(), "-watch") {
		t.Fatalf("fleet -watch 0: err %v, want a -watch error", err)
	}
	if _, err := runCLI(t, "", "fleet", "-dir", dir, "-n", "3", "-watch", "0", "-plan-only"); err != nil {
		t.Fatalf("fleet -plan-only -watch 0: %v", err)
	}
	if _, err := runCLI(t, "", "worker", "-dir", dir, "-id", "w", "-ttl", "2ns"); err == nil || !strings.Contains(err.Error(), "heartbeat") {
		t.Fatalf("worker -ttl 2ns: err %v, want a heartbeat-period error", err)
	}
}

// TestFleetCommandsEndToEnd drives the whole distributed-sweep surface
// through the CLI: plan a fleet, race two workers over it, have the
// coordinator observe completion and merge the shards, and check the
// merged store dumps byte-identically to a single-process sweep of the
// same grid. `store stats` must expose the per-segment breakdown.
func TestFleetCommandsEndToEnd(t *testing.T) {
	fleetDir := filepath.Join(t.TempDir(), "fleet")
	out, err := runCLI(t, "", "fleet", "-dir", fleetDir, "-n", "4", "-range-size", "2", "-plan-only")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "planned") {
		t.Fatalf("plan-only output:\n%s", out)
	}

	var wg sync.WaitGroup
	outs := make([]string, 2)
	errs := make([]error, 2)
	for i := range outs {
		id := fmt.Sprintf("w%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = runCLI(t, "", "worker", "-dir", fleetDir, "-id", id, "-ttl", "5s", "-poll", "50ms")
		}()
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v\n%s", i, errs[i], outs[i])
		}
		if !strings.Contains(outs[i], "fleet done") {
			t.Fatalf("worker %d output:\n%s", i, outs[i])
		}
	}

	merged := filepath.Join(t.TempDir(), "merged")
	out, err = runCLI(t, "", "fleet", "-dir", fleetDir, "-n", "4", "-range-size", "2", "-merge-out", merged)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "merged store complete") {
		t.Fatalf("coordinator merge output:\n%s", out)
	}

	// The reference: one process, same grid (the fleet pins α=1).
	refDir := t.TempDir()
	if _, err := runCLI(t, "", "sweep", "-n", "4", "-alphas", "1", "-store", refDir); err != nil {
		t.Fatal(err)
	}
	dumpMerged, err := runCLI(t, "", "store", "dump", "-dir", merged)
	if err != nil {
		t.Fatal(err)
	}
	dumpRef, err := runCLI(t, "", "store", "dump", "-dir", refDir)
	if err != nil {
		t.Fatal(err)
	}
	if dumpMerged == "" || dumpMerged != dumpRef {
		t.Fatalf("merged fleet store is not record-identical to the single-process sweep:\n--- merged\n%s--- single\n%s", dumpMerged, dumpRef)
	}

	statsOut, err := runCLI(t, "", "store", "stats", "-dir", merged)
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		SegmentDetail []struct {
			Name    string `json:"name"`
			Bytes   int64  `json:"bytes"`
			Records int    `json:"records"`
		} `json:"segment_detail"`
	}
	if err := json.Unmarshal([]byte(statsOut), &stats); err != nil {
		t.Fatalf("store stats JSON: %v\n%s", err, statsOut)
	}
	if len(stats.SegmentDetail) == 0 {
		t.Fatalf("store stats without segment detail:\n%s", statsOut)
	}
	for _, seg := range stats.SegmentDetail {
		if seg.Name == "" || seg.Bytes <= 0 {
			t.Fatalf("implausible segment stat %+v", seg)
		}
	}
}

// TestStoreMergeConflictFailsCLI: `store merge` must exit non-zero when
// two shards contradict each other, and say so.
func TestStoreMergeConflictFailsCLI(t *testing.T) {
	shardA, shardB := t.TempDir(), t.TempDir()
	for i, hi := range []int64{1, 2} {
		dir := []string{shardA, shardB}[i]
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		set, err := eq.NewAlphaSet([]eq.AlphaInterval{{Lo: eq.RatOf(0, 1), Hi: eq.RatOf(hi, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutCert(store.CertRecord{Canon: "c", Concept: 1, Set: set}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	out, err := runCLI(t, "", "store", "merge", "-out", t.TempDir(), shardA, shardB)
	if err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("contradictory shards merged: err=%v\n%s", err, out)
	}
}
