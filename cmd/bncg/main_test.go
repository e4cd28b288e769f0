package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	bncg "repro"
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

func runCLICtx(t *testing.T, ctx context.Context, stdin string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(ctx, args, strings.NewReader(stdin), &out)
	return out.String(), err
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

// TestSweepResume: an interrupted store-backed sweep leaves a checkpoint;
// `sweep -store … -resume` (fresh cache, grid restored from the
// checkpoint) completes to the byte-identical report of an uninterrupted
// run, and a completed sweep clears its checkpoint.
func TestSweepResume(t *testing.T) {
	dir := t.TempDir()
	// Bound the first run so tightly it cannot finish the n=5 grid.
	_, err := runCLICtx(t, context.Background(), "",
		"-timeout", "40ms", "sweep", "-n", "5", "-concepts", "all", "-store", dir)
	if err == nil {
		t.Skip("grid finished inside the timeout; host too fast for an interrupt test")
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("want an interrupted error, got: %v", err)
	}

	resumed, err := runCLI(t, "", "sweep", "-store", dir, "-resume")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := runCLI(t, "", "sweep", "-n", "5", "-concepts", "all")
	if err != nil {
		t.Fatal(err)
	}
	table := func(s string) string { return s[:strings.LastIndex(s, "workers=")] }
	if table(resumed) != table(fresh) {
		t.Fatalf("resumed report differs from an uninterrupted run:\n%s\nvs\n%s", resumed, fresh)
	}
	// Completion cleared the checkpoint.
	if _, err := runCLI(t, "", "sweep", "-store", dir, "-resume"); err == nil ||
		!strings.Contains(err.Error(), "nothing to resume") {
		t.Fatalf("checkpoint not cleared after completion: %v", err)
	}
}

// TestSweepResumeFromCheckpoint pins resume semantics without racing a
// timer: a store is primed with a completed two-α sweep, then a
// checkpoint describing a three-α grid is planted — exactly the state an
// interrupt during the third row leaves behind. -resume must restore the
// checkpointed grid (ignoring flags), reuse every persisted verdict, and
// match an uninterrupted three-α run byte for byte.
func TestSweepResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI(t, "", "sweep", "-n", "5", "-alphas", "1,2", "-store", dir); err != nil {
		t.Fatal(err)
	}
	st, err := bncg.OpenStore(dir, bncg.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	grid := bncg.SweepOptions{
		N:        5,
		Alphas:   []bncg.Alpha{bncg.AlphaInt(1), bncg.AlphaInt(2), bncg.AlphaInt(3)},
		Concepts: bncg.Concepts(),
	}
	if err := st.SaveCheckpoint(bncg.NewSweepCheckpoint(grid, 63, 42)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := runCLI(t, "", "sweep", "-store", dir, "-resume", "-n", "99")
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

func TestSweepResumeFlagErrors(t *testing.T) {
	if _, err := runCLI(t, "", "sweep", "-resume"); err == nil ||
		!strings.Contains(err.Error(), "-resume requires -store") {
		t.Fatalf("resume without store: %v", err)
	}
	if _, err := runCLI(t, "", "sweep", "-store", t.TempDir(), "-resume"); err == nil ||
		!strings.Contains(err.Error(), "nothing to resume") {
		t.Fatalf("resume without checkpoint: %v", err)
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
		Records      int   `json:"records"`
		Verdicts     int   `json:"verdict_records"`
		Certificates int   `json:"certificate_records"`
		Segments     int   `json:"segments"`
		Bytes        int64 `json:"disk_bytes"`
	}
	if err := json.Unmarshal([]byte(out), &stats); err != nil {
		t.Fatalf("stats output: %v\n%s", err, out)
	}
	// The certificate engine persists one record per (class, concept) —
	// 6 classes × 2 concepts — regardless of the two-point α grid.
	if stats.Records != 6*2 || stats.Certificates != 6*2 || stats.Verdicts != 0 ||
		stats.Segments == 0 || stats.Bytes == 0 {
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
	st, err := bncg.OpenStore(dir, bncg.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() == 0 {
		t.Fatal("daemon persisted no verdicts")
	}
}

// TestSweepStoreForeignCheckpointGuard: a store holding the checkpoint of
// an interrupted grid refuses a different grid without -resume, so one
// sweep cannot clobber another's resume state; the same grid is allowed
// (its completion legitimately clears the checkpoint).
func TestSweepStoreForeignCheckpointGuard(t *testing.T) {
	dir := t.TempDir()
	st, err := bncg.OpenStore(dir, bncg.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	grid := bncg.SweepOptions{
		N:        6,
		Alphas:   []bncg.Alpha{bncg.AlphaInt(1)},
		Concepts: bncg.Concepts(),
	}
	if err := st.SaveCheckpoint(bncg.NewSweepCheckpoint(grid, 112, 10)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = runCLI(t, "", "sweep", "-n", "4", "-store", dir)
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("foreign grid ran over an interrupted checkpoint: %v", err)
	}
	// The identical grid may run without -resume and clears the
	// checkpoint on completion — but n=6 is slow, so assert only the
	// cheap half: after the guard error the checkpoint is untouched.
	st, err = bncg.OpenStore(dir, bncg.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var cp bncg.SweepCheckpoint
	if ok, err := st.LoadCheckpoint(&cp); err != nil || !ok || cp.N != 6 {
		t.Fatalf("guard damaged the checkpoint: %v %v %+v", ok, err, cp)
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

// TestServeReplicaCommand: `bncg serve -readonly` boots against a store a
// writer produced, serves its verdicts from certificates without taking
// the writer lock — a writer can still open the directory while the
// replica runs — and the re-warm loop folds in records the writer
// flushes afterwards.
func TestServeReplicaCommand(t *testing.T) {
	dir := t.TempDir()
	seed := func(n int) {
		st, err := bncg.OpenStore(dir, bncg.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cache := bncg.NewSweepCache()
		cache.Persist(st)
		if _, err := bncg.RunSweep(context.Background(), bncg.SweepOptions{
			N:        n,
			Alphas:   []bncg.Alpha{bncg.AlphaInt(2)},
			Concepts: bncg.Concepts(),
			Cache:    cache,
		}); err != nil {
			t.Fatal(err)
		}
		cache.Persist(nil)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	seed(4)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-store", dir,
			"-readonly", "-rewarm-interval", "25ms", "-rate", "500", "-burst", "100",
			"-max-inflight", "8"}, strings.NewReader(""), &out)
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
			t.Fatalf("replica never came up:\n%s", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "replica") {
		t.Fatalf("boot banner does not announce replica mode:\n%s", out.String())
	}

	httpGet := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if _, body := httpGet(base + "/healthz"); !strings.Contains(body, `"role": "replica"`) {
		t.Fatalf("healthz:\n%s", body)
	}

	check := func(n int) (string, bool) {
		t.Helper()
		resp, err := http.Post(base+"/v1/check?alpha=7/3&concept=PS", "text/plain",
			strings.NewReader(bncg.EncodeGraph(bncg.Star(n))))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check n=%d: status %d: %s", n, resp.StatusCode, b)
		}
		return string(b), strings.Contains(string(b), `"from_cache": true`)
	}
	if body, cached := check(4); !cached {
		t.Fatalf("warm-started certificate did not answer: %s", body)
	}

	// The replica holds no writer lock: the writer reopens the directory
	// while the replica serves, ingests n=5, and the re-warm loop picks it
	// up without a restart.
	seed(5)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, cached := check(5); cached {
			break
		}
		if time.Now().After(deadline) {
			_, metrics := httpGet(base + "/metrics")
			t.Fatalf("re-warm never surfaced the writer's n=5 certificates\n%s", metrics)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if _, metrics := httpGet(base + "/metrics"); !strings.Contains(metrics, "bncg_readonly 1") {
		t.Fatalf("replica metrics:\n%s", metrics)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("replica exited non-zero: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replica did not shut down")
	}
}

// TestServeReadonlyRequiresStore: a replica without a store directory is
// a configuration error, caught before binding a socket.
func TestServeReadonlyRequiresStore(t *testing.T) {
	_, err := runCLI(t, "", "serve", "-readonly", "-addr", "127.0.0.1:0")
	if err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("err = %v, want the -readonly/-store usage error", err)
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
	for i, stable := range []bool{true, false} {
		dir := []string{shardA, shardB}[i]
		st, err := bncg.OpenStore(dir, bncg.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(bncg.StoreRecord{Canon: "c", Num: 1, Den: 1, Concept: 1, Stable: stable}); err != nil {
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
