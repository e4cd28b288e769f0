package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite reference/certify-n6.tsv from eq.Certify")

// TestReference recomputes the certify-n6 reference table with
// eq.Certify, cross-checks every certificate against eq.Check at the grid
// prices, and compares the result with the embedded table (or, with
// -update, rewrites it).
func TestReference(t *testing.T) {
	if testing.Short() {
		t.Skip("certifies all 112 n=6 classes under nine concepts")
	}
	var b strings.Builder
	b.WriteString("# canonical key (upper-triangular adjacency bits)\tconcept\tstable-α certificate\n")
	ev := eq.NewEvaluator()
	gm6, err := game.NewGame(6, game.A(1))
	if err != nil {
		t.Fatal(err)
	}
	for g, cl := range graph.AllClasses(6, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
		for _, c := range eq.Concepts() {
			set := ev.Certify(gm6, g.Clone(), c)
			for _, alpha := range grid {
				gm, err := game.NewGame(6, alpha)
				if err != nil {
					t.Fatal(err)
				}
				if stable := eq.Check(gm, g.Clone(), c).Stable; stable != set.Contains(alpha) {
					t.Errorf("%v %s at α=%s: Check says %t, certificate %s", g, c, alpha, stable, set)
				}
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\n", bitKey(cl.Key), c, set)
		}
	}
	if *update {
		if err := os.WriteFile("reference/certify-n6.tsv", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if b.String() != certifyN6Reference {
		t.Fatal("reference/certify-n6.tsv differs from eq.Certify; regenerate with -update if the change is intended")
	}
}

// TestCriticalDigestN7 checks the pinned sweep-n7 digest.
func TestCriticalDigestN7(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps all 853 n=7 classes")
	}
	res, err := sweep.Run(context.Background(), sweep.Options{N: 7, Alphas: grid, Concepts: nonCoalition, Workers: 1, Cache: sweep.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(res.CriticalReport()))
	if got := hex.EncodeToString(sum[:]); got != criticalDigestN7 {
		t.Fatalf("critical report digest %s, pinned %s", got, criticalDigestN7)
	}
}

// runShort runs a workload traced for a fraction of a second per phase.
func runShort(t *testing.T, workload string) *result {
	t.Helper()
	res, err := runTraced(config{workload: workload, seed: 7, seconds: 0.3, trace: true, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestUntraced checks that an untraced run reports every end-to-end metric
// and that none reads 0.
func TestUntraced(t *testing.T) {
	res, err := runUntraced(config{workload: "serve-check", seed: 7, seconds: 0.3, workdir: t.TempDir()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("correct=%t, %d metrics", res.Correct, len(res.Metrics))
	}
	for _, m := range endToEnd {
		if v := res.Metrics[m.name].Value; !(v > 0) {
			t.Errorf("%s = %v", m.name, v)
		}
	}
}

// TestCorruptedReferenceFails shows that a wrong reference makes every op
// fail and error_share non-zero, and that the intact reference passes.
func TestCorruptedReferenceFails(t *testing.T) {
	res := runShort(t, "certify-n6")
	if !res.Correct || res.Failed != 0 || res.Metrics["error_share"].Value != 0 {
		t.Fatalf("intact reference: correct=%t failed=%d error_share=%v", res.Correct, res.Failed, res.Metrics["error_share"].Value)
	}

	saved := certifyN6Reference
	defer func() { certifyN6Reference = saved }()
	certifyN6Reference = strings.ReplaceAll(saved, "\n", " ∪ {0}\n")
	res = runShort(t, "certify-n6")
	if res.Correct || res.Failed != res.Attempted || res.Metrics["error_share"].Value != 1 {
		t.Fatalf("corrupted reference: correct=%t failed=%d of %d error_share=%v", res.Correct, res.Failed, res.Attempted, res.Metrics["error_share"].Value)
	}
}

// TestWrongAnswersFail corrupts the expected answers of the other
// workloads and checks that the op reports the mismatch.
func TestWrongAnswersFail(t *testing.T) {
	cfg := config{seed: 7, seconds: 1, workdir: t.TempDir()}

	sweepN7 := &sweepBench{n: 7, concepts: nonCoalition, digest: strings.Repeat("0", 64)}
	if _, err := sweepN7.op(0, false); err == nil {
		t.Error("sweep-n7 accepted a wrong digest")
	}

	inst, err := newServeCheck(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serve := inst.(*serveBench)
	for i := range serve.hits {
		serve.hits[i].want = !serve.hits[i].want
	}
	serve.begin(false)
	if _, err := serve.op(0, false); err == nil {
		t.Error("serve-check accepted a flipped verdict")
	}
	if err := serve.close(); err != nil {
		t.Fatal(err)
	}

	inst, err = newSimulateN128(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simulate := inst.(*simBench)
	simulate.reports[simulate.batchSeed(0)] = "not the report"
	if _, err := simulate.op(0, false); err == nil {
		t.Error("simulate-n128 accepted a report that differs from the batch's first run")
	}
}

// TestEveryWorkloadTraced runs each workload briefly with tracing and
// checks that it is correct and that the layer times add up.
func TestEveryWorkloadTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res := runShort(t, name)
			if !res.Correct {
				t.Fatalf("failed %d of %d ops", res.Failed, res.Attempted)
			}
			total := res.Metrics["unattributed_ms"].Value
			for name, m := range res.Metrics {
				if strings.HasPrefix(name, "layer.") {
					total += m.Value
				}
			}
			if mean := res.Metrics["op_mean_ms"].Value; total < mean*0.999 || total > mean*1.001 {
				t.Errorf("layers add up to %v ms, op mean %v ms", total, mean)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the metrics
// the program reports, and only workloads it runs.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %s, which the program does not run", w.Name)
		}
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		list []struct{ name, unit string }
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.list) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(c.spec), len(c.list))
			continue
		}
		for i := range c.spec {
			if c.spec[i].Name != c.list[i].name || c.spec[i].Unit != c.list[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, c.spec[i].Name, c.spec[i].Unit, c.list[i].name, c.list[i].unit)
			}
		}
	}
}
