package fleet

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestWorkerTraceLifecycle runs one traced worker over a fleet holding an
// expired lease from a dead owner, and checks the trace carries the whole
// lease lifecycle — warm-start, claims, ranges, completions, and a steal
// event for the expired lease — while the metrics registry counts the
// same story.
func TestWorkerTraceLifecycle(t *testing.T) {
	dir := t.TempDir()
	if err := Create(dir, mustPlan(t, 4, 2)); err != nil {
		t.Fatal(err)
	}
	// A dead worker holds one range on a lease that expires immediately.
	if _, ok, err := Claim(dir, "dead", time.Millisecond); err != nil || !ok {
		t.Fatalf("seeding dead lease: ok=%v err=%v", ok, err)
	}
	time.Sleep(5 * time.Millisecond)

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, obs.TracerOptions{Source: "w1"})
	m := obs.NewComputeMetrics()
	stats, err := RunWorker(context.Background(), WorkerOptions{
		Dir:     dir,
		Owner:   "w1",
		Store:   st,
		TTL:     5 * time.Second,
		Poll:    10 * time.Millisecond,
		Trace:   tr,
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	parsed, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()), "w1")
	if err != nil {
		t.Fatalf("worker trace does not parse: %v", err)
	}
	spans := map[string]int{}
	for _, s := range parsed.Spans {
		spans[s.Name]++
	}
	if spans["warmstart"] != 1 {
		t.Fatalf("warmstart spans = %d, want 1", spans["warmstart"])
	}
	if spans["range"] != stats.Ranges || spans["complete"] != stats.Ranges {
		t.Fatalf("range/complete spans = %d/%d, worker completed %d ranges",
			spans["range"], spans["complete"], stats.Ranges)
	}
	if spans["claim"] < stats.Ranges {
		t.Fatalf("claim spans = %d, want >= %d", spans["claim"], stats.Ranges)
	}
	steals := 0
	for _, e := range parsed.Events {
		if e.Name == "steal" {
			steals++
		}
	}
	if steals != 1 {
		t.Fatalf("steal events = %d, want exactly 1 (the dead owner's range)", steals)
	}

	var b strings.Builder
	m.Registry.WriteText(&b)
	for _, want := range []string{
		"bncg_worker_steals_total 1",
		"bncg_lease_epoch 0", // idle again after the run
		"bncg_cache_hits_total ",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("worker exposition missing %q:\n%s", want, b.String())
		}
	}
	wantRanges := fmt.Sprintf("bncg_worker_ranges_total %d", stats.Ranges)
	if !strings.Contains(b.String(), wantRanges) {
		t.Fatalf("worker exposition missing %q", wantRanges)
	}
}
