package sweep

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// replayClock is a deterministic concurrency-safe clock: 1ms per reading.
type replayClock struct {
	mu sync.Mutex
	us int64
}

func (c *replayClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.us += 1000
	return time.UnixMicro(c.us)
}

// TestTraceReplayByteIdentical: a fixed-grid single-worker sweep traced
// against a deterministic clock must emit a byte-identical trace on
// every run — the replay property that pins both the engine's span
// ordering and the writer's frame encoding. Each run gets a fresh cache
// so the second is not answered from memory (which would legitimately
// change the span stream).
func TestTraceReplayByteIdentical(t *testing.T) {
	run := func() ([]byte, *Result) {
		var buf bytes.Buffer
		clk := &replayClock{}
		tr := obs.NewTracer(&buf, obs.TracerOptions{Source: "replay", Now: clk.Now})
		opts := latticeOptions(5, 1, NewCache())
		opts.Trace = tr
		res, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res
	}
	a, resA := run()
	b, _ := run()
	if !bytes.Equal(a, b) {
		t.Fatalf("replayed trace differs (%d vs %d bytes)", len(a), len(b))
	}

	// The stream must parse under the strict schema and account for the
	// engine's whole structure: one enumerate span, one class span per
	// class, one certify span per cache miss certification.
	parsed, err := obs.ReadTrace(bytes.NewReader(a), "replay")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range parsed.Spans {
		counts[s.Name]++
	}
	if counts["enumerate"] != 1 {
		t.Fatalf("enumerate spans = %d, want 1", counts["enumerate"])
	}
	if counts["class"] != resA.Graphs {
		t.Fatalf("class spans = %d, want %d", counts["class"], resA.Graphs)
	}
	if counts["certify"] == 0 || counts["certify"] != counts["cache_write"] {
		t.Fatalf("certify spans = %d, cache_write spans = %d: want equal and non-zero",
			counts["certify"], counts["cache_write"])
	}

	// The analyzer over a single-worker trace must account for nearly the
	// whole wall-clock: the lane is busy from enumeration to the last
	// class.
	rep := obs.Analyze(parsed, 5)
	if rep.Coverage < 0.95 {
		t.Fatalf("single-worker trace coverage = %.3f, want >= 0.95", rep.Coverage)
	}
}

// TestSweepMetricsInstrumentation: the same sweep with a ComputeMetrics
// attached must count every class and certification.
func TestSweepMetricsInstrumentation(t *testing.T) {
	m := obs.NewComputeMetrics()
	opts := latticeOptions(4, 2, NewCache())
	opts.Metrics = m
	res := mustRun(t, opts)

	var b bytes.Buffer
	m.Registry.WriteText(&b)
	text := b.String()
	for _, want := range []string{
		"bncg_sweep_classes_total 6",
		"bncg_sweep_classes_cached_total 0",
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	_ = res
}
