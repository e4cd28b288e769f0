package sweep

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/store"
)

// itemFingerprint renders every observable field of an item, so two
// sequences can be compared byte for byte.
func itemFingerprint(items []Item) string {
	s := ""
	for _, it := range items {
		s += fmt.Sprintf("%d/%d v=%016b rho=%v g=%s\n",
			it.AlphaIndex, it.GraphIndex, it.Vector, it.Rho, it.Graph)
	}
	return s
}

// TestStreamOrderMatchesBatch: the item sequence streamed through
// Options.OnItem is byte-identical to the batch Result.Items order of a
// run without the hook, at one worker and at NumCPU workers (run under
// -race in CI, exercising the coordinator against scheduling jitter).
func TestStreamOrderMatchesBatch(t *testing.T) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		opts := Options{
			N:        5,
			Alphas:   figure1Alphas(),
			Concepts: []eq.Concept{eq.RE, eq.BAE, eq.PS, eq.BSwE, eq.BGE},
			Workers:  workers,
			Rho:      true,
		}
		batch := mustRun(t, opts)
		var streamed []Item
		opts.OnItem = func(it Item) { streamed = append(streamed, it) }
		mustRun(t, opts)
		if len(streamed) != len(batch.Items) {
			t.Fatalf("workers=%d: streamed %d items, batch has %d", workers, len(streamed), len(batch.Items))
		}
		if got, want := itemFingerprint(streamed), itemFingerprint(batch.Items); got != want {
			t.Fatalf("workers=%d: streamed order differs from batch:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestOnItemOrderUnderRun: the OnItem hook observes the α-major order too,
// and Progress counts reach total exactly once.
func TestOnItemOrderUnderRun(t *testing.T) {
	var seen []Item
	var lastDone, calls int
	opts := latticeOptions(4, runtime.NumCPU(), nil)
	opts.OnItem = func(it Item) { seen = append(seen, it) }
	opts.Progress = func(done, total int) {
		if done != lastDone+1 || total != 6*len(figure1Alphas()) {
			t.Errorf("progress (%d, %d) after %d", done, total, lastDone)
		}
		lastDone = done
		calls++
	}
	res := mustRun(t, opts)
	if len(seen) != len(res.Items) || calls != len(res.Items) {
		t.Fatalf("OnItem saw %d items, Progress %d calls, want %d", len(seen), calls, len(res.Items))
	}
	if got, want := itemFingerprint(seen), itemFingerprint(res.Items); got != want {
		t.Fatalf("OnItem order differs from Items:\n%s\nvs\n%s", got, want)
	}
	if res.Completed != len(res.Items) {
		t.Fatalf("Completed = %d, want %d", res.Completed, len(res.Items))
	}
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base, tolerating runtime background goroutines that retire lazily.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before the sweep", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunCancelReturnsPromptlyWithoutLeaks: cancelling mid-sweep makes Run
// return with ctx.Err() and a consistent partial result, and the worker
// pool drains completely (goroutine count returns to its pre-sweep level).
func TestRunCancelReturnsPromptlyWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// n=6: a class takes milliseconds, so tasks outlast the cancel. The 21
	// classes of n=5 certify in so little time that, on a loaded machine,
	// the workers can finish them all before the coordinator reports the
	// third item.
	opts := latticeOptions(6, 4, nil)
	cancelled := false
	opts.Progress = func(done, total int) {
		// Cancel mid-flight, after a few tasks have completed.
		if done >= 3 && !cancelled {
			cancelled = true
			cancel()
		}
	}
	start := time.Now()
	res, err := Run(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// "Promptly" = without finishing the grid: tasks here are sub-second, so
	// the whole call must come back well before a full 6-node lattice sweep
	// would (and the partial result must reflect the early stop).
	if res == nil {
		t.Fatal("cancelled Run returned nil result")
	}
	if res.Completed == 0 || res.Completed >= len(res.Items) {
		t.Fatalf("cancelled sweep completed %d of %d tasks, want a strict prefix of work", res.Completed, len(res.Items))
	}
	n := 0
	for _, it := range res.Items {
		if it.Graph != nil {
			n++
		}
	}
	if n != res.Completed {
		t.Fatalf("%d filled items vs Completed=%d", n, res.Completed)
	}
	t.Logf("cancelled after %v with %d/%d tasks", time.Since(start), res.Completed, len(res.Items))
	waitForGoroutines(t, before)
}

// TestRunPreCancelled: a context cancelled before the call stops even the
// enumeration and returns an empty partial result.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, latticeOptions(5, 2, nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Completed != 0 || len(res.Items) != 0 {
		t.Fatalf("pre-cancelled sweep result: %+v", res)
	}
}

// TestResultJSONStable: the JSON encoding is deterministic across worker
// counts and exposes the documented schema fields.
func TestResultJSONStable(t *testing.T) {
	opts := Options{
		N:        4,
		Alphas:   []game.Alpha{game.AFrac(1, 2), game.A(2)},
		Concepts: []eq.Concept{eq.PS, eq.BSE},
		Rho:      true,
	}
	opts.Workers = 1
	one := mustRun(t, opts)
	opts.Workers = runtime.NumCPU()
	many := mustRun(t, opts)
	ja, err := one.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := many.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Workers is the only field allowed to differ; normalize it away.
	re := regexp.MustCompile(`"workers":\d+`)
	na := re.ReplaceAllString(string(ja), `"workers":0`)
	nb := re.ReplaceAllString(string(jb), `"workers":0`)
	if na != nb {
		t.Fatalf("JSON differs across worker counts:\n%s\nvs\n%s", na, nb)
	}
	for _, want := range []string{`"n":4`, `"source":"graphs"`, `"alphas":["1/2","2"]`, `"concepts":["PS","BSE"]`, `"graph_list"`, `"vector"`} {
		if !strings.Contains(na, want) {
			t.Fatalf("JSON missing %s:\n%s", want, na)
		}
	}
}

// TestClassRangeShardsCoverTheStream: slicing the pruned class stream
// into [start, end) shards — the fleet's unit of work distribution — and
// sweeping each shard independently certifies exactly the classes a full
// sweep does, no class missed, none duplicated across shards.
func TestClassRangeShardsCoverTheStream(t *testing.T) {
	classes, err := CountClasses(context.Background(), 5, Graphs)
	if err != nil {
		t.Fatal(err)
	}
	if classes == 0 {
		t.Fatal("empty class stream")
	}

	full := NewCache()
	whole := mustRun(t, latticeOptions(5, 2, full))
	if whole.Graphs != classes {
		t.Fatalf("CountClasses says %d, full sweep saw %d", classes, whole.Graphs)
	}

	sharded := NewCache()
	const size = 8
	for start := 0; start < classes; start += size {
		opts := latticeOptions(5, 2, sharded)
		opts.ClassStart = start
		opts.ClassEnd = min(start+size, classes)
		res := mustRun(t, opts)
		if res.Graphs != opts.ClassEnd-start {
			t.Fatalf("shard [%d,%d) swept %d classes", start, opts.ClassEnd, res.Graphs)
		}
	}

	fullCerts := map[store.CertKey]eq.AlphaSet{}
	full.RangeCerts(func(k store.CertKey, set eq.AlphaSet) bool {
		fullCerts[k] = set
		return true
	})
	n := 0
	sharded.RangeCerts(func(k store.CertKey, set eq.AlphaSet) bool {
		want, ok := fullCerts[k]
		if !ok {
			t.Errorf("shards certified %v, full sweep did not", k)
		} else if !set.Equal(want) {
			t.Errorf("certificate for %v differs: %s vs %s", k, set, want)
		}
		n++
		return true
	})
	if n != len(fullCerts) || n == 0 {
		t.Fatalf("shards produced %d certificates, full sweep %d", n, len(fullCerts))
	}

	// ClassEnd <= 0 means the end of the stream; bad ranges are refused.
	tail := latticeOptions(5, 1, NewCache())
	tail.ClassStart = classes - 2
	res := mustRun(t, tail)
	if res.Graphs != 2 {
		t.Fatalf("open-ended tail range swept %d classes, want 2", res.Graphs)
	}
	for _, bad := range []struct{ start, end int }{{-1, 0}, {4, 4}, {4, 2}} {
		opts := latticeOptions(5, 1, nil)
		opts.ClassStart, opts.ClassEnd = bad.start, bad.end
		if _, err := Run(context.Background(), opts); err == nil {
			t.Errorf("range [%d,%d) accepted", bad.start, bad.end)
		}
	}
}
