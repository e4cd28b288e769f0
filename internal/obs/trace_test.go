package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic, concurrency-safe clock: each observation
// advances time by 1ms.
type fakeClock struct {
	mu sync.Mutex
	us int64
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.us += 1000
	return time.UnixMicro(c.us)
}

// TestTracerFrameSchema pins the exact byte layout of the three frame
// types (version 1). Any change here is a schema break: bump
// TraceVersion and teach ReadTrace both generations before touching the
// golden string.
func TestTracerFrameSchema(t *testing.T) {
	var buf bytes.Buffer
	clk := &fakeClock{}
	tr := NewTracer(&buf, TracerOptions{Source: "w\"1", Now: clk.Now})
	sp := tr.Start("certify")
	sp.End(Attrs{"class": 7, "concept": "PS", "cached": false, "ratio": 1.5, "big": int64(1 << 40)})
	tr.Event("steal", Attrs{"epoch": 3})
	tr.Start("empty").End(nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"type":"header","v":1,"source":"w\"1","start_us":1000}
{"type":"span","name":"certify","source":"w\"1","start_us":2000,"dur_us":1000,"attrs":{"big":1099511627776,"cached":false,"class":7,"concept":"PS","ratio":1.5}}
{"type":"event","name":"steal","source":"w\"1","at_us":4000,"attrs":{"epoch":3}}
{"type":"span","name":"empty","source":"w\"1","start_us":5000,"dur_us":1000}
`
	if got := buf.String(); got != want {
		t.Fatalf("frame bytes drifted from the pinned v1 schema:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestTracerDeterministicReplay: the same span sequence against the same
// clock must produce byte-identical streams — the property the sweep
// replay test relies on at full scale.
func TestTracerDeterministicReplay(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		clk := &fakeClock{}
		tr := NewTracer(&buf, TracerOptions{Source: "replay", Now: clk.Now})
		for i := 0; i < 10; i++ {
			sp := tr.Start("step")
			sp.End(Attrs{"i": i, "name": "x"})
		}
		tr.Event("done", nil)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := emit(), emit()
	if !bytes.Equal(a, b) {
		t.Fatalf("replay not byte-identical:\n%s\nvs\n%s", a, b)
	}
}

// closeCountingBuffer records whether Close was called and how many bytes
// reached it (i.e. were flushed out of the Tracer's buffer).
type closeCountingBuffer struct {
	bytes.Buffer
	closed int
}

func (b *closeCountingBuffer) Close() error {
	b.closed++
	return nil
}

// TestTracerCloseFlushesEverything: every frame emitted before Close must
// be durable in the underlying writer after it, the writer's own Close
// must run exactly once, and the Tracer must own no goroutines.
func TestTracerCloseFlushesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	var sink closeCountingBuffer
	tr := NewTracer(&sink, TracerOptions{Source: "flush"})
	const spans = 500
	for i := 0; i < spans; i++ {
		tr.Start("s").End(Attrs{"i": i})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.closed != 1 {
		t.Fatalf("underlying Close ran %d times, want 1", sink.closed)
	}
	parsed, err := ReadTrace(&sink.Buffer, "flush")
	if err != nil {
		t.Fatalf("flushed stream does not parse: %v", err)
	}
	if len(parsed.Spans) != spans {
		t.Fatalf("flushed stream holds %d spans, emitted %d", len(parsed.Spans), spans)
	}
	// No goroutine leak: the tracer is purely synchronous. Allow the
	// runtime a moment to retire unrelated test goroutines.
	for i := 0; ; i++ {
		if after := runtime.NumGoroutine(); after <= before {
			break
		} else if i >= 50 {
			t.Fatalf("goroutines grew from %d to %d across a Tracer lifecycle", before, after)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTracerConcurrent hammers one Tracer from many goroutines (meant for
// -race) and checks the interleaved output is still a well-formed stream
// holding every frame exactly once.
func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, TracerOptions{Source: "conc"})
	const (
		goroutines = 8
		perG       = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sp := tr.Start("work")
				sp.End(Attrs{"g": g, "i": i})
				if i%50 == 0 {
					tr.Event("tick", Attrs{"g": g})
					_ = tr.Flush()
				}
			}
		}()
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadTrace(&buf, "conc")
	if err != nil {
		t.Fatalf("concurrent stream does not parse: %v", err)
	}
	if want := goroutines * perG; len(parsed.Spans) != want {
		t.Fatalf("parsed %d spans, want %d", len(parsed.Spans), want)
	}
	if want := goroutines * (perG / 50); len(parsed.Events) != want {
		t.Fatalf("parsed %d events, want %d", len(parsed.Events), want)
	}
}

// TestNilTracerIsFree: a nil *Tracer (tracing disabled) must accept the
// whole API as no-ops — this is the zero-cost path every untraced sweep
// takes.
func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	if sp != nil {
		t.Fatalf("nil tracer returned a live span")
	}
	sp.End(Attrs{"k": 1})
	tr.Event("e", nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateTraceAppends: restarting a tracer on the same path appends a
// second header and the combined file still parses, keeping both
// sessions' frames.
func TestCreateTraceAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.trace")
	for _, source := range []string{"run1", "run2"} {
		tr, err := CreateTrace(path, source)
		if err != nil {
			t.Fatal(err)
		}
		tr.Start("s").End(nil)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	parsed, err := ReadTraceFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Spans) != 2 {
		t.Fatalf("appended file holds %d spans, want 2", len(parsed.Spans))
	}
	if got := strings.Join(parsed.Sources, ","); got != "run1,run2" {
		t.Fatalf("sources = %q, want run1,run2", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"type":"header"`); n != 2 {
		t.Fatalf("appended file holds %d headers, want 2", n)
	}
}
