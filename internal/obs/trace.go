package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceVersion is the NDJSON trace schema version emitted in header
// frames. The frame shapes per version are pinned by tests; bump it on
// any incompatible change.
const TraceVersion = 1

// Attrs carries span/event attributes. Values should be strings, bools
// or numbers: they render through encoding/json with sorted keys, so a
// fixed attribute set produces byte-identical frames.
type Attrs map[string]any

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Source identifies the emitting process (worker id, "sweep",
	// "fleet"); stamped on the header and on every frame so multiple
	// shard files merge into per-source timeline lanes.
	Source string
	// Now supplies timestamps; nil means time.Now. Injecting a
	// deterministic clock makes traces byte-identical across replays
	// (exercised by the replay test). Must be safe for concurrent use.
	Now func() time.Time
}

// A Tracer writes an append-only NDJSON stream of span and event frames.
// One frame per line, three frame types:
//
//	{"type":"header","v":1,"source":S,"start_us":T}
//	{"type":"span","name":N,"source":S,"start_us":T,"dur_us":D,"attrs":{...}}
//	{"type":"event","name":N,"source":S,"at_us":T,"attrs":{...}}
//
// Timestamps are absolute Unix microseconds, so frames from independent
// shard files order on a common clock. Frames are buffered and flushed
// by Close (and by Flush); emission is serialized by an internal mutex,
// so one Tracer may be shared by any number of goroutines.
//
// All methods are nil-receiver safe: a nil *Tracer records nothing and
// costs one pointer comparison per call, which is what `-trace`-less
// runs pay.
type Tracer struct {
	source string
	now    func() time.Time

	mu  sync.Mutex
	buf *bufio.Writer
	c   io.Closer
	err error
}

// NewTracer wraps w in a Tracer and writes the header frame. If w is an
// io.Closer, Close closes it.
func NewTracer(w io.Writer, opts TracerOptions) *Tracer {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	t := &Tracer{source: opts.Source, now: opts.Now, buf: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	t.mu.Lock()
	line := append([]byte(`{"type":"header","v":`), strconv.Itoa(TraceVersion)...)
	line = append(line, `,"source":`...)
	line = appendJSONString(line, t.source)
	line = append(line, `,"start_us":`...)
	line = strconv.AppendInt(line, t.now().UnixMicro(), 10)
	line = append(line, "}\n"...)
	t.write(line)
	t.mu.Unlock()
	return t
}

// CreateTrace opens path for appending (creating it if needed) and
// returns a Tracer over it. The file is opened O_APPEND: restarting a
// worker with the same -trace file appends a new header and continues.
func CreateTrace(path, source string) (*Tracer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: create trace: %w", err)
	}
	return NewTracer(f, TracerOptions{Source: source}), nil
}

func (t *Tracer) write(line []byte) {
	if t.err != nil {
		return
	}
	if _, err := t.buf.Write(line); err != nil {
		t.err = err
	}
}

// A Span is one timed operation in flight; End emits its frame. The
// zero of use is `sp := t.Start("x"); ...; sp.End(attrs)` — both calls
// are no-ops when tracing is disabled (nil Tracer gives nil Span).
type Span struct {
	t     *Tracer
	name  string
	start time.Time
}

// Start begins a span. Returns nil (a valid no-op span) on a nil Tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, start: t.now()}
}

// End emits the span frame with the given attributes (may be nil).
func (s *Span) End(attrs Attrs) {
	if s == nil {
		return
	}
	end := s.t.now()
	s.t.emit("span", s.name, s.start.UnixMicro(), end.Sub(s.start).Microseconds(), attrs)
}

// Event emits an instantaneous event frame.
func (t *Tracer) Event(name string, attrs Attrs) {
	if t == nil {
		return
	}
	t.emit("event", name, t.now().UnixMicro(), -1, attrs)
}

// emit writes one span/event frame. durUS < 0 marks an event (at_us
// field instead of start_us/dur_us). Field order is fixed by hand so
// the byte stream is deterministic.
func (t *Tracer) emit(typ, name string, atUS, durUS int64, attrs Attrs) {
	line := append([]byte(`{"type":"`), typ...)
	line = append(line, `","name":`...)
	line = appendJSONString(line, name)
	line = append(line, `,"source":`...)
	line = appendJSONString(line, t.source)
	if durUS >= 0 {
		line = append(line, `,"start_us":`...)
		line = strconv.AppendInt(line, atUS, 10)
		line = append(line, `,"dur_us":`...)
		line = strconv.AppendInt(line, durUS, 10)
	} else {
		line = append(line, `,"at_us":`...)
		line = strconv.AppendInt(line, atUS, 10)
	}
	if len(attrs) > 0 {
		line = append(line, `,"attrs":`...)
		line = appendAttrs(line, attrs)
	}
	line = append(line, "}\n"...)
	t.mu.Lock()
	t.write(line)
	t.mu.Unlock()
}

// appendAttrs marshals attrs with sorted keys (encoding/json sorts map
// keys, but doing it by hand avoids its HTML escaping of values).
func appendAttrs(dst []byte, attrs Attrs) []byte {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, k)
		dst = append(dst, ':')
		switch v := attrs[k].(type) {
		case string:
			dst = appendJSONString(dst, v)
		case bool:
			dst = strconv.AppendBool(dst, v)
		case int:
			dst = strconv.AppendInt(dst, int64(v), 10)
		case int64:
			dst = strconv.AppendInt(dst, v, 10)
		case float64:
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		default:
			b, err := json.Marshal(v)
			if err != nil {
				b = []byte(`"!marshal"`)
			}
			dst = append(dst, b...)
		}
	}
	return append(dst, '}')
}

func appendJSONString(dst []byte, s string) []byte {
	b, _ := json.Marshal(s) // cannot fail for a string
	return append(dst, b...)
}

// Flush pushes buffered frames to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = t.buf.Flush()
	}
	return t.err
}

// Close flushes all buffered frames and closes the underlying writer if
// it is a Closer. It returns the first error seen by any write, flush
// or close. The Tracer owns no goroutines, so Close leaks nothing.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.buf.Flush(); t.err == nil {
		t.err = err
	}
	if t.c != nil {
		if err := t.c.Close(); t.err == nil {
			t.err = err
		}
		t.c = nil
	}
	return t.err
}
