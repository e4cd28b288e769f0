// Package obs is the zero-dependency observability layer of the compute
// plane: a hand-rolled Prometheus registry (the serving daemon's /metrics
// writer, extracted here so sweep and fleet workers expose the same text
// exposition on a sidecar listener), an append-only NDJSON span tracer
// with a deterministic schema, and the trace analyzer behind `bncg trace`.
//
// Everything here is standard library only. The package sits below
// internal/sweep, internal/store, internal/fleet and internal/server in
// the import graph and knows nothing about any of them: instruments are
// recorded through typed handles (Counter, Histogram) and live state is
// sampled at scrape time through caller-supplied closures.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry is an ordered collection of metric families rendered in the
// Prometheus text exposition format. Families render in registration
// order; samples within a family render in sorted label order, so equal
// states produce byte-identical expositions. Registration panics on an
// invalid or duplicate name — both are programmer errors caught by the
// first scrape of any test — while recording and rendering never fail.
type Registry struct {
	mu       sync.Mutex
	families []*family
	types    map[string]string // name -> type, duplicate/charset guard
}

type family struct {
	name, help, typ string
	collect         func(e *Exposition)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{types: make(map[string]string)}
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		letter := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	return validMetricName(name) && !strings.Contains(name, ":")
}

func (r *Registry) register(name, help, typ string, collect func(*Exposition)) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.types[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.types[name] = typ
	r.families = append(r.families, &family{name: name, help: help, typ: typ, collect: collect})
}

// WriteText renders the full exposition to w.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()
	for _, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.collect(&Exposition{w: w, name: f.name})
	}
}

// Handler returns an http.Handler serving the exposition — the body of
// the sidecar's /metrics and of the daemon's.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// Label is one name="value" pair on a sample.
type Label struct{ Name, Value string }

// L builds a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Exposition is the per-family rendering context handed to collectors:
// each Sample call emits one line of the current family.
type Exposition struct {
	w    io.Writer
	name string
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func (e *Exposition) sample(suffix, value string, labels []Label) {
	io.WriteString(e.w, e.name)
	io.WriteString(e.w, suffix)
	if len(labels) > 0 {
		io.WriteString(e.w, "{")
		for i, l := range labels {
			if i > 0 {
				io.WriteString(e.w, ",")
			}
			fmt.Fprintf(e.w, "%s=\"%s\"", l.Name, escapeLabel(l.Value))
		}
		io.WriteString(e.w, "}")
	}
	io.WriteString(e.w, " ")
	io.WriteString(e.w, value)
	io.WriteString(e.w, "\n")
}

// Sample emits one sample of the current family.
func (e *Exposition) Sample(v float64, labels ...Label) {
	e.sample("", formatFloat(v), labels)
}

// SampleInt emits one integer-valued sample of the current family.
func (e *Exposition) SampleInt(v int64, labels ...Label) {
	e.sample("", strconv.FormatInt(v, 10), labels)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Custom registers a family whose samples are produced from scratch at
// every scrape — the escape hatch for gauges sampled from live state with
// dynamic labels (cache entries by kind, store records by kind). typ is
// the exposition TYPE: "counter", "gauge", "histogram" or "untyped".
func (r *Registry) Custom(name, help, typ string, collect func(*Exposition)) {
	r.register(name, help, typ, collect)
}

// GaugeFunc registers a gauge sampled by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func(e *Exposition) { e.Sample(fn()) })
}

// ---- counters ----

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers and returns a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func(e *Exposition) { e.SampleInt(c.Value()) })
	return c
}

// CounterVec is a family of counters partitioned by a fixed label set.
// Children are created on first use and render in sorted label order.
type CounterVec struct {
	labels   []string
	mu       sync.Mutex
	children map[string]*counterChild
}

type counterChild struct {
	values []string
	c      Counter
}

// CounterVec registers and returns a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	v := &CounterVec{labels: labels, children: make(map[string]*counterChild)}
	r.register(name, help, "counter", v.collect)
	return v
}

func (v *CounterVec) child(values []string) *counterChild {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), len(v.labels)))
	}
	var buf [64]byte
	key := childKey(buf[:0], values)
	v.mu.Lock()
	defer v.mu.Unlock()
	ch, ok := v.children[string(key)]
	if !ok {
		ch = &counterChild{values: append([]string(nil), values...)}
		v.children[string(key)] = ch
	}
	return ch
}

// With returns the counter for one label-value tuple, creating it if
// needed. The caller bounds the label space (e.g. by collapsing unknown
// routes into "other") — the registry never evicts.
func (v *CounterVec) With(values ...string) *Counter { return &v.child(values).c }

// Each calls fn for every child in sorted label order.
func (v *CounterVec) Each(fn func(values []string, count int64)) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*counterChild, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for _, ch := range children {
		fn(ch.values, ch.c.Value())
	}
}

func (v *CounterVec) collect(e *Exposition) {
	v.Each(func(values []string, count int64) {
		labels := make([]Label, len(values))
		for i, val := range values {
			labels[i] = L(v.labels[i], val)
		}
		e.sample("", strconv.FormatInt(count, 10), labels)
	})
}

// ---- histograms ----

// Histogram accumulates observations into fixed cumulative buckets (an
// implicit +Inf bucket follows the configured upper bounds).
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []int64 // len(bounds)+1, last is +Inf
	sum    float64
	count  int64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %v", bounds[i]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// emit renders the cumulative bucket/sum/count triplet with base labels.
func (h *Histogram) emit(e *Exposition, labels []Label) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	cum := int64(0)
	for i, le := range h.bounds {
		cum += counts[i]
		e.sample("_bucket", strconv.FormatInt(cum, 10), append(labels, L("le", formatFloat(le))))
	}
	cum += counts[len(h.bounds)]
	e.sample("_bucket", strconv.FormatInt(cum, 10), append(labels, L("le", "+Inf")))
	e.sample("_sum", formatFloat(sum), labels)
	e.sample("_count", strconv.FormatInt(count, 10), labels)
}

// Histogram registers and returns a label-less histogram with the given
// upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, "histogram", func(e *Exposition) {
		if h.Count() > 0 {
			h.emit(e, nil)
		}
	})
	return h
}

// HistogramVec is a family of histograms partitioned by a fixed label
// set; every child shares the same bucket bounds. Children with no
// observations are omitted from the exposition.
type HistogramVec struct {
	labels   []string
	bounds   []float64
	mu       sync.Mutex
	children map[string]*histChild
}

type histChild struct {
	values []string
	h      *Histogram
}

// HistogramVec registers and returns a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	v := &HistogramVec{labels: labels, bounds: append([]float64(nil), bounds...), children: make(map[string]*histChild)}
	r.register(name, help, "histogram", v.collect)
	return v
}

// With returns the histogram for one label-value tuple, creating it if
// needed.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), len(v.labels)))
	}
	var buf [64]byte
	key := childKey(buf[:0], values)
	v.mu.Lock()
	defer v.mu.Unlock()
	ch, ok := v.children[string(key)]
	if !ok {
		ch = &histChild{values: append([]string(nil), values...), h: newHistogram(v.bounds)}
		v.children[string(key)] = ch
	}
	return ch.h
}

// childKey appends a vec's map key for one label-value tuple to buf. The
// lookups index the map with string(key), which does not allocate, so a
// request's instruments cost no allocation once their child exists.
func childKey(buf []byte, values []string) []byte {
	for i, val := range values {
		if i > 0 {
			buf = append(buf, '\xff')
		}
		buf = append(buf, val...)
	}
	return buf
}

func (v *HistogramVec) collect(e *Exposition) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*histChild, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for _, ch := range children {
		if ch.h.Count() == 0 {
			continue
		}
		labels := make([]Label, len(ch.values))
		for i, val := range ch.values {
			labels[i] = L(v.labels[i], val)
		}
		ch.h.emit(e, labels)
	}
}
