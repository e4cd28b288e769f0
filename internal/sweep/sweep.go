// Package sweep implements a parallel sweep engine for the exhaustive
// experiments: it shards an isomorphism-free graph stream (all connected
// graphs or all free trees on n nodes) across a worker pool and evaluates a
// grid of edge prices × solution concepts on every graph with the exact
// checkers of package eq.
//
// Three properties make the engine safe to drop under the paper-reproduction
// experiments:
//
//   - Determinism. Results are indexed by (α, graph) task id, so Items and
//     Report are byte-identical for every worker count, and the streaming
//     path delivers items in exactly that α-major order. Nothing about
//     scheduling leaks into the output.
//   - Isolation. Checkers mutate the graph under test while exploring moves,
//     so each task evaluates a private clone with a per-worker Evaluator;
//     the enumeration representatives handed back in Items are never
//     mutated.
//   - Memoization. Stability is an isomorphism invariant, so the engine
//     caches parametric certificates under (canonical form, concept): one
//     eq.AlphaSet answers every edge price at once (v5). Repeated gadgets
//     and arbitrarily dense or shifted α grids across sweeps hit the
//     certificate cache instead of re-running coalition search — per-class
//     equilibrium work is independent of the grid density. The cache can
//     only reuse certificates, never change them; the differential tests
//     pin cached and parallel sweeps to the sequential checkers bit for
//     bit, and the certificate fuzz harness pins every certificate to the
//     per-α checkers across a dense rational grid.
//
// The enumeration feeding the grid is symmetry-pruned (graph.AllClasses):
// non-minimal labelings are rejected by an early-aborting automorphism
// search instead of being canonicalized and deduplicated, so each
// isomorphism class is canonicalized exactly once and its orbit size is
// reported in Result.Orbits. Checks run on per-worker eq.Evaluators over
// the bitset adjacency kernel, which allocate nothing per verdict at sweep
// sizes.
//
// Workers claim tasks from a shared atomic counter — one task per graph
// class (v5: a class's certificates answer its whole α-row at once), so a
// single expensive BSE instance cannot stall the rest of the stream
// behind a static partition.
//
// Every entry point takes a context.Context. Cancelling it stops the sweep
// within one class granularity: workers check the context between classes,
// drain without leaking goroutines, and Run returns the partial Result
// (completed items filled in, Completed counting them) together with
// ctx.Err().
package sweep

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// Source selects the graph stream a sweep shards across its workers.
type Source int

const (
	// Graphs streams every connected graph on N nodes, up to isomorphism.
	Graphs Source = iota
	// Trees streams every free tree on N nodes.
	Trees
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case Graphs:
		return "graphs"
	case Trees:
		return "trees"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Options configures a sweep.
type Options struct {
	// N is the node count of the enumerated graphs.
	N int
	// Alphas is the edge-price grid; every graph is evaluated at every α.
	Alphas []game.Alpha
	// Concepts are the solution concepts checked per (graph, α) pair. At
	// most 16, so a stability vector fits a Vector.
	Concepts []eq.Concept
	// Variant selects the game variant every check and certificate runs
	// under — consent mode, distance aggregate, per-agent price
	// multipliers. The zero value is the paper's bilateral SUM model, and a
	// default-variant sweep is byte-identical to one that predates the
	// field. Certificates cache and persist under the variant's canonical
	// descriptor, so variants never contaminate each other's entries.
	Variant game.Variant
	// Workers is the worker-pool size; values <= 0 select GOMAXPROCS.
	Workers int
	// Source selects connected graphs (the default) or free trees.
	Source Source
	// ClassStart and ClassEnd restrict the sweep to the half-open range
	// [ClassStart, ClassEnd) of positions in the pruned class stream — the
	// work-sharding primitive of the fleet subsystem: the stream order is
	// deterministic (minimal-mask order for graphs, generation order for
	// trees), so disjoint position ranges partition the classes exactly and
	// every worker sees the same class at the same position. ClassEnd <= 0
	// means the end of the stream. Item.GraphIndex is local to the range
	// (the first enumerated class of the range has index 0).
	ClassStart, ClassEnd int
	// Cache, when non-nil, memoizes parametric stability certificates
	// across sweeps under (canonical form, concept) — one certificate
	// answers every α grid. Nil disables memoization.
	Cache *Cache
	// Rho additionally computes the social cost ratio ρ of every graph,
	// for Price-of-Anarchy reductions over the sweep.
	Rho bool
	// OnItem, when non-nil, receives every completed Item incrementally in
	// the deterministic α-major order of Result.Items — the same order at
	// every worker count. It is called from the coordinating goroutine
	// (never concurrently) while workers keep computing.
	OnItem func(Item)
	// Progress, when non-nil, is called from the coordinating goroutine
	// after each completed task with (done, total). Completion order is
	// scheduling-dependent; only the counts are reported.
	Progress func(done, total int)
	// Trace, when non-nil, records spans for the sweep's stages: one
	// "enumerate" span for materializing the class stream, a "class" span
	// per completed class (attrs: absolute class position, worker index,
	// cached), and nested "certify"/"cache_write" spans for each fresh
	// certificate scan. A nil Tracer costs one pointer check per class.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives class/certify completions for the
	// sidecar exposition (bncg sweep/worker -metrics-addr).
	Metrics *obs.ComputeMetrics
}

// Vector is a stability bit vector over a sweep's concept grid: bit i is
// set iff the state is stable for Concepts[i].
type Vector uint16

// Stable reports whether bit i is set.
func (v Vector) Stable(i int) bool { return v&(1<<i) != 0 }

// Item is the outcome for one (α, graph) task.
type Item struct {
	// AlphaIndex and GraphIndex locate the task on the sweep grid.
	AlphaIndex, GraphIndex int
	// Graph is the enumeration representative. It is shared with every
	// item of the same GraphIndex and must not be mutated.
	Graph *graph.Graph
	// Vector holds the stability verdicts, bit i for Concepts[i].
	Vector Vector
	// Rho is the social cost ratio, when Options.Rho was set.
	Rho float64
	// FromCache reports that every verdict was served by the cache.
	FromCache bool
}

// ConceptCritical is one concept's exact critical-price report: the
// sorted rational α values at which some enumerated class's stability
// verdict flips. Between consecutive breakpoints (and on each breakpoint
// itself — stable sets may be closed or even degenerate there) every
// class's verdict, and therefore every Table 1 row, is constant.
type ConceptCritical struct {
	Concept eq.Concept
	Alphas  []game.Alpha
}

// Result is the outcome of a sweep.
type Result struct {
	N        int
	Source   Source
	Alphas   []game.Alpha
	Concepts []eq.Concept
	// Variant is the game variant the sweep ran under (zero value: the
	// paper's default model).
	Variant game.Variant
	// Workers is the resolved pool size that ran the sweep. It never
	// influences Items or Report.
	Workers int
	// Graphs counts the isomorphism classes in the stream.
	Graphs int
	// Items holds one entry per (α, graph) pair in deterministic α-major
	// order: Items[ai*Graphs+gi] is graph gi at Alphas[ai], with graphs in
	// enumeration order.
	Items []Item
	// Orbits holds each enumerated class's orbit size n!/|Aut| — the number
	// of labeled graphs the symmetry-pruned enumeration folded into the
	// representative — indexed like Item.GraphIndex. It is diagnostic and
	// not part of the serialized result.
	Orbits []int64
	// Completed counts the tasks that finished. It equals len(Items)
	// unless the sweep was cancelled, in which case the unfinished entries
	// of Items are zero values.
	Completed int
	// Hits and Misses count per-concept verdicts served by the cache and
	// answered by freshly computed certificates, respectively — verdict
	// units (one per grid α), so the counters compare across engine
	// generations even though work is now done per certificate.
	Hits, Misses int64
	// Certs holds the exact stable-α certificate of every (class, concept)
	// pair, indexed Certs[gi*len(Concepts)+ci] — the parametric object the
	// grid verdicts in Items are read off of. Classes unfinished on a
	// cancelled sweep hold zero-value (empty) sets.
	Certs []eq.AlphaSet
	// Critical reports, per concept, the exact rational α breakpoints at
	// which any class's verdict flips — the sweep's grid answers upgraded
	// to whole-axis answers. It is nil on a cancelled (partial) sweep.
	Critical []ConceptCritical
	// Certified counts the certificates computed by scans this run (as
	// opposed to served from the cache). It is independent of the α-grid
	// density: the O(1)-per-α property BenchmarkSweepGridScaling pins.
	Certified int64
}

// Cert returns the certificate of graph class gi under Concepts[ci].
func (r *Result) Cert(gi, ci int) eq.AlphaSet { return r.Certs[gi*len(r.Concepts)+ci] }

// Run executes the sweep described by opts. Cancelling ctx stops the sweep
// within one task granularity; Run then still returns the partial Result —
// every task completed before cancellation is filled in and counted by
// Completed — along with ctx.Err(). A nil Result is returned only for
// invalid options.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.N < 1 {
		return nil, fmt.Errorf("sweep: need at least one node, got %d", opts.N)
	}
	if len(opts.Alphas) == 0 {
		return nil, fmt.Errorf("sweep: empty α grid")
	}
	if len(opts.Concepts) == 0 {
		return nil, fmt.Errorf("sweep: no concepts to check")
	}
	if len(opts.Concepts) > 16 {
		return nil, fmt.Errorf("sweep: %d concepts exceed the 16-bit vector", len(opts.Concepts))
	}
	if opts.ClassStart < 0 {
		return nil, fmt.Errorf("sweep: negative class range start %d", opts.ClassStart)
	}
	if opts.ClassEnd > 0 && opts.ClassEnd <= opts.ClassStart {
		return nil, fmt.Errorf("sweep: empty class range [%d, %d)", opts.ClassStart, opts.ClassEnd)
	}
	if err := eq.ValidateVariant(opts.N, opts.Variant, opts.Concepts); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if opts.Rho && !opts.Variant.IsDefault() {
		// ρ normalizes by OptCost, whose closed forms are specific to the
		// default model; a variant ρ would silently compare against the
		// wrong optimum.
		return nil, fmt.Errorf("sweep: rho is defined for the default variant only")
	}
	games := make([]game.Game, len(opts.Alphas))
	for i, alpha := range opts.Alphas {
		gm, err := game.NewGame(opts.N, alpha)
		if err != nil {
			return nil, err
		}
		gm.Variant = opts.Variant
		games[i] = gm
	}

	res := &Result{
		N:        opts.N,
		Source:   opts.Source,
		Alphas:   opts.Alphas,
		Concepts: opts.Concepts,
		Variant:  opts.Variant,
		Workers:  opts.Workers,
	}
	if res.Workers <= 0 {
		res.Workers = runtime.GOMAXPROCS(0)
	}

	// Materialize the isomorphism-free stream once; the per-class canonical
	// keys and orbit sizes come for free from the enumeration's own
	// symmetry pruning, which skips non-minimal labelings without
	// canonicalizing them. The iterator is polled against ctx so a
	// cancelled sweep stops enumerating too.
	stream, err := classStream(opts.N, opts.Source)
	if err != nil {
		return nil, err
	}
	enumSpan := opts.Trace.Start("enumerate")
	var graphs []*graph.Graph
	var keys []string
	pos := 0
	for g, cl := range stream {
		if ctx.Err() != nil {
			break
		}
		if pos < opts.ClassStart {
			pos++
			continue
		}
		if opts.ClassEnd > 0 && pos >= opts.ClassEnd {
			break
		}
		pos++
		graphs = append(graphs, g)
		keys = append(keys, cl.Key)
		res.Orbits = append(res.Orbits, cl.Orbit)
	}
	res.Graphs = len(graphs)
	enumSpan.End(obs.Attrs{"classes": len(graphs), "n": opts.N, "source": opts.Source.String()})
	res.Items = make([]Item, len(graphs)*len(opts.Alphas))
	if err := ctx.Err(); err != nil {
		// Cancelled during enumeration: the grid is unreliable, report it
		// as an empty partial result.
		res.Graphs, res.Items, res.Orbits = 0, nil, nil
		return res, err
	}

	total := len(res.Items)
	nAlphas := len(opts.Alphas)
	vkey := opts.Variant.Key()
	res.Certs = make([]eq.AlphaSet, len(graphs)*len(opts.Concepts))
	var next, hits, misses, certified atomic.Int64
	// The task unit is one graph class: a worker fetches (or computes) one
	// certificate per concept and reads the entire α-row of verdicts off
	// it, so per-class equilibrium work is independent of the grid density.
	// The channel buffers every possible task, so a worker's send never
	// blocks and cancellation cannot strand a worker mid-handoff.
	type completion struct {
		gi    int
		items []Item        // one per α, in α order
		certs []eq.AlphaSet // one per concept
	}
	completions := make(chan completion, len(graphs))
	var wg sync.WaitGroup
	for w := 0; w < res.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := eq.NewEvaluator()
			for ctx.Err() == nil {
				gi := int(next.Add(1)) - 1
				if gi >= len(graphs) {
					return
				}
				g := graphs[gi]
				classSpan := opts.Trace.Start("class")
				items := make([]Item, nAlphas)
				certs := make([]eq.AlphaSet, len(opts.Concepts))
				fromCache := true
				bound := false
				for ci, concept := range opts.Concepts {
					set, ok := eq.AlphaSet{}, false
					if opts.Cache != nil {
						set, ok = opts.Cache.lookupCert(store.CertKey{Canon: keys[gi], Concept: concept, Variant: vkey}, nAlphas)
					}
					if ok {
						hits.Add(int64(nAlphas))
					} else {
						misses.Add(int64(nAlphas))
						fromCache = false
						if !bound {
							// Certify on a private clone: the scans mutate
							// the graph while exploring deviations. One Bind
							// computes the (α-independent) baseline agent
							// costs for the whole concept grid of the class.
							ev.Bind(games[0], g.Clone())
							bound = true
						}
						var certT0 time.Time
						if opts.Metrics != nil {
							certT0 = time.Now()
						}
						certSpan := opts.Trace.Start("certify")
						set = ev.CertifyBound(concept)
						// The nil-guards around End keep the disabled path
						// allocation-free: the Attrs literal is only built
						// when a frame will actually be written.
						if certSpan != nil {
							certSpan.End(obs.Attrs{"class": opts.ClassStart + gi, "concept": concept.String()})
						}
						if opts.Metrics != nil {
							opts.Metrics.CertifyObserved(time.Since(certT0))
						}
						certified.Add(1)
						if opts.Cache != nil {
							writeSpan := opts.Trace.Start("cache_write")
							opts.Cache.PutCert(store.CertKey{Canon: keys[gi], Concept: concept, Variant: vkey}, set)
							if writeSpan != nil {
								writeSpan.End(obs.Attrs{"class": opts.ClassStart + gi, "concept": concept.String()})
							}
						}
					}
					certs[ci] = set
					for ai := range opts.Alphas {
						if set.Contains(opts.Alphas[ai]) {
							items[ai].Vector |= 1 << ci
						}
					}
				}
				for ai := range items {
					items[ai].AlphaIndex, items[ai].GraphIndex = ai, gi
					items[ai].Graph = g
					items[ai].FromCache = fromCache
					if opts.Rho {
						// The evaluator's scratch-buffer ρ is bit-identical
						// to games[ai].Rho(g); g is only read, so sharing it
						// across workers is safe.
						items[ai].Rho = ev.Rho(games[ai], g)
					}
				}
				if classSpan != nil {
					classSpan.End(obs.Attrs{"class": opts.ClassStart + gi, "cached": fromCache, "worker": w})
				}
				opts.Metrics.ClassDone(fromCache)
				completions <- completion{gi, items, certs}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(completions)
	}()

	// Coordinate: collect class completions (in scheduling order), emit
	// OnItem in strict α-major item order and Progress once per item. The
	// range ends when every worker has drained — either all tasks are done
	// or ctx fired — so no goroutine outlives Run.
	have := make([]bool, total)
	emitted := 0
	for c := range completions {
		for ai := range c.items {
			t := ai*len(graphs) + c.gi
			res.Items[t] = c.items[ai]
			have[t] = true
			res.Completed++
			if opts.Progress != nil {
				opts.Progress(res.Completed, total)
			}
		}
		copy(res.Certs[c.gi*len(opts.Concepts):(c.gi+1)*len(opts.Concepts)], c.certs)
		if opts.OnItem != nil {
			for emitted < total && have[emitted] {
				opts.OnItem(res.Items[emitted])
				emitted++
			}
		}
	}
	res.Hits, res.Misses, res.Certified = hits.Load(), misses.Load(), certified.Load()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	res.Critical = criticalOf(res)
	return res, nil
}

// classStream returns the symmetry-pruned class stream of a source: the
// deterministic enumeration every sweep — whole or range-restricted —
// shards by position. Graph streams above graph.MaxEnumNodes are refused
// rather than returned empty.
func classStream(n int, source Source) (iter.Seq2[*graph.Graph, graph.Class], error) {
	switch source {
	case Graphs:
		if n > graph.MaxEnumNodes {
			return nil, fmt.Errorf("sweep: graph enumeration is limited to %d nodes, got %d", graph.MaxEnumNodes, n)
		}
		return graph.AllClasses(n, graph.EnumOptions{
			ConnectedOnly: true,
			UpToIso:       true,
			MaxEdges:      -1,
		}), nil
	case Trees:
		return graph.AllFreeTreeClasses(n), nil
	default:
		return nil, fmt.Errorf("sweep: unknown source %v", source)
	}
}

// CountClasses counts the isomorphism classes in a source's pruned stream
// without evaluating anything — the fleet coordinator's planning pass,
// which turns the stream into contiguous [start, end) work ranges. The
// count only enumerates (no canonical keys are kept), so it is cheap
// relative to certification. Cancelling ctx aborts the count with
// ctx.Err().
func CountClasses(ctx context.Context, n int, source Source) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n < 1 {
		return 0, fmt.Errorf("sweep: need at least one node, got %d", n)
	}
	stream, err := classStream(n, source)
	if err != nil {
		return 0, err
	}
	count := 0
	for range stream {
		if err := ctx.Err(); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

// criticalOf aggregates the per-class certificates into the per-concept
// critical-price report: the sorted union of every class's breakpoints.
// The union over a set is order-independent, so the report is identical
// at every worker count.
func criticalOf(r *Result) []ConceptCritical {
	out := make([]ConceptCritical, len(r.Concepts))
	for ci, concept := range r.Concepts {
		seen := make(map[game.Alpha]bool)
		for gi := 0; gi < r.Graphs; gi++ {
			for _, bp := range r.Cert(gi, ci).Breakpoints() {
				seen[bp] = true
			}
		}
		alphas := make([]game.Alpha, 0, len(seen))
		for a := range seen {
			alphas = append(alphas, a)
		}
		slices.SortFunc(alphas, func(a, b game.Alpha) int {
			return eq.Rat{Num: a.Num(), Den: a.Den()}.Cmp(eq.Rat{Num: b.Num(), Den: b.Den()})
		})
		out[ci] = ConceptCritical{Concept: concept, Alphas: alphas}
	}
	return out
}

// Report renders a deterministic summary: the stream size and, per α, how
// many graphs are stable for each concept. Equal option grids produce
// byte-identical reports for every worker count and cache state. On a
// cancelled sweep the counts cover only the completed tasks.
func (r *Result) Report() string {
	var b strings.Builder
	// The variant segment appears only for non-default variants, keeping
	// default-variant reports byte-identical to the pre-variant engine.
	fmt.Fprintf(&b, "sweep n=%d source=%s%s: %d graphs × %d α × %d concepts\n",
		r.N, r.Source, variantSegment(r.Variant), r.Graphs, len(r.Alphas), len(r.Concepts))
	fmt.Fprintf(&b, "%8s", "α")
	for _, c := range r.Concepts {
		fmt.Fprintf(&b, " %6s", c)
	}
	b.WriteByte('\n')
	for ai, alpha := range r.Alphas {
		counts := make([]int, len(r.Concepts))
		for gi := 0; gi < r.Graphs; gi++ {
			vec := r.Items[ai*r.Graphs+gi].Vector
			for i := range counts {
				if vec.Stable(i) {
					counts[i]++
				}
			}
		}
		fmt.Fprintf(&b, "%8s", alpha)
		for _, c := range counts {
			fmt.Fprintf(&b, " %6d", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CriticalReport renders the exact critical-α analysis: per concept, the
// rational breakpoints at which some class's verdict flips, and the number
// of stable classes on every region between (and at) the breakpoints —
// the whole α-axis answered exactly, not sampled. Equal option grids
// produce byte-identical reports at every worker count and cache state.
// It returns "" on a cancelled sweep (Critical is nil).
func (r *Result) CriticalReport() string {
	if r.Critical == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "critical n=%d source=%s%s: %d classes, exact stable-α structure\n",
		r.N, r.Source, variantSegment(r.Variant), r.Graphs)
	for ci, cc := range r.Critical {
		fmt.Fprintf(&b, "%-6s breakpoints:", cc.Concept)
		if len(cc.Alphas) == 0 {
			b.WriteString(" (none)")
		}
		for _, a := range cc.Alphas {
			fmt.Fprintf(&b, " %s", a)
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "%-6s stable classes:", cc.Concept)
		for _, reg := range regionsOf(cc.Alphas) {
			count := 0
			for gi := 0; gi < r.Graphs; gi++ {
				if reg.in(r.Cert(gi, ci)) {
					count++
				}
			}
			fmt.Fprintf(&b, " %s:%d", reg.label, count)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// variantSegment renders the " variant=..." header segment of the text
// reports — empty for the default variant, so legacy reports stay
// byte-identical.
func variantSegment(v game.Variant) string {
	if v.IsDefault() {
		return ""
	}
	return " variant=" + v.String()
}

// region is one α-axis segment of a critical report: a printable label
// and the price it is read at. A breakpoint singleton is read at its
// point; an open segment is read just above its left end, where every
// class's verdict is already the one it holds across the segment. No
// interior price is constructed, so breakpoints anywhere in the int64
// range are safe.
type region struct {
	label string
	at    game.Alpha
	open  bool
}

// in reports whether the certificate set holds the region.
func (reg region) in(set eq.AlphaSet) bool {
	if reg.open {
		return set.ContainsAbove(reg.at)
	}
	return set.Contains(reg.at)
}

// regionsOf splits [0, ∞) at the given sorted breakpoints into the
// segments on which all verdicts are constant — including the breakpoints
// themselves as singletons, where stable sets may be closed or degenerate.
func regionsOf(bps []game.Alpha) []region {
	if len(bps) == 0 {
		return []region{{label: "[0,∞)", at: game.A(1)}}
	}
	var out []region
	if first := bps[0]; first.Num() > 0 {
		out = append(out, region{label: fmt.Sprintf("[0,%s)", first), at: game.A(0), open: true})
	}
	for i, bp := range bps {
		out = append(out, region{label: fmt.Sprintf("{%s}", bp), at: bp})
		label := fmt.Sprintf("(%s,∞)", bp)
		if i+1 < len(bps) {
			label = fmt.Sprintf("(%s,%s)", bp, bps[i+1])
		}
		out = append(out, region{label: label, at: bp, open: true})
	}
	return out
}

// WorstStable reduces one grid cell to its Price-of-Anarchy outcome: the
// maximal ρ over the graphs stable for Concepts[ci] at Alphas[ai], the
// first witness attaining it in enumeration order, and the count of stable
// graphs. It requires a sweep run with Options.Rho.
func (r *Result) WorstStable(ai, ci int) (rho float64, witness *graph.Graph, stable int) {
	for gi := 0; gi < r.Graphs; gi++ {
		it := r.Items[ai*r.Graphs+gi]
		if !it.Vector.Stable(ci) {
			continue
		}
		stable++
		if it.Rho > rho {
			rho = it.Rho
			witness = it.Graph
		}
	}
	return rho, witness, stable
}
