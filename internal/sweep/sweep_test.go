package sweep

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
)

func latticeOptions(n, workers int, cache *Cache) Options {
	return Options{
		N:        n,
		Alphas:   figure1Alphas(),
		Concepts: eq.Concepts(),
		Workers:  workers,
		Cache:    cache,
	}
}

// mustRun runs a sweep and fails the test on error.
func mustRun(t *testing.T, opts Options) *Result {
	t.Helper()
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameOutcome asserts two results are observationally identical: same item
// vectors, ρ values and indices, and byte-identical reports. Cache-origin
// fields (FromCache, Hits, Misses) and Workers are excluded on purpose —
// they describe how the work was done, not what was computed.
func sameOutcome(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Graphs != b.Graphs || len(a.Items) != len(b.Items) {
		t.Fatalf("stream shape differs: %d/%d graphs, %d/%d items",
			a.Graphs, b.Graphs, len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		x, y := a.Items[i], b.Items[i]
		if x.AlphaIndex != y.AlphaIndex || x.GraphIndex != y.GraphIndex ||
			x.Vector != y.Vector || x.Rho != y.Rho {
			t.Fatalf("item %d differs: %+v vs %+v", i, x, y)
		}
		if !x.Graph.Equal(y.Graph) {
			t.Fatalf("item %d graphs differ: %s vs %s", i, x.Graph, y.Graph)
		}
	}
	if ra, rb := a.Report(), b.Report(); ra != rb {
		t.Fatalf("reports differ:\n%s\nvs\n%s", ra, rb)
	}
}

// TestSweepDeterministicAcrossWorkers is the determinism property test: the
// same sweep with -workers 1 and -workers 8 (and a repeat at 8, exercising
// scheduling jitter under -race) must produce byte-identical reports and
// identical items.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	one := mustRun(t, latticeOptions(5, 1, NewCache()))
	eight := mustRun(t, latticeOptions(5, 8, NewCache()))
	again := mustRun(t, latticeOptions(5, 8, NewCache()))
	sameOutcome(t, one, eight)
	sameOutcome(t, eight, again)
	if one.Workers != 1 || eight.Workers != 8 {
		t.Fatalf("resolved workers %d/%d, want 1/8", one.Workers, eight.Workers)
	}
}

// TestSweepCacheDoesNotChangeOutcome runs the same sweep cold, warm, and
// cache-free; all three must agree. A warm cache may only change FromCache
// and the hit counters.
func TestSweepCacheDoesNotChangeOutcome(t *testing.T) {
	cache := NewCache()
	cold := mustRun(t, latticeOptions(4, 8, cache))
	warm := mustRun(t, latticeOptions(4, 8, cache))
	uncached := mustRun(t, latticeOptions(4, 8, nil))
	sameOutcome(t, cold, warm)
	sameOutcome(t, cold, uncached)
	if cold.Hits != 0 {
		t.Errorf("cold run hit the fresh cache %d times", cold.Hits)
	}
	if warm.Misses != 0 || warm.Hits != int64(len(warm.Items)*len(warm.Concepts)) {
		t.Errorf("warm run: %d hits, %d misses; want all hits", warm.Hits, warm.Misses)
	}
	if uncached.Hits != 0 || uncached.Misses != int64(len(uncached.Items)*len(uncached.Concepts)) {
		t.Errorf("uncached run: %d hits, %d misses; want all misses", uncached.Hits, uncached.Misses)
	}
	// One certificate per (class, concept) — not one verdict per (α,
	// class, concept) — is the whole economy of the parametric engine.
	if want := cold.Graphs * len(cold.Concepts); cache.Len() != want {
		t.Errorf("cache holds %d entries, want %d certificates", cache.Len(), want)
	}
	if cold.Certified != int64(cold.Graphs*len(cold.Concepts)) || warm.Certified != 0 {
		t.Errorf("certified: cold %d warm %d, want %d and 0",
			cold.Certified, warm.Certified, cold.Graphs*len(cold.Concepts))
	}
}

// TestSweepSharedCacheAcrossGrids checks the finer-grained sharing the
// per-concept keys buy: a nine-concept sweep over an α grid fully primes a
// later three-concept sweep over a sub-grid.
func TestSweepSharedCacheAcrossGrids(t *testing.T) {
	cache := NewCache()
	mustRun(t, latticeOptions(4, 4, cache))
	sub := mustRun(t, Options{
		N:        4,
		Alphas:   []game.Alpha{game.A(1), game.A(3)},
		Concepts: []eq.Concept{eq.RE, eq.BAE, eq.BSwE},
		Workers:  4,
		Cache:    cache,
	})
	if sub.Misses != 0 {
		t.Errorf("sub-grid sweep recomputed %d verdicts despite primed cache", sub.Misses)
	}
}

// TestWorstStable cross-checks the PoA reduction on a tiny instance: trees
// on 4 nodes at α=2 (both the star and the path are PS-stable; the path has
// the larger ρ).
func TestWorstStable(t *testing.T) {
	res := mustRun(t, Options{
		N:        4,
		Alphas:   []game.Alpha{game.A(2)},
		Concepts: []eq.Concept{eq.PS},
		Source:   Trees,
		Cache:    NewCache(),
		Rho:      true,
	})
	if res.Graphs != 2 {
		t.Fatalf("%d free trees on 4 nodes, want 2", res.Graphs)
	}
	rho, witness, stable := res.WorstStable(0, 0)
	if stable != 2 || witness == nil {
		t.Fatalf("stable=%d witness=%v, want both PS-stable", stable, witness)
	}
	gm, _ := game.NewGame(4, game.A(2))
	if want := gm.Rho(witness); rho != want {
		t.Fatalf("worst ρ %v != ρ(witness) %v", rho, want)
	}
	if rho <= 1 {
		t.Fatalf("worst ρ %v should exceed the optimum's 1 (path witness)", rho)
	}
}

func TestSweepOptionValidation(t *testing.T) {
	base := latticeOptions(3, 1, nil)
	for name, mutate := range map[string]func(*Options){
		"no nodes":          func(o *Options) { o.N = 0 },
		"empty alpha grid":  func(o *Options) { o.Alphas = nil },
		"no concepts":       func(o *Options) { o.Concepts = nil },
		"too many concepts": func(o *Options) { o.Concepts = make([]eq.Concept, 17) },
		"bad source":        func(o *Options) { o.Source = Source(99) },
	} {
		opts := base
		mutate(&opts)
		if _, err := Run(context.Background(), opts); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
}

// TestGraphStreamAboveEnumLimitRefused: graph enumeration stops at
// graph.MaxEnumNodes, so a graph sweep or class count past it must fail
// instead of reporting an empty grid; tree streams have no such limit.
func TestGraphStreamAboveEnumLimitRefused(t *testing.T) {
	n := graph.MaxEnumNodes + 1
	opts := latticeOptions(n, 1, nil)
	opts.Concepts = []eq.Concept{eq.RE}
	if _, err := Run(context.Background(), opts); err == nil {
		t.Errorf("Run accepted a graph sweep at n=%d", n)
	}
	if _, err := CountClasses(context.Background(), n, Graphs); err == nil {
		t.Errorf("CountClasses accepted a graph stream at n=%d", n)
	}
	if count, err := CountClasses(context.Background(), n, Trees); err != nil || count == 0 {
		t.Errorf("CountClasses(trees, n=%d) = %d, %v; want the free trees", n, count, err)
	}
}

func TestVectorStable(t *testing.T) {
	v := Vector(0b101)
	want := []bool{true, false, true, false}
	for i, w := range want {
		if v.Stable(i) != w {
			t.Errorf("bit %d: got %v want %v", i, v.Stable(i), w)
		}
	}
}

func TestSourceString(t *testing.T) {
	if Graphs.String() != "graphs" || Trees.String() != "trees" {
		t.Fatal("source names wrong")
	}
	if Source(99).String() != "Source(99)" {
		t.Fatal("unknown source rendering wrong")
	}
}

// TestItemOrderIsAlphaMajor pins the documented item layout other layers
// (experiments, core) rely on.
func TestItemOrderIsAlphaMajor(t *testing.T) {
	res := mustRun(t, latticeOptions(4, 4, nil))
	for ti, it := range res.Items {
		if want := ti / res.Graphs; it.AlphaIndex != want {
			t.Fatalf("item %d: α-index %d, want %d", ti, it.AlphaIndex, want)
		}
		if want := ti % res.Graphs; it.GraphIndex != want {
			t.Fatalf("item %d: graph index %d, want %d", ti, it.GraphIndex, want)
		}
	}
	if !reflect.DeepEqual(res.Alphas, figure1Alphas()) {
		t.Fatal("result does not echo the α grid")
	}
}
