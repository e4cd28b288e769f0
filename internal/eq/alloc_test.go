package eq

import (
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
)

// allocGraph returns the n=8 gadget the allocation-regression tests run
// on: the cycle C8, whose scans explore the full move space of every
// concept.
func allocGraph() *graph.Graph {
	return graph.MustFromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 0},
	})
}

// TestEvaluatorZeroAllocsPerCheck is the allocation-regression gate of the
// bitset kernel: after warmup, a bound Evaluator must perform stability
// checks at sweep sizes (n=8 here) without a single heap allocation. Only
// the cold unstable path may allocate — it boxes the witness move — so the
// pinned checks run on (concept, α) cells where the state is stable and
// the scan therefore explores every candidate move.
func TestEvaluatorZeroAllocsPerCheck(t *testing.T) {
	g := allocGraph()
	ev := NewEvaluator()
	// C8 at α=5: stable for every concept through 2-BSE (Lemma 2.4
	// territory: cycles are stable at high α). Verify the premise first so
	// the test fails loudly if the gadget drifts.
	gm, err := game.NewGame(8, game.A(5))
	if err != nil {
		t.Fatal(err)
	}
	concepts := []Concept{RE, BAE, PS, BSwE, BGE, BNE, TwoBSE}
	for _, c := range concepts {
		if res := ev.Check(gm, g, c); !res.Stable {
			t.Fatalf("premise broken: C8 at α=5 unstable for %s (witness %v)", c, res.Witness)
		}
	}
	// Warmup happened above (buffers grown to n=8); pin zero allocations
	// per full concept scan, including the per-task Bind.
	allocs := testing.AllocsPerRun(10, func() {
		ev.Bind(gm, g)
		for _, c := range concepts {
			if !ev.CheckBound(c).Stable {
				t.Fatal("unexpected instability")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("evaluator allocates %v times per %d-concept check at n=8, want 0", allocs, len(concepts))
	}
}

// TestEvaluatorRhoZeroAllocs pins the allocation-free social-cost path the
// PoA reductions use, and its bit-identity with Game.Rho.
func TestEvaluatorRhoZeroAllocs(t *testing.T) {
	g := allocGraph()
	ev := NewEvaluator()
	gm, err := game.NewGame(8, game.AFrac(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ev.Rho(gm, g), gm.Rho(g); got != want {
		t.Fatalf("Evaluator.Rho = %v, Game.Rho = %v", got, want)
	}
	ev.Rho(gm, g) // warm the scratch
	if allocs := testing.AllocsPerRun(10, func() {
		ev.Rho(gm, g)
	}); allocs != 0 {
		t.Errorf("Evaluator.Rho allocates %v times per call, want 0", allocs)
	}
}

// TestEvaluatorMatchesCheckAllConcepts is the differential of the unified
// deviation scans against the per-α checkers they replaced: for every
// connected class up to n=5, under the paper's game and every test
// variant, an Evaluator's Check must agree with referenceCheck on
// stability AND on the witness move at every point of the class's probe
// grid — a fixed lattice plus its certificate's breakpoints and their
// midpoints. The scans enumerate in the historical orders, so even the
// violating witness is pinned.
func TestEvaluatorMatchesCheckAllConcepts(t *testing.T) {
	ev := NewEvaluator()
	for _, variant := range append([]game.Variant{{}}, testVariants(t)...) {
		for n := 2; n <= 5; n++ {
			gm, err := game.NewGame(n, game.A(1))
			if err != nil {
				t.Fatal(err)
			}
			gm.Variant = variant
			concepts := Concepts()
			if n == 5 && !variant.IsDefault() {
				// The coalition searches are exponential; bound the n=5
				// variant pass to the polynomial concepts.
				concepts = concepts[:6]
			}
			for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
				for _, c := range concepts {
					for _, alpha := range certProbePoints(NewEvaluator().Certify(gm, g, c)) {
						gmA := gm
						gmA.Alpha = alpha
						got := ev.Check(gmA, g.Clone(), c)
						want := referenceCheck(gmA, g.Clone(), c)
						if got.Stable != want.Stable || witnessString(got) != witnessString(want) {
							t.Errorf("variant=%s n=%d α=%s %s on %s: Check %v %q, reference %v %q",
								variant, n, alpha, c, g, got.Stable, witnessString(got), want.Stable, witnessString(want))
						}
					}
				}
			}
		}
	}
}

// witnessString renders a verdict's witness move, "" when stable.
func witnessString(r Result) string {
	if r.Witness == nil {
		return ""
	}
	return r.Witness.String()
}
