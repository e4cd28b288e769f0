package eq

import (
	"fmt"
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
)

func iv(t *testing.T, lo string, loOpen bool, hi string, hiOpen bool) AlphaInterval {
	t.Helper()
	parse := func(s string) Rat {
		if s == "inf" {
			return RatInf()
		}
		a, err := game.ParseAlpha(s)
		if err != nil {
			t.Fatal(err)
		}
		return Rat{Num: a.Num(), Den: a.Den()}
	}
	return AlphaInterval{Lo: parse(lo), LoOpen: loOpen, Hi: parse(hi), HiOpen: hiOpen}
}

// TestAlphaSetAlgebra pins the interval arithmetic on hand-built cases,
// including the degenerate single-point stable set left between two
// touching open improving intervals.
func TestAlphaSetAlgebra(t *testing.T) {
	var union []AlphaInterval
	union = unionAdd(union, iv(t, "0", false, "3", true))
	union = unionAdd(union, iv(t, "3", true, "inf", false))
	stable := complementAxis(union)
	if got, want := stable.String(), "[3, 3]"; got != want {
		t.Fatalf("degenerate point: got %s, want %s", got, want)
	}
	if !stable.Contains(game.A(3)) || stable.Contains(game.AFrac(5, 2)) || stable.Contains(game.A(4)) {
		t.Fatal("degenerate point membership wrong")
	}

	union = nil
	union = unionAdd(union, iv(t, "1", true, "2", true))
	union = unionAdd(union, iv(t, "3/2", true, "5/2", true))
	union = unionAdd(union, iv(t, "4", true, "5", true))
	stable = complementAxis(union)
	if got, want := stable.String(), "[0, 1] ∪ [5/2, 4] ∪ [5, ∞)"; got != want {
		t.Fatalf("merged complement: got %s, want %s", got, want)
	}
	for _, tc := range []struct {
		alpha string
		want  bool
	}{
		{"0", true}, {"1", true}, {"3/2", false}, {"2", false}, {"5/2", true},
		{"3", true}, {"4", true}, {"9/2", false}, {"5", true}, {"100", true},
	} {
		a, err := game.ParseAlpha(tc.alpha)
		if err != nil {
			t.Fatal(err)
		}
		if stable.Contains(a) != tc.want {
			t.Errorf("Contains(%s) = %v, want %v in %s", tc.alpha, !tc.want, tc.want, stable)
		}
	}

	// Covering union → empty complement, and the early-exit signal fires.
	union = nil
	union = unionAdd(union, iv(t, "2", true, "inf", false))
	union = unionAdd(union, iv(t, "0", false, "5/2", true))
	if !coversAxis(union) {
		t.Fatalf("union %v should cover the axis", union)
	}
	if s := complementAxis(union); !s.IsEmpty() || s.String() != "∅" {
		t.Fatalf("complement of the axis: %s", s)
	}

	// Round trip through the validated constructor.
	if back := mustAlphaSet(t, stable.ivs...); !back.Equal(stable) {
		t.Fatal("NewAlphaSet round trip changed the set")
	}
}

// TestAlphaSetContainsAbove: the verdict just above a price, read from
// the interval endpoints, at closed and open ends, a degenerate point,
// the empty set and endpoints near 2^62.
func TestAlphaSetContainsAbove(t *testing.T) {
	set := mustAlphaSet(t, iv(t, "0", false, "1", false), iv(t, "5/2", true, "4", false),
		iv(t, "4611686018427387903/2", false, "inf", false))
	point := mustAlphaSet(t, iv(t, "3", false, "3", false))
	for _, tc := range []struct {
		set   AlphaSet
		alpha string
		want  bool
	}{
		{set, "0", true}, {set, "1/2", true}, {set, "1", false}, {set, "2", false},
		{set, "5/2", true}, {set, "4", false}, {set, "9/2", false},
		{set, "4611686018427387901/2", false}, {set, "4611686018427387903/2", true},
		{set, "4611686018427387904", true},
		{point, "2", false}, {point, "3", false}, {AlphaSet{}, "0", false},
	} {
		a, err := game.ParseAlpha(tc.alpha)
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.set.ContainsAbove(a); got != tc.want {
			t.Errorf("%s.ContainsAbove(%s) = %v, want %v", tc.set, tc.alpha, got, tc.want)
		}
	}
}

// mustAlphaSet builds a certificate through NewAlphaSet, failing the test
// on an invalid interval list.
func mustAlphaSet(t testing.TB, ivs ...AlphaInterval) AlphaSet {
	t.Helper()
	set, err := NewAlphaSet(ivs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestCertifyKnownThresholds pins certificates whose exact breakpoints
// follow from the paper's arithmetic: the clique loses Remove stability
// above α = 1 (closed at the indifference point), the star gains Bilateral
// Add stability at α = 1, and cycles are swap-unstable at low α.
func TestCertifyKnownThresholds(t *testing.T) {
	gm, err := game.NewGame(5, game.A(1)) // the α here is never read
	if err != nil {
		t.Fatal(err)
	}

	// K5, RE: removing one edge trades 1 bought edge for +1 distance, so
	// it improves exactly for α > 1: stable on [0, 1].
	clique := game.Clique(5)
	if got := NewEvaluator().Certify(gm, clique, RE).String(); got != "[0, 1]" {
		t.Errorf("K5 RE certificate = %s, want [0, 1]", got)
	}

	// Star, RE: every removal disconnects; stable everywhere.
	star := game.Star(5)
	if got := NewEvaluator().Certify(gm, star, RE).String(); got != "[0, ∞)" {
		t.Errorf("star RE certificate = %s, want [0, ∞)", got)
	}

	// Star, BAE: two leaves adding their edge each pay α to cut one unit
	// of distance — improving exactly for α < 1: stable on [1, ∞).
	if got := NewEvaluator().Certify(gm, star, BAE).String(); got != "[1, ∞)" {
		t.Errorf("star BAE certificate = %s, want [1, ∞)", got)
	}

	// Consistency with the per-α checkers at the breakpoints themselves.
	for _, alpha := range []game.Alpha{game.AFrac(1, 2), game.A(1), game.AFrac(3, 2)} {
		gmA, err := game.NewGame(5, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := NewEvaluator().Certify(gm, clique, RE).Contains(alpha), Check(gmA, clique, RE).Stable; got != want {
			t.Errorf("K5 RE at α=%s: certificate %v, checker %v", alpha, got, want)
		}
		if got, want := NewEvaluator().Certify(gm, star, BAE).Contains(alpha), Check(gmA, star, BAE).Stable; got != want {
			t.Errorf("star BAE at α=%s: certificate %v, checker %v", alpha, got, want)
		}
	}
}

// certProbePoints returns a dense exact probe grid for a certificate: a
// fixed rational lattice plus the certificate's own breakpoints and the
// midpoints between consecutive breakpoints — the points where an
// off-by-one in open/closed endpoints or a missed deviation shows up.
func certProbePoints(set AlphaSet) []game.Alpha {
	var pts []game.Alpha
	for den := int64(1); den <= 3; den++ {
		for num := int64(0); num <= 12; num++ {
			pts = append(pts, game.AFrac(num, den))
		}
	}
	bps := set.Breakpoints()
	for i, bp := range bps {
		pts = append(pts, bp)
		if i+1 < len(bps) {
			mid, err := game.NewAlpha(bp.Num()*bps[i+1].Den()+bps[i+1].Num()*bp.Den(), 2*bp.Den()*bps[i+1].Den())
			if err == nil {
				pts = append(pts, mid)
			}
		}
	}
	if len(bps) > 0 {
		last := bps[len(bps)-1]
		pts = append(pts, game.AFrac(last.Num()+last.Den(), last.Den()))
	}
	return pts
}

// TestCertifyMatchesCheckAllSmall is the deterministic differential: for
// every connected graph class up to n=5 and every concept, the certificate
// must agree with the per-α checker on a dense grid including its own
// breakpoints and their midpoints. This is the tier-1 twin of the
// FuzzCertificateAgreement harness.
func TestCertifyMatchesCheckAllSmall(t *testing.T) {
	ev := NewEvaluator()
	for n := 2; n <= 5; n++ {
		gm, err := game.NewGame(n, game.A(1))
		if err != nil {
			t.Fatal(err)
		}
		for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			h := g.Clone()
			ev.Bind(gm, h)
			for _, c := range Concepts() {
				set := ev.CertifyBound(c)
				for _, alpha := range certProbePoints(set) {
					gmA, err := game.NewGame(n, alpha)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := set.Contains(alpha), Check(gmA, g, c).Stable; got != want {
						t.Errorf("n=%d %s α=%s on %s: certificate %v != checker %v (cert %s)",
							n, c, alpha, g, got, want, set)
					}
				}
			}
		}
	}
}

// TestCertifyBoundInterleavesWithCheckBound: certification restores the
// graph, so a bound evaluator can interleave exact checks and certificates
// without rebinding.
func TestCertifyBoundInterleavesWithCheckBound(t *testing.T) {
	gm, err := game.NewGame(6, game.A(5))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 0},
	})
	ev := NewEvaluator()
	ev.Bind(gm, g)
	before := ev.CheckBound(PS).Stable
	set := ev.CertifyBound(PS)
	after := ev.CheckBound(PS).Stable
	if before != after {
		t.Fatal("certification perturbed the bound state")
	}
	if set.Contains(game.A(5)) != before {
		t.Fatalf("certificate %s disagrees with CheckBound at the bound α", set)
	}
}

// TestSubsetScansRestoreGraph pins the subset scans' graph restoration:
// they step between mask pairs by toggling edges, so every exit must step
// the graph back exactly. On every connected class with n ≤ 6, Check at
// several prices and Certify must leave the graph equal to its input —
// the same neighbor lists and the same adjacency bits — through both
// exits, a covered early return and a full scan. A covered Check's
// witness must be referenceCheck's. A full scan's stable verdict is held
// to the certificate instead, since the reference's own full scans of the
// n=6 coalitions would take longer than the rest of the test.
func TestSubsetScansRestoreGraph(t *testing.T) {
	concepts := []Concept{BNE, TwoBSE, ThreeBSE, BSE}
	alphas := []game.Alpha{game.AFrac(1, 2), game.A(2), game.A(8)}
	ev := NewEvaluator()
	exits := map[bool]map[Concept]int{true: {}, false: {}}
	restored := func(g, want *graph.Graph, what string) {
		t.Helper()
		same := g.Equal(want)
		for u := 0; u < g.N() && same; u++ {
			for v := 0; v < g.N(); v++ {
				same = same && g.HasEdge(u, v) == want.HasEdge(u, v)
			}
		}
		if !same {
			t.Fatalf("%s left %s, want %s", what, g, want)
		}
	}
	for n := 2; n <= 6; n++ {
		for want := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			g := want.Clone()
			for _, c := range concepts {
				set := ev.Certify(game.Game{N: n, Alpha: game.A(1)}, g, c)
				restored(g, want, fmt.Sprintf("Certify %s", c))
				for _, alpha := range alphas {
					gm, err := game.NewGame(n, alpha)
					if err != nil {
						t.Fatal(err)
					}
					got := ev.Check(gm, g, c)
					restored(g, want, fmt.Sprintf("Check %s at α=%s", c, alpha))
					exits[got.Stable][c]++
					if got.Stable {
						if !set.Contains(alpha) {
							t.Errorf("%s α=%s on %s: Check stable, certificate %s", c, alpha, want, set)
						}
					} else if ref := referenceCheck(gm, want.Clone(), c); ref.Stable || witnessString(got) != witnessString(ref) {
						t.Errorf("%s α=%s on %s: Check witness %q, reference %v %q",
							c, alpha, want, witnessString(got), ref.Stable, witnessString(ref))
					}
				}
			}
		}
	}
	for _, c := range concepts {
		if exits[true][c] == 0 || exits[false][c] == 0 {
			t.Errorf("%s: %d full scans and %d covered exits, want both", c, exits[true][c], exits[false][c])
		}
	}
}
