package eq

import (
	"reflect"
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// referenceUnilateralAE is the historical direct implementation of the
// unilateral NCG's Add Equilibrium check, preserved verbatim as the
// differential reference for BAE under unilateral consent.
func referenceUnilateralAE(gm game.Game, g *graph.Graph) Result {
	var c checker
	c.reset(game.Game{N: gm.N, Alpha: gm.Alpha}, g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if v == u || g.HasEdge(u, v) {
				continue
			}
			g.AddEdge(u, v)
			improves := c.improves(u)
			g.RemoveEdge(u, v)
			if improves {
				return unstable(move.Add{U: u, V: v})
			}
		}
	}
	return stable()
}

// TestUnilateralAEShimByteIdentical pins that Check(BAE) under unilateral
// consent reproduces the historical Add Equilibrium scan exactly — same
// verdicts, same witness moves — on every connected class up to n=5
// across an α grid spanning the interesting thresholds.
func TestUnilateralAEShimByteIdentical(t *testing.T) {
	alphas := []game.Alpha{game.AFrac(1, 2), game.A(1), game.AFrac(3, 2), game.A(2), game.A(3), game.A(4), game.A(5)}
	for n := 2; n <= 5; n++ {
		for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			for _, alpha := range alphas {
				gm, err := game.NewGame(n, alpha)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceUnilateralAE(gm, g.Clone())
				gm.Variant = game.Variant{Consent: game.ConsentUnilateral}
				got := Check(gm, g.Clone(), BAE)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d α=%s on %s: unilateral BAE %+v != reference %+v", n, alpha, g, got, want)
				}
			}
		}
	}
}

// testVariants are the non-default variants the differential harnesses
// exercise: each new axis alone, the axes combined, and a heterogeneous
// price profile.
func testVariants(t *testing.T) []game.Variant {
	t.Helper()
	var out []game.Variant
	for _, s := range []string{"unilateral", "max", "unilateral,max", "mul:0=2,mul:2=1/2"} {
		v, err := game.ParseVariant(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// TestVariantCertifyMatchesCheck is the variant edition of the
// certificate differential: for every non-default test variant, every
// small connected class and every concept, the parametric certificate
// must agree with the per-α exact checker on a dense grid including the
// certificate's own breakpoints and their midpoints.
func TestVariantCertifyMatchesCheck(t *testing.T) {
	ev := NewEvaluator()
	for _, variant := range testVariants(t) {
		maxN := 5
		if testing.Short() {
			maxN = 4
		}
		for n := 2; n <= maxN; n++ {
			gm, err := game.NewGame(n, game.A(1))
			if err != nil {
				t.Fatal(err)
			}
			gm.Variant = variant
			concepts := Concepts()
			if n == 5 {
				// The coalition searches are exponential; bound the n=5
				// pass to the polynomial concepts.
				concepts = []Concept{RE, BAE, PS, BSwE, BGE, BNE}
			}
			for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
				h := g.Clone()
				ev.Bind(gm, h)
				for _, c := range concepts {
					set := ev.CertifyBound(c)
					for _, alpha := range certProbePoints(set) {
						gmA, err := game.NewGame(n, alpha)
						if err != nil {
							t.Fatal(err)
						}
						gmA.Variant = variant
						if got, want := set.Contains(alpha), Check(gmA, g, c).Stable; got != want {
							t.Errorf("variant=%s n=%d %s α=%s on %s: certificate %v != checker %v (cert %s)",
								variant, n, c, alpha, g, got, want, set)
						}
					}
				}
			}
		}
	}
}

// TestUnilateralStableImpliesBilateralStable pins the consent-order
// property: an improving bilateral deviation needs every actor to improve,
// so it is in particular an improving unilateral deviation for its
// initiator — unilateral stability is the stronger requirement, and the
// unilateral stable set must be contained in the bilateral one for every
// concept. RE and the coalition concepts are consent-independent, so
// there the certificates must be equal.
func TestUnilateralStableImpliesBilateralStable(t *testing.T) {
	uni, err := game.ParseVariant("unilateral")
	if err != nil {
		t.Fatal(err)
	}
	evB, evU := NewEvaluator(), NewEvaluator()
	for n := 2; n <= 5; n++ {
		gmB, err := game.NewGame(n, game.A(1))
		if err != nil {
			t.Fatal(err)
		}
		gmU := gmB
		gmU.Variant = uni
		for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			for _, c := range []Concept{RE, BAE, PS, BSwE, BGE, BNE} {
				setB := evB.Certify(gmB, g.Clone(), c)
				setU := evU.Certify(gmU, g.Clone(), c)
				if c == RE && !setB.Equal(setU) {
					t.Fatalf("n=%d RE on %s: consent-independent concept diverged: bilateral %s, unilateral %s",
						n, g, setB, setU)
				}
				for _, alpha := range certProbePoints(setU) {
					if setU.Contains(alpha) && !setB.Contains(alpha) {
						t.Errorf("n=%d %s α=%s on %s: unilateral-stable but not bilateral-stable (uni %s, bi %s)",
							n, c, alpha, g, setU, setB)
					}
				}
			}
		}
	}
}

// TestVariantKnownThresholds pins hand-computed critical prices for the
// new axes, the variant analogue of TestCertifyKnownThresholds.
func TestVariantKnownThresholds(t *testing.T) {
	// Star on 5 nodes, MAX distances: a leaf adding an edge to another
	// leaf keeps her eccentricity at 2 while paying for a second edge, so
	// the star is pairwise stable at every price — unlike the SUM model,
	// where it is stable exactly on [1, ∞).
	maxV, err := game.ParseVariant("max")
	if err != nil {
		t.Fatal(err)
	}
	star := game.Star(5)
	gmMax := game.Game{N: 5, Variant: maxV}
	if set := NewEvaluator().Certify(gmMax, star.Clone(), PS); !set.Equal(AlphaSet{ivs: []AlphaInterval{fullAxis()}}) {
		t.Fatalf("star5 PS under max: want [0, ∞), got %s", set)
	}
	if set := NewEvaluator().Certify(game.Game{N: 5}, star.Clone(), PS); set.Contains(game.AFrac(1, 2)) {
		t.Fatalf("star5 PS under sum: want instability below 1, cert %s", set)
	}

	// Path 0–1–2 with agent 0 paying double: the bilateral add of edge
	// (0,2) improves agent 0 iff 2α < 1 and agent 2 iff α < 1, so PS
	// flips at α = 1/2 instead of the uniform model's α = 1.
	mulV, err := game.ParseVariant("mul:0=2")
	if err != nil {
		t.Fatal(err)
	}
	path := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	set := NewEvaluator().Certify(game.Game{N: 3, Variant: mulV}, path.Clone(), PS)
	want := mustAlphaSet(t, AlphaInterval{Lo: RatOf(1, 2), Hi: RatInf()})
	if !set.Equal(want) {
		t.Fatalf("path3 PS with mul:0=2: want %s, got %s", want, set)
	}
	uniform := NewEvaluator().Certify(game.Game{N: 3}, path.Clone(), PS)
	wantUniform := mustAlphaSet(t, AlphaInterval{Lo: RatOf(1, 1), Hi: RatInf()})
	if !uniform.Equal(wantUniform) {
		t.Fatalf("path3 PS uniform: want %s, got %s", wantUniform, uniform)
	}
}

// FuzzVariantCertificateAgreement extends the certificate differential
// fuzz target across the variant family: decoded graph × variant pick ×
// concept pick, certificate vs Check vs referenceCheck on the dense probe
// grid.
func FuzzVariantCertificateAgreement(f *testing.F) {
	f.Add("n 3\n0 1\n1 2\n", uint8(0), uint8(0))
	f.Add("n 4\n0 1\n1 2\n2 3\n3 0\n", uint8(1), uint8(1))
	f.Add("n 5\n0 1\n0 2\n0 3\n0 4\n", uint8(3), uint8(2))
	f.Add("n 5\n0 1\n1 2\n2 3\n3 4\n", uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, input string, pick, vpick uint8) {
		g, err := graph.Decode(input)
		if err != nil || g.N() < 2 || g.N() > 5 {
			return
		}
		n := g.N()
		variants := []string{"unilateral", "max", "unilateral,max", "mul:0=3,mul:1=2/3"}
		variant, err := game.ParseVariant(variants[int(vpick)%len(variants)])
		if err != nil {
			t.Fatal(err)
		}
		concepts := Concepts()
		if n == 5 {
			concepts = []Concept{RE, BAE, PS, BSwE, BGE, BNE}
		}
		concept := concepts[int(pick)%len(concepts)]
		gm, err := game.NewGame(n, game.A(1))
		if err != nil {
			t.Fatal(err)
		}
		gm.Variant = variant
		ev := NewEvaluator()
		set := ev.Certify(gm, g.Clone(), concept)

		probe := func(alpha game.Alpha) {
			gmA, err := game.NewGame(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			gmA.Variant = variant
			res := Check(gmA, g, concept)
			if ref := referenceCheck(gmA, g, concept); ref.Stable != res.Stable || witnessString(ref) != witnessString(res) {
				t.Fatalf("variant=%s %s at α=%s on %s: checker says %v %q, reference says %v %q",
					variant, concept, alpha, g, res.Stable, witnessString(res), ref.Stable, witnessString(ref))
			}
			got, want := set.Contains(alpha), res.Stable
			if got != want {
				t.Fatalf("variant=%s %s at α=%s on %s: certificate says %v, checker says %v (cert %s)",
					variant, concept, alpha, g, got, want, set)
			}
		}
		for den := int64(1); den <= 3; den++ {
			for num := int64(0); num <= 9; num++ {
				probe(game.AFrac(num, den))
			}
		}
		bps := set.Breakpoints()
		for i, bp := range bps {
			probe(bp)
			if i+1 < len(bps) {
				if mid, err := game.NewAlpha(
					bp.Num()*bps[i+1].Den()+bps[i+1].Num()*bp.Den(),
					2*bp.Den()*bps[i+1].Den()); err == nil {
					probe(mid)
				}
			}
		}
		if len(bps) > 0 {
			last := bps[len(bps)-1]
			probe(game.AFrac(last.Num()+last.Den(), last.Den()))
		}
	})
}
