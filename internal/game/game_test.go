package game

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestNewAlpha(t *testing.T) {
	tests := []struct {
		name     string
		num, den int64
		wantErr  bool
		str      string
	}{
		{name: "integer", num: 3, den: 1, str: "3"},
		{name: "reduced", num: 6, den: 4, str: "3/2"},
		{name: "half", num: 1, den: 2, str: "1/2"},
		{name: "zero", num: 0, den: 5, str: "0"},
		{name: "neg num", num: -1, den: 2, wantErr: true},
		{name: "zero den", num: 1, den: 0, wantErr: true},
		{name: "neg den", num: 1, den: -2, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, err := NewAlpha(tt.num, tt.den)
			if tt.wantErr {
				if err == nil {
					t.Fatal("no error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != tt.str {
				t.Fatalf("String = %q, want %q", a.String(), tt.str)
			}
		})
	}
}

// TestAlphaStringMatchesFmt pins String and MarshalJSON byte for byte to
// the fmt renderings they replaced ("%d" or "%d/%d", and "%q" of that),
// over the zero value, both denominator forms and the int64 extremes.
func TestAlphaStringMatchesFmt(t *testing.T) {
	alphas := []Alpha{{}}
	vals := []int64{0, 1, 2, 3, 9, 10, 99, 1 << 31, 1<<62 - 1, 1 << 62, math.MaxInt64 - 1, math.MaxInt64}
	for _, num := range vals {
		for _, den := range vals[1:] {
			alphas = append(alphas, AFrac(num, den))
		}
	}
	for _, a := range alphas {
		want := fmt.Sprintf("%d/%d", a.Num(), a.Den())
		if a.Den() == 1 {
			want = fmt.Sprintf("%d", a.Num())
		}
		if got := a.String(); got != want {
			t.Errorf("String of %d/%d = %q, want %q", a.Num(), a.Den(), got, want)
		}
		js, err := a.MarshalJSON()
		if err != nil || string(js) != fmt.Sprintf("%q", want) {
			t.Errorf("MarshalJSON of %d/%d = %s, %v, want %q", a.Num(), a.Den(), js, err, want)
		}
	}
}

func TestAlphaCmp(t *testing.T) {
	a := AFrac(9, 2) // 4.5
	if a.Cmp(4, 1) != 1 || a.Cmp(5, 1) != -1 || a.Cmp(9, 2) != 0 || a.Cmp(18, 4) != 0 {
		t.Fatal("Cmp wrong for 9/2")
	}
	if !a.LessThanInt(5) || a.LessThanInt(4) {
		t.Fatal("int comparisons wrong")
	}
	if A(7).Float() != 7.0 {
		t.Fatal("Float wrong")
	}
}

func TestCostLexicographic(t *testing.T) {
	alpha := A(3)
	connected := Cost{Buy: 100, Dist: 100}
	disconnected := Cost{Unreachable: 1, Buy: 0, Dist: 0}
	if !connected.Less(disconnected, alpha) {
		t.Fatal("connectivity must dominate any finite cost")
	}
	if disconnected.Less(connected, alpha) {
		t.Fatal("disconnected preferred over connected")
	}
	// α=3: buy 2 dist 0 (6) vs buy 1 dist 4 (7).
	if !(Cost{Buy: 2}).Less(Cost{Buy: 1, Dist: 4}, alpha) {
		t.Fatal("6 < 7 failed")
	}
	// Exact tie at fractional α: α=3/2, buy 2 dist 0 (3) vs buy 0 dist 3.
	half := AFrac(3, 2)
	a, b := Cost{Buy: 2}, Cost{Dist: 3}
	if a.Less(b, half) || b.Less(a, half) {
		t.Fatal("exact rational tie mishandled")
	}
}

func TestAgentCostOnStar(t *testing.T) {
	gm, err := NewGame(5, A(2))
	if err != nil {
		t.Fatal(err)
	}
	g := Star(5)
	center := gm.AgentCost(g, 0)
	if center.Buy != 4 || center.Dist != 4 || center.Unreachable != 0 {
		t.Fatalf("center cost = %v", center)
	}
	leaf := gm.AgentCost(g, 1)
	if leaf.Buy != 1 || leaf.Dist != 1+2*3 {
		t.Fatalf("leaf cost = %v", leaf)
	}
}

func TestAgentCostDisconnected(t *testing.T) {
	gm, _ := NewGame(4, A(1))
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}})
	c := gm.AgentCost(g, 0)
	if c.Unreachable != 2 || c.Dist != 1 || c.Buy != 1 {
		t.Fatalf("cost = %v", c)
	}
}

func TestSocialCostStar(t *testing.T) {
	n := 6
	gm, _ := NewGame(n, A(3))
	got := gm.SocialCost(Star(n))
	want := gm.OptCost()
	if got != want {
		t.Fatalf("social cost of star = %v, OPT formula = %v", got, want)
	}
}

func TestOptFormulaClique(t *testing.T) {
	n := 5
	gm, _ := NewGame(n, AFrac(1, 2))
	got := gm.SocialCost(Clique(n))
	want := gm.OptCost()
	if got != want {
		t.Fatalf("social cost of clique = %v, OPT formula = %v", got, want)
	}
}

// TestOptIsOptimal verifies by exhaustive search over all connected graphs
// on n<=5 nodes that the closed-form OPT is actually minimal, for α on both
// sides of 1.
func TestOptIsOptimal(t *testing.T) {
	alphas := []Alpha{AFrac(1, 2), AFrac(3, 2), A(3), A(10)}
	for n := 2; n <= 5; n++ {
		for _, alpha := range alphas {
			gm, _ := NewGame(n, alpha)
			opt := gm.OptCost().Value(alpha)
			best := opt
			for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, MaxEdges: -1}) {
				v := gm.SocialCost(g).Value(alpha)
				if v < best {
					best = v
				}
			}
			if best < opt {
				t.Fatalf("n=%d α=%s: found social cost %.3f below OPT %.3f", n, alpha, best, opt)
			}
		}
	}
}

func TestRho(t *testing.T) {
	n := 6
	gm, _ := NewGame(n, A(2))
	if rho := gm.Rho(Star(n)); rho != 1 {
		t.Fatalf("ρ(star) = %v, want 1", rho)
	}
	// Path is worse than star for α >= 1.
	path := graph.New(n)
	for v := 1; v < n; v++ {
		path.AddEdge(v-1, v)
	}
	if rho := gm.Rho(path); rho <= 1 {
		t.Fatalf("ρ(path) = %v, want > 1", rho)
	}
	// Disconnected sentinel.
	if rho := gm.Rho(graph.New(n)); rho < 1e17 {
		t.Fatalf("ρ(disconnected) = %v, want sentinel", rho)
	}
}

// TestRhoOneNode: on one node the optimum costs 0 and the lone node is
// that optimum, so ρ is 1 at every price, not 0/0.
func TestRhoOneNode(t *testing.T) {
	for _, alpha := range []Alpha{AFrac(1, 2), A(1), A(7)} {
		gm, err := NewGame(1, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if rho := gm.Rho(graph.New(1)); rho != 1 {
			t.Fatalf("α=%s: ρ(one node) = %v, want 1", alpha, rho)
		}
	}
}

// TestCostDecompositionProperty: social cost equals 2mα + Σ_u dist(u) on
// random connected graphs (the Buy component counts edge endpoints).
func TestCostDecompositionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		maxM := n * (n - 1) / 2
		m := n - 1 + r.Intn(maxM-n+2)
		g, err := graph.RandomConnectedGraph(n, m, r)
		if err != nil {
			return false
		}
		gm, _ := NewGame(n, A(2))
		total := gm.SocialCost(g)
		var distSum int64
		for u := 0; u < n; u++ {
			s, unreachable := g.TotalDist(u)
			if unreachable != 0 {
				return false
			}
			distSum += s
		}
		return total.Buy == 2*int64(g.M()) && total.Dist == distSum && total.Unreachable == 0
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNewGameValidation(t *testing.T) {
	if _, err := NewGame(0, A(1)); err == nil {
		t.Fatal("n=0 accepted")
	}
}
