package game

import (
	"testing"

	"repro/internal/graph"
)

func TestParseVariantRoundTrip(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
		isDefault bool
	}{
		{"", "default", true},
		{"default", "default", true},
		{"bilateral", "default", true},
		{"sum", "default", true},
		{"bilateral,sum", "default", true},
		{"unilateral", "unilateral", false},
		{"max", "max", false},
		{"max,unilateral", "unilateral,max", false},
		{"mul:2=3/2", "mul:2=3/2", false},
		{"mul:2=1", "default", true}, // identity multiplier canonicalizes away
		{"mul:3=2,mul:1=1/2,unilateral", "unilateral,mul:1=1/2,mul:3=2", false},
		{"mul:0=6/4", "mul:0=3/2", false}, // multiplier reduces
	}
	for _, tc := range cases {
		v, err := ParseVariant(tc.in)
		if err != nil {
			t.Fatalf("ParseVariant(%q): %v", tc.in, err)
		}
		if got := v.String(); got != tc.canonical {
			t.Errorf("ParseVariant(%q).String() = %q, want %q", tc.in, got, tc.canonical)
		}
		if got := v.IsDefault(); got != tc.isDefault {
			t.Errorf("ParseVariant(%q).IsDefault() = %v, want %v", tc.in, got, tc.isDefault)
		}
		wantKey := tc.canonical
		if tc.isDefault {
			wantKey = ""
		}
		if got := v.Key(); got != wantKey {
			t.Errorf("ParseVariant(%q).Key() = %q, want %q", tc.in, got, wantKey)
		}
		back, err := ParseVariant(v.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", v.String(), err)
		}
		if back.String() != v.String() {
			t.Errorf("round trip of %q: %q != %q", tc.in, back.String(), v.String())
		}
	}
}

func TestParseVariantErrors(t *testing.T) {
	for _, in := range []string{
		"bogus",
		"unilateral,unilateral",
		"bilateral,unilateral",
		"sum,max",
		"default,max",
		"mul:x=2",
		"mul:1",
		"mul:1=0",
		"mul:1=-2",
		"mul:-1=2",
		"mul:1=2,mul:1=3",
	} {
		if v, err := ParseVariant(in); err == nil {
			t.Errorf("ParseVariant(%q) = %v, want error", in, v)
		}
	}
}

func TestVariantValidate(t *testing.T) {
	v, err := ParseVariant("mul:4=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(5); err != nil {
		t.Errorf("agent 4 valid for n=5: %v", err)
	}
	if err := v.Validate(4); err == nil {
		t.Error("agent 4 must be rejected for n=4")
	}
	bad := Variant{Prices: []AgentPrice{{Agent: 1, Mul: A(1)}}}
	if err := bad.Validate(3); err == nil {
		t.Error("identity multiplier must fail canonical validation")
	}
}

func TestMulFor(t *testing.T) {
	v, err := ParseVariant("mul:1=3/2,mul:3=2")
	if err != nil {
		t.Fatal(err)
	}
	if p, q := v.MulFor(0); p != 1 || q != 1 {
		t.Errorf("MulFor(0) = %d/%d, want 1/1", p, q)
	}
	if p, q := v.MulFor(1); p != 3 || q != 2 {
		t.Errorf("MulFor(1) = %d/%d, want 3/2", p, q)
	}
	if p, q := v.MulFor(3); p != 2 || q != 1 {
		t.Errorf("MulFor(3) = %d/%d, want 2/1", p, q)
	}
}

func TestAgentCostMaxDistance(t *testing.T) {
	// Path 0–1–2–3: under MAX the distance term is the eccentricity.
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	maxV, err := ParseVariant("max")
	if err != nil {
		t.Fatal(err)
	}
	gmSum := Game{N: 4, Alpha: A(1)}
	gmMax := Game{N: 4, Alpha: A(1), Variant: maxV}
	if got := gmSum.AgentCost(g, 0); got.Dist != 6 || got.Buy != 1 {
		t.Errorf("sum cost of 0 on path4 = %+v, want dist 6 buy 1", got)
	}
	if got := gmMax.AgentCost(g, 0); got.Dist != 3 || got.Buy != 1 {
		t.Errorf("max cost of 0 on path4 = %+v, want dist 3 buy 1", got)
	}
	if got := gmMax.AgentCost(g, 1); got.Dist != 2 || got.Buy != 2 {
		t.Errorf("max cost of 1 on path4 = %+v, want dist 2 buy 2", got)
	}
	// AgentCostFromDist agrees with AgentCost in both modes, on the
	// one-word (path4), multi-word (n=100) and neighbor-list (n=600) BFS
	// kernels; the last n/10 nodes of the larger graphs stay isolated.
	for _, n := range []int{4, 100, 600} {
		h := graph.New(n)
		for v := 1; v < n-n/10; v++ {
			h.AddEdge(v-1, v)
			if v%7 == 0 {
				h.AddEdge(v, v/2)
			}
		}
		dist := make([]int, n)
		for _, u := range []int{0, 1, n / 2, n - 1} {
			h.BFSScratchInto(u, dist, &graph.BFSScratch{})
			for _, gm := range []Game{gmSum, gmMax} {
				if got, want := gm.AgentCostFromDist(h, u, dist), gm.AgentCost(h, u); got != want {
					t.Errorf("n=%d u=%d %s: AgentCostFromDist = %+v, AgentCost = %+v", n, u, gm.Variant, got, want)
				}
			}
		}
	}
}

func TestOptCostPanicsForNonDefaultVariant(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OptCost must panic for non-default variants")
		}
	}()
	v, err := ParseVariant("max")
	if err != nil {
		t.Fatal(err)
	}
	Game{N: 4, Alpha: A(1), Variant: v}.OptCost()
}
