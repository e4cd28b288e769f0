package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		m := rng.Intn(n*(n-1)/2 + 1)
		g, err := RandomGraph(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(Encode(g))
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(back) {
			t.Fatalf("roundtrip mismatch:\n%s\n%s", g, back)
		}
	}
}

func TestDecodeCommentsAndBlanks(t *testing.T) {
	g, err := Decode("# a triangle\nn 3\n\n0 1\n1 2\n# middle comment\n0 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 || g.N() != 3 {
		t.Fatalf("decoded %s", g)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{name: "empty", in: ""},
		{name: "edge before n", in: "0 1\nn 3\n"},
		{name: "bad count", in: "n -1\n"},
		{name: "bad edge arity", in: "n 3\n0 1 2\n"},
		{name: "bad endpoint", in: "n 3\n0 x\n"},
		{name: "out of range", in: "n 3\n0 9\n"},
		{name: "duplicate n", in: "n 3\nn 3\n"},
		{name: "duplicate edge", in: "n 3\n0 1\n1 0\n"},
		{name: "over decode cap", in: "n 75555555500\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.in); err == nil {
				t.Fatalf("Decode(%q) succeeded", tt.in)
			}
		})
	}
}

func TestDOT(t *testing.T) {
	g := MustFromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	out := dot(g, "t", map[int]string{0: "a"})
	for _, want := range []string{"graph t {", `0 [label="a"];`, "0 -- 1;", "1 -- 2;"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// dot renders g in Graphviz format with optional node labels.
func dot(g *Graph, name string, labels map[int]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", name)
	keys := make([]int, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, u := range keys {
		fmt.Fprintf(&b, "  %d [label=%q];\n", u, labels[u])
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %d -- %d;\n", e.U, e.V)
	}
	b.WriteString("}\n")
	return b.String()
}
