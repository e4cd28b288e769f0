package graph

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecode checks that Decode never panics, agrees with referenceDecode
// on every input (an equal graph or the same error string), and that
// whatever it accepts round-trips through Encode and stays a valid graph
// under later edits.
func FuzzDecode(f *testing.F) {
	f.Add("n 3\n0 1\n1 2\n")
	f.Add("n 0\n")
	f.Add("# comment\nn 2\n\n0 1\n")
	f.Add("n 5\n0 1\n0 2\n0 3\n0 4\n")
	f.Add("n -1\n")
	f.Add("0 1\nn 2\n")
	f.Add("n 75555555500") // over the decode cap; must error, not allocate
	f.Add("n 4\r\n0\t1 \r\n\v+2 -0\n")
	f.Add("n 3\n0 1\n1 0\n")
	f.Add("n 3\n0 3\n")
	f.Add("n 2\n1 1\n")
	f.Add("n 3 4\n")
	f.Add("n 3\nn 3\n")
	f.Add("n 3\n0 1 2\n")
	f.Add("n 3\n0 x\n")
	f.Add("n 3\n00000000000000000001 2\n")
	f.Add("n 3\n 0 1\u0085\n \n")
	f.Add("n 2\n0 1\n")
	f.Add("n\xff 2\n")
	f.Add("n 600\n0 599\n599 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Decode(input)
		ref, refErr := referenceDecode(input)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("Decode(%q) = %v; reference %v", input, err, refErr)
		}
		if err != nil {
			return
		}
		if !g.Equal(ref) || !mirrorsAgree(g) {
			t.Fatalf("Decode(%q) = %s; reference %s", input, g, ref)
		}
		back, err := Decode(Encode(g))
		if err != nil {
			t.Fatalf("re-decode of encoded graph failed: %v", err)
		}
		if !g.Equal(back) {
			t.Fatalf("roundtrip mismatch: %s vs %s", g, back)
		}
		// Neighbor lists may share one backing array; growing one must not
		// write into another.
		for u := 0; u+1 < g.N(); u++ {
			if g.AddEdge(u, u+1) {
				ref.AddEdge(u, u+1)
			}
		}
		if !g.Equal(ref) || !mirrorsAgree(g) {
			t.Fatalf("after adding a path to Decode(%q): %s; reference %s", input, g, ref)
		}
	})
}

// mirrorsAgree reports whether g's bitset rows, where it keeps them, hold
// exactly the edges of its neighbor lists.
func mirrorsAgree(g *Graph) bool {
	if g.bits == nil {
		return true
	}
	for u := 0; u < g.n; u++ {
		k := 0
		for v := 0; v < g.n; v++ {
			inRow := g.bits[u][v>>6]&(1<<uint(v&63)) != 0
			inList := k < len(g.neigh[u]) && g.neigh[u][k] == v
			if inRow != inList {
				return false
			}
			if inList {
				k++
			}
		}
		if k != len(g.neigh[u]) {
			return false
		}
	}
	return true
}

// TestDecodeLimit: a node-count line above the caller's limit is refused
// with its count before the graph is allocated; at the limit it decodes.
func TestDecodeLimit(t *testing.T) {
	var le *NodeLimitError
	if _, err := DecodeLimit([]byte("n 4194304\n"), 128); !errors.As(err, &le) || le.N != 4194304 {
		t.Fatalf("over the limit: %v, want a NodeLimitError for 4194304 nodes", err)
	}
	huge := []byte("n 4194304\n")
	if allocs := testing.AllocsPerRun(10, func() { _, _ = DecodeLimit(huge, 128) }); allocs > 1 {
		t.Fatalf("refusing an over-limit count allocated %v objects, want only the error", allocs)
	}
	// The decode cap still comes first, with its own message.
	if _, err := DecodeLimit([]byte("n 4194305\n"), 128); err == nil || errors.As(err, &le) {
		t.Fatalf("over the decode cap: %v", err)
	}
	g, err := DecodeLimit([]byte("n 128\n0 127\n"), 128)
	if err != nil || g.N() != 128 || !g.HasEdge(0, 127) {
		t.Fatalf("at the limit: %v, %v", g, err)
	}
}

// referenceDecode is the line-splitting Decode the one-pass decoder
// replaced, kept as FuzzDecode's oracle.
func referenceDecode(s string) (*Graph, error) {
	var (
		g      *Graph
		lineNo int
	)
	for _, line := range strings.Split(s, "\n") {
		lineNo++
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "n" {
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate node-count line", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: want %q", lineNo, "n <count>")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", lineNo, fields[1])
			}
			if n > MaxDecodeNodes {
				return nil, fmt.Errorf("graph: line %d: node count %d exceeds the decode cap %d", lineNo, n, MaxDecodeNodes)
			}
			g = New(n)
			continue
		}
		if g == nil {
			return nil, fmt.Errorf("graph: line %d: edge before node-count line", lineNo)
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want %q", lineNo, "<u> <v>")
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("graph: line %d: bad endpoints %q", lineNo, line)
		}
		if err := g.addEdgeChecked(u, v); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing node-count line")
	}
	return g, nil
}
