package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// Encode renders g in the repository's plain text format:
//
//	n <nodes>
//	<u> <v>
//	...
//
// one edge per line, canonical order. The format round-trips through Decode.
func Encode(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n %d\n", g.n)
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "%d %d\n", e.U, e.V)
	}
	return b.String()
}

// MaxDecodeNodes caps the node count Decode accepts, so malformed or
// hostile input cannot force a multi-gigabyte allocation before a single
// edge is read (found by FuzzCanonicalCacheKey). The largest constructed
// family in the repository — the Section 3.3 d-ary curves at n = 2^20 —
// fits with headroom.
const MaxDecodeNodes = 1 << 22

// Decode parses the format produced by Encode. Blank lines and lines
// starting with '#' are ignored.
func Decode(s string) (*Graph, error) {
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
