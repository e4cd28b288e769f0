package graph

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode"
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

// NodeLimitError is DecodeLimit's error for a node-count line above its
// limit. N is the count the line declares.
type NodeLimitError struct{ N int }

func (e *NodeLimitError) Error() string {
	return fmt.Sprintf("graph: node count %d exceeds the limit", e.N)
}

// Decode parses the format produced by Encode. Blank lines and lines
// starting with '#' are ignored.
func Decode(s string) (*Graph, error) { return DecodeLimit([]byte(s), MaxDecodeNodes) }

// DecodeLimit is Decode over bytes with a caller's node cap: a node-count
// line above limit (but within MaxDecodeNodes) stops the parse with a
// *NodeLimitError before anything is allocated for the graph, so a
// ten-byte upload cannot make a server allocate for millions of nodes it
// will refuse anyway.
//
// The parse is one pass over the bytes. Graphs with bitset rows collect
// their edges in the rows and carve every neighbor list out of one
// backing array at the end; larger graphs insert edge by edge.
func DecodeLimit(data []byte, limit int) (*Graph, error) {
	var g *Graph
	for lineNo := 1; ; lineNo++ {
		line, rest, more := bytes.Cut(data, []byte{'\n'})
		data = rest
		var err error
		if g, err = decodeLine(g, line, lineNo, limit); err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing node-count line")
	}
	if g.bits != nil {
		g.neighFromBits()
	}
	return g, nil
}

// decodeLine applies one line of the format to g, the graph so far (nil
// before the node-count line), and returns the graph after it.
func decodeLine(g *Graph, raw []byte, lineNo, limit int) (*Graph, error) {
	line, f0, f1, k := splitFields(raw)
	if k == 0 || line[0] == '#' {
		return g, nil
	}
	if string(f0) == "n" {
		if g != nil {
			return nil, fmt.Errorf("graph: line %d: duplicate node-count line", lineNo)
		}
		if k != 2 {
			return nil, fmt.Errorf("graph: line %d: want %q", lineNo, "n <count>")
		}
		// string(f) in a call whose argument does not escape is not
		// allocated for fields up to 32 bytes.
		n, err := strconv.Atoi(string(f1))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("graph: line %d: bad node count %q", lineNo, f1)
		}
		if n > MaxDecodeNodes {
			return nil, fmt.Errorf("graph: line %d: node count %d exceeds the decode cap %d", lineNo, n, MaxDecodeNodes)
		}
		if n > limit {
			return nil, &NodeLimitError{N: n}
		}
		return New(n), nil
	}
	if g == nil {
		return nil, fmt.Errorf("graph: line %d: edge before node-count line", lineNo)
	}
	if k != 2 {
		return nil, fmt.Errorf("graph: line %d: want %q", lineNo, "<u> <v>")
	}
	u, err1 := strconv.Atoi(string(f0))
	v, err2 := strconv.Atoi(string(f1))
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("graph: line %d: bad endpoints %q", lineNo, line)
	}
	if err := g.checkNewEdge(u, v); err != nil {
		return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
	}
	if g.bits == nil {
		g.insertEdge(u, v)
		return g, nil
	}
	// DecodeLimit fills the neighbor lists from the rows once all lines
	// are read.
	g.bits[u][v>>6] |= 1 << uint(v&63)
	g.bits[v][u>>6] |= 1 << uint(u&63)
	g.m++
	return g, nil
}

// splitFields trims a line and returns it with its first two fields and
// the field count, capped at 3 (the format never needs more). Trimming and
// splitting follow strings.TrimSpace and strings.Fields, Unicode spaces
// included, without allocating.
func splitFields(raw []byte) (line, f0, f1 []byte, k int) {
	line = bytes.TrimSpace(raw)
	f0, rest := nextField(line)
	f1, rest = nextField(rest)
	f2, _ := nextField(rest)
	for _, f := range [][]byte{f0, f1, f2} {
		if len(f) > 0 {
			k++
		}
	}
	return line, f0, f1, k
}

// nextField returns the first field of b, a maximal run of non-space
// runes after any leading spaces, and what follows it.
func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	end := bytes.IndexFunc(b, unicode.IsSpace)
	if end < 0 {
		end = len(b)
	}
	return b[:end], b[end:]
}
