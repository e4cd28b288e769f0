package graph

import "testing"

// TestAllMatchesEnumerateKeyed: under UpToIso the graph iterator All
// yields exactly AllClasses' representatives with their keys, in the same
// order.
func TestAllMatchesEnumerateKeyed(t *testing.T) {
	opts := EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}
	var fromClasses []string
	for g, cl := range AllClasses(5, opts) {
		fromClasses = append(fromClasses, cl.Key+" "+g.String())
	}
	var fromIter []string
	for g, key := range All(5, opts) {
		fromIter = append(fromIter, key+" "+g.String())
	}
	if len(fromClasses) != 21 {
		t.Fatalf("enumerated %d connected classes on 5 nodes, want 21", len(fromClasses))
	}
	if len(fromIter) != len(fromClasses) {
		t.Fatalf("All yielded %d graphs, AllClasses %d", len(fromIter), len(fromClasses))
	}
	for i := range fromClasses {
		if fromIter[i] != fromClasses[i] {
			t.Fatalf("position %d: All %q vs AllClasses %q", i, fromIter[i], fromClasses[i])
		}
	}
}

// TestAllEarlyBreakStopsEnumeration: breaking the range stops generation —
// the loop body runs exactly as often as requested, and the break returns
// (rather than exhausting the 2^15 labeled space first).
func TestAllEarlyBreakStopsEnumeration(t *testing.T) {
	bodies := 0
	for range All(6, EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
		bodies++
		if bodies == 3 {
			break
		}
	}
	if bodies != 3 {
		t.Fatalf("loop body ran %d times, want 3", bodies)
	}
}

// TestAllFreeTreesMatchesKeyedShim: every class key of the tree stream is
// the FreeTreeKey of its representative, and the 11 free trees on 7 nodes
// all appear.
func TestAllFreeTreesMatchesKeyedShim(t *testing.T) {
	n := 0
	for g, cl := range AllFreeTreeClasses(7) {
		if key := FreeTreeKey(g); cl.Key != key {
			t.Fatalf("tree %d: class key %q, FreeTreeKey %q", n, cl.Key, key)
		}
		n++
	}
	if n != 11 {
		t.Fatalf("enumerated %d free trees on 7 nodes, want 11", n)
	}
}

// TestAllFreeTreesEarlyBreak: breaking the tree range stops the
// Beyer–Hedetniemi generation mid-stream.
func TestAllFreeTreesEarlyBreak(t *testing.T) {
	bodies := 0
	for range AllFreeTreeClasses(9) {
		bodies++
		if bodies == 4 {
			break
		}
	}
	if bodies != 4 {
		t.Fatalf("loop body ran %d times, want 4", bodies)
	}
}
