package game

import (
	"testing"

	"repro/internal/graph"
)

func triangle() *graph.Graph {
	return graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
}

func TestNewOwnershipValidation(t *testing.T) {
	g := triangle()
	if _, err := NewOwnership(g, map[graph.Edge]int{{U: 0, V: 1}: 0}); err == nil {
		t.Fatal("missing owners accepted")
	}
	if _, err := NewOwnership(g, map[graph.Edge]int{
		{U: 0, V: 1}: 2, {U: 1, V: 2}: 1, {U: 0, V: 2}: 0,
	}); err == nil {
		t.Fatal("non-endpoint owner accepted")
	}
	o, err := NewOwnership(g, map[graph.Edge]int{
		{U: 0, V: 1}: 0, {U: 1, V: 2}: 1, {U: 0, V: 2}: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := o.Owner(1, 0); !ok || w != 0 {
		t.Fatalf("Owner(1,0) = %d,%v", w, ok)
	}
	if o.Bought(1) != 1 || o.Bought(0) != 1 {
		t.Fatal("Bought wrong")
	}
}

func TestOwnershipCloneMutation(t *testing.T) {
	g := triangle()
	o, _ := NewOwnership(g, map[graph.Edge]int{
		{U: 0, V: 1}: 0, {U: 1, V: 2}: 1, {U: 0, V: 2}: 2,
	})
	c := o.Clone()
	c.setOwner(0, 1, 1)
	if w, _ := o.Owner(0, 1); w != 0 {
		t.Fatal("clone mutation leaked")
	}
	c.delete(0, 1)
	if _, ok := c.Owner(0, 1); ok {
		t.Fatal("Delete did not delete")
	}
}

func TestAllOwnerships(t *testing.T) {
	g := triangle()
	seen := make(map[string]bool)
	count := 0
	for o := range AllOwnerships(g) {
		count++
		key := ""
		for _, e := range g.Edges() {
			w, _ := o.Owner(e.U, e.V)
			if w == e.U {
				key += "U"
			} else {
				key += "V"
			}
		}
		seen[key] = true
	}
	if count != 8 || len(seen) != 8 {
		t.Fatalf("AllOwnerships: %d yielded, %d distinct, want 8", count, len(seen))
	}
}

func TestNCGAgentCost(t *testing.T) {
	g := triangle()
	o, _ := NewOwnership(g, map[graph.Edge]int{
		{U: 0, V: 1}: 0, {U: 1, V: 2}: 1, {U: 0, V: 2}: 0,
	})
	gm, _ := NewGame(3, A(5))
	c0 := gm.NCGAgentCost(g, o, 0)
	if c0.Buy != 2 || c0.Dist != 2 {
		t.Fatalf("agent 0 cost = %v", c0)
	}
	c2 := gm.NCGAgentCost(g, o, 2)
	if c2.Buy != 0 || c2.Dist != 2 {
		t.Fatalf("agent 2 cost = %v", c2)
	}
}

// setOwner records (or re-records) the owner of edge uv. The caller must
// keep the ownership consistent with the graph it describes.
func (o *Ownership) setOwner(u, v, owner int) {
	o.owner[graph.Edge{U: u, V: v}.Normalize()] = owner
}

// delete removes the ownership record of edge uv.
func (o *Ownership) delete(u, v int) {
	delete(o.owner, graph.Edge{U: u, V: v}.Normalize())
}
