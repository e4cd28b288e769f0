package construct

import (
	"fmt"

	"repro/internal/graph"
)

// Figure5 is the reconstruction of the paper's Figure 5 witness: a graph in
// BAE and BGE but not in BNE at α = 209/2. Two arms a—b_i—c_i—d_i hang off
// a hub a that also carries 100 pendant leaves e_1..e_100. The hub cannot
// profit from a single swap (the new partner's gain of 104 falls short of
// α), but the simultaneous double swap {−ab_1, −ab_2, +ac_1, +ac_2}
// improves a by 2 and each c_i by 105 > α.
type Figure5 struct {
	G *graph.Graph
	// A is the hub; B, C, D are the two arms' nodes; E the pendants.
	A         int
	B, C, D   [2]int
	E         []int
	LeafCount int
}

// NewFigure5 builds the gadget. leafCount is the number of pendant e-nodes;
// the paper uses 100 (with α = 104.5).
func NewFigure5(leafCount int) *Figure5 {
	n := 7 + leafCount
	g := graph.New(n)
	f := &Figure5{G: g, A: 0, LeafCount: leafCount}
	id := 1
	for arm := 0; arm < 2; arm++ {
		f.B[arm], f.C[arm], f.D[arm] = id, id+1, id+2
		g.AddEdge(f.A, f.B[arm])
		g.AddEdge(f.B[arm], f.C[arm])
		g.AddEdge(f.C[arm], f.D[arm])
		id += 3
	}
	for i := 0; i < leafCount; i++ {
		f.E = append(f.E, id)
		g.AddEdge(f.A, id)
		id++
	}
	return f
}

// Figure7 is the explicit gadget of Proposition A.7 (Figure 7): a hub a
// with i rows a—b_j—c_j—d_j. At α = 4(i−1) it is in k-BSE (the paper takes
// i = 20k) but not in BNE: the hub profits from swapping all b-edges for
// c-edges simultaneously, and each c_j gains 1 + 4(i−1) > α.
type Figure7 struct {
	G *graph.Graph
	// A is the hub; B, C, D list the row nodes.
	A       int
	B, C, D []int
	Rows    int
}

// NewFigure7 builds the gadget with the given number of rows (the paper's
// i). n = 3·rows + 1.
func NewFigure7(rows int) *Figure7 {
	if rows < 1 {
		panic(fmt.Sprintf("construct: figure 7 needs at least one row, got %d", rows))
	}
	g := graph.New(3*rows + 1)
	f := &Figure7{G: g, A: 0, Rows: rows}
	id := 1
	for j := 0; j < rows; j++ {
		b, c, d := id, id+1, id+2
		f.B = append(f.B, b)
		f.C = append(f.C, c)
		f.D = append(f.D, d)
		g.AddEdge(f.A, b)
		g.AddEdge(b, c)
		g.AddEdge(c, d)
		id += 3
	}
	return f
}

// AlphaNum returns the numerator of the gadget's edge price α = 4(i−1)
// (an integer).
func (f *Figure7) AlphaNum() int64 { return 4 * (int64(f.Rows) - 1) }

// Figure6 is the gadget of Proposition A.5 (Figure 6): a 10-node graph in
// BNE but not in 2-BSE at α = 7. Its topology was recovered by constrained
// search and matches the paper's stated agent distance costs exactly
// (dist(a1) = 19, dist(b1) = 27, dist(c1) = 19): the a-nodes carry a
// perfect matching a1–a3, a2–a4; each b_i is pendant at a_i; c1 joins a1
// and a4, c2 joins a2 and a3. The violating 2-coalition {a1, a2} drops the
// two c-edges incident to it and adds the direct edge a1–a2, mirroring the
// paper's {a1, a3} move.
type Figure6 struct {
	G *graph.Graph
	// A, B, C index the agent groups: A[i] carries pendant B[i]; C has the
	// two connector agents.
	A, B [4]int
	C    [2]int
}

// NewFigure6 builds the gadget (10 nodes, for α = 7).
func NewFigure6() *Figure6 {
	g := graph.New(10)
	f := &Figure6{G: g}
	for i := 0; i < 4; i++ {
		f.A[i] = i
		f.B[i] = 4 + i
		g.AddEdge(f.A[i], f.B[i])
	}
	f.C[0], f.C[1] = 8, 9
	// Matching among the a-nodes.
	g.AddEdge(f.A[0], f.A[2])
	g.AddEdge(f.A[1], f.A[3])
	// Connectors: c1 joins a1, a4; c2 joins a2, a3.
	g.AddEdge(f.C[0], f.A[0])
	g.AddEdge(f.C[0], f.A[3])
	g.AddEdge(f.C[1], f.A[1])
	g.AddEdge(f.C[1], f.A[2])
	return f
}

// DoubleDeep is the Lemma 3.14 / Figure 4 gadget: a hub u with two long
// path arms of equal length plus pendant leaves that make u the 1-median.
// In a tree that is deep on two child subtrees, the coalition {x, z, z'}
// (adding xz and zz', removing xy) improves all three members — the move
// that powers the 3-BSE constant PoA.
type DoubleDeep struct {
	G *graph.Graph
	// U is the hub; ArmA and ArmB are the two arms' node paths (hub
	// excluded), index 0 adjacent to the hub.
	U          int
	ArmA, ArmB []int
	Leaves     []int
}

// NewDoubleDeep builds the gadget with two arms of the given length and
// pendant leaves at the hub. For the 1-median to sit at the hub, leaves
// should be at least armLen.
func NewDoubleDeep(armLen, leaves int) *DoubleDeep {
	if armLen < 1 {
		panic(fmt.Sprintf("construct: arm length %d must be >= 1", armLen))
	}
	n := 1 + 2*armLen + leaves
	g := graph.New(n)
	d := &DoubleDeep{G: g, U: 0}
	id := 1
	prev := d.U
	for i := 0; i < armLen; i++ {
		g.AddEdge(prev, id)
		d.ArmA = append(d.ArmA, id)
		prev = id
		id++
	}
	prev = d.U
	for i := 0; i < armLen; i++ {
		g.AddEdge(prev, id)
		d.ArmB = append(d.ArmB, id)
		prev = id
		id++
	}
	for i := 0; i < leaves; i++ {
		g.AddEdge(d.U, id)
		d.Leaves = append(d.Leaves, id)
		id++
	}
	return d
}

// Figure2 is a witness for Proposition 2.3 (the paper's Figure 2),
// refuting the Corbo–Parkes conjecture: a graph with an edge assignment
// that is a pure Nash equilibrium of the unilateral NCG at α = 2 while the
// graph is not pairwise stable in the BNCG — agent 0 profits from
// bilaterally dropping the edge 0–2 it never paid for unilaterally. The
// witness was recovered by exhaustive search over all 5-node graphs and
// ownerships (the paper's own figure uses α = 4 on a different gadget; any
// checker-verified witness refutes the conjecture).
type Figure2 struct {
	G *graph.Graph
	// Owner maps each edge to the agent paying for it in the NCG.
	Owner map[graph.Edge]int
}

// NewFigure2 builds the witness (5 nodes, for α = 2).
func NewFigure2() *Figure2 {
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 4}, {U: 1, V: 2}, {U: 1, V: 3},
	})
	return &Figure2{
		G: g,
		Owner: map[graph.Edge]int{
			{U: 0, V: 1}: 0,
			{U: 0, V: 2}: 2,
			{U: 0, V: 4}: 0,
			{U: 1, V: 2}: 2,
			{U: 1, V: 3}: 1,
		},
	}
}

// Figure8 is a witness for the reverse direction of Proposition 2.1 (the
// paper's Figure 8): a graph in BAE of the BNCG that is not in Add
// Equilibrium of the unilateral NCG at α = 2. It is the broom 2–1–0 with
// leaves 3, 4 at node 0: agent 2 gains 3 > α by unilaterally buying 2–0,
// but agent 0 gains only 1 < α, so the bilateral addition fails. Recovered
// by search; the paper's 28-node gadget (α = 9/2) witnesses the same
// separation.
func Figure8() *graph.Graph {
	return graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 1, V: 2},
	})
}
