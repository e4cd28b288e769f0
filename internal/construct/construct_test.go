package construct

import (
	"testing"

	"repro/internal/tree"
)

func TestPathCycle(t *testing.T) {
	p := Path(5)
	if !p.IsTree() || p.Diameter() != 4 {
		t.Fatalf("path: %s", p)
	}
	c := Cycle(5)
	if c.M() != 5 || c.Diameter() != 2 {
		t.Fatalf("cycle: %s", c)
	}
	for u := 0; u < 5; u++ {
		if c.Degree(u) != 2 {
			t.Fatalf("cycle degree of %d is %d", u, c.Degree(u))
		}
	}
}

func TestAlmostCompleteDAry(t *testing.T) {
	tests := []struct {
		n, d      int
		wantDepth int
	}{
		{n: 7, d: 2, wantDepth: 2},
		{n: 8, d: 2, wantDepth: 3},
		{n: 13, d: 3, wantDepth: 2},
		{n: 1, d: 2, wantDepth: 0},
		{n: 40, d: 3, wantDepth: 3},
	}
	for _, tt := range tests {
		g := AlmostCompleteDAry(tt.n, tt.d)
		if !g.IsTree() {
			t.Fatalf("n=%d d=%d: not a tree", tt.n, tt.d)
		}
		rt, err := tree.Root(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Depth() != tt.wantDepth {
			t.Fatalf("n=%d d=%d: depth %d, want %d", tt.n, tt.d, rt.Depth(), tt.wantDepth)
		}
		for u := 0; u < tt.n; u++ {
			if len(rt.Children(u)) > tt.d {
				t.Fatalf("n=%d d=%d: node %d has %d children", tt.n, tt.d, u, len(rt.Children(u)))
			}
		}
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := AlmostCompleteDAry(15, 2)
	if g.N() != 15 || !g.IsTree() {
		t.Fatalf("complete binary tree d=3: %s", g)
	}
	leaves := 0
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) == 1 {
			leaves++
		}
	}
	if leaves != 8 {
		t.Fatalf("leaves = %d, want 8", leaves)
	}
}

func TestStretchedIdentities(t *testing.T) {
	for d := 0; d <= 4; d++ {
		for k := 1; k <= 4; k++ {
			st := NewStretched(d, k)
			wantN := ((1<<(d+1))-2)*k + 1
			if st.G.N() != wantN {
				t.Fatalf("d=%d k=%d: n=%d, want %d", d, k, st.G.N(), wantN)
			}
			if !st.G.IsTree() {
				t.Fatalf("d=%d k=%d: not a tree", d, k)
			}
			rt, err := tree.Root(st.G, st.Root)
			if err != nil {
				t.Fatal(err)
			}
			if rt.Depth() != k*d {
				t.Fatalf("d=%d k=%d: depth=%d, want %d", d, k, rt.Depth(), k*d)
			}
			// B-nodes sit at layers divisible by k; count matches 2^(d+1)-1.
			bCount := 0
			for u := 0; u < st.G.N(); u++ {
				if st.BNodes[u] {
					bCount++
					if rt.Layer(u)%k != 0 {
						t.Fatalf("d=%d k=%d: B-node %d at layer %d", d, k, u, rt.Layer(u))
					}
				}
			}
			if bCount != (1<<(d+1))-1 {
				t.Fatalf("d=%d k=%d: %d B-nodes, want %d", d, k, bCount, (1<<(d+1))-1)
			}
		}
	}
}

func TestMaxStretchedDepth(t *testing.T) {
	tests := []struct {
		k, maxNodes, want int
	}{
		{k: 1, maxNodes: 3, want: 1}, // depth 1 tree has 3 nodes
		{k: 1, maxNodes: 6, want: 1}, // depth 2 tree has 7 nodes
		{k: 1, maxNodes: 7, want: 2},
		{k: 2, maxNodes: 5, want: 1}, // depth 1, k=2 has 5 nodes
		{k: 3, maxNodes: 3, want: 0}, // only the single node fits
	}
	for _, tt := range tests {
		if got := MaxStretchedDepth(tt.k, tt.maxNodes); got != tt.want {
			t.Fatalf("MaxStretchedDepth(%d, %d) = %d, want %d", tt.k, tt.maxNodes, got, tt.want)
		}
	}
	// Consistency: the returned depth fits, depth+1 does not.
	for k := 1; k <= 3; k++ {
		for maxNodes := 3; maxNodes <= 100; maxNodes += 7 {
			d := MaxStretchedDepth(k, maxNodes)
			if d < 0 {
				continue
			}
			if n := NewStretched(d, k).G.N(); n > maxNodes {
				t.Fatalf("k=%d max=%d: depth %d gives %d nodes", k, maxNodes, d, n)
			}
			if n := NewStretched(d+1, k).G.N(); n <= maxNodes {
				t.Fatalf("k=%d max=%d: depth %d would also fit (%d nodes)", k, maxNodes, d+1, n)
			}
		}
	}
}

func TestNewTreeStar(t *testing.T) {
	ts, err := NewTreeStar(1, 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.G.IsTree() {
		t.Fatal("tree star is not a tree")
	}
	// η <= n <= 3η/2 (Lemma D.9).
	if ts.G.N() < 30 || ts.G.N() > 45 {
		t.Fatalf("n = %d outside [30, 45]", ts.G.N())
	}
	if ts.SubtreeSize != 7 { // stretched k=1 d=2 tree has 7 nodes
		t.Fatalf("subtree size = %d, want 7", ts.SubtreeSize)
	}
	rt, err := tree.Root(ts.G, ts.Root)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Depth() != ts.Depth() || ts.Depth() != ts.DepthT+1 {
		t.Fatalf("depth mismatch: rooted %d, Depth() %d", rt.Depth(), ts.Depth())
	}
	if got := len(rt.Children(ts.Root)); got != ts.Copies {
		t.Fatalf("root has %d children, want %d copies", got, ts.Copies)
	}
}

func TestNewTreeStarErrors(t *testing.T) {
	if _, err := NewTreeStar(0, 5, 30); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewTreeStar(2, 4, 30); err == nil {
		t.Fatal("t < 2k+1 accepted")
	}
	if _, err := NewTreeStar(1, 10, 15); err == nil {
		t.Fatal("η < 2t+1 accepted")
	}
}

func TestGadgetShapes(t *testing.T) {
	f5 := NewFigure5(100)
	if f5.G.N() != 107 || !f5.G.IsTree() {
		t.Fatalf("figure5: n=%d tree=%v", f5.G.N(), f5.G.IsTree())
	}
	if f5.G.Degree(f5.A) != 102 {
		t.Fatalf("figure5 hub degree = %d, want 102", f5.G.Degree(f5.A))
	}

	f6 := NewFigure6()
	if f6.G.N() != 10 || f6.G.M() != 10 {
		t.Fatalf("figure6: %s", f6.G)
	}

	f7 := NewFigure7(5)
	if f7.G.N() != 16 || !f7.G.IsTree() {
		t.Fatalf("figure7: n=%d", f7.G.N())
	}
	if f7.AlphaNum() != 16 {
		t.Fatalf("figure7 α = %d, want 16", f7.AlphaNum())
	}

	f2 := NewFigure2()
	if f2.G.N() != 5 || f2.G.M() != 5 || len(f2.Owner) != 5 {
		t.Fatalf("figure2: %s owners=%d", f2.G, len(f2.Owner))
	}

	if g := Figure8(); g.N() != 5 || !g.IsTree() {
		t.Fatalf("figure8: %s", Figure8())
	}

	dd := NewDoubleDeep(4, 3)
	if dd.G.N() != 12 || !dd.G.IsTree() {
		t.Fatalf("doubledeep: %s", dd.G)
	}
	if len(dd.ArmA) != 4 || len(dd.ArmB) != 4 || len(dd.Leaves) != 3 {
		t.Fatal("doubledeep arms/leaves wrong")
	}
}

func TestWitnessShapes(t *testing.T) {
	if st := SwapTree(); st.N() != 10 || !st.IsTree() {
		t.Fatalf("swap tree: %s", SwapTree())
	}
	k24 := CompleteBipartite(2, 4)
	if k24.N() != 6 || k24.M() != 8 {
		t.Fatalf("K_{2,4}: %s", k24)
	}
	if tc := ThreeCoalitionTree(); tc.N() != 7 || !tc.IsTree() {
		t.Fatalf("three-coalition tree: %s", ThreeCoalitionTree())
	}
}
