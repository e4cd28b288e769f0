package graph

import (
	"math"
	"math/rand"
	"testing"
)

// TestRandomGNPExtremes: p=0 is the empty graph, p=1 the complete graph,
// and out-of-range (or NaN) probabilities error.
func TestRandomGNPExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := RandomGNP(10, 0, rng)
	if err != nil || g.M() != 0 {
		t.Fatalf("p=0: m=%d err=%v", g.M(), err)
	}
	g, err = RandomGNP(10, 1, rng)
	if err != nil || g.M() != 45 {
		t.Fatalf("p=1: m=%d err=%v, want 45", g.M(), err)
	}
	if _, err := RandomGNP(5, 1.5, rng); err == nil {
		t.Fatal("p=1.5 accepted")
	}
	if _, err := RandomGNP(5, -0.1, rng); err == nil {
		t.Fatal("p=-0.1 accepted")
	}
	if _, err := RandomGNP(5, math.NaN(), rng); err == nil {
		t.Fatal("p=NaN accepted")
	}
}

// TestRandomGNPEdgeCount: the sampled edge count concentrates around
// p·C(n,2) — a 6σ binomial band over many samples.
func TestRandomGNPEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, p, samples = 30, 0.3, 200
	pairs := float64(n * (n - 1) / 2)
	var total float64
	for i := 0; i < samples; i++ {
		g, err := RandomGNP(n, p, rng)
		if err != nil {
			t.Fatal(err)
		}
		total += float64(g.M())
	}
	mean := total / samples
	want := p * pairs
	sigma := math.Sqrt(pairs*p*(1-p)) / math.Sqrt(samples)
	if math.Abs(mean-want) > 6*sigma {
		t.Fatalf("mean edge count %.2f, want %.2f ± %.2f", mean, want, 6*sigma)
	}
}

// TestRandomConnectedGNP: connected at every p, and exactly a spanning
// structure at the extremes (tree at p=0, clique at p=1).
func TestRandomConnectedGNP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, p := range []float64{0, 0.01, 0.05, 0.2, 0.8, 1} {
		for _, n := range []int{1, 2, 5, 17, 40} {
			g, err := RandomConnectedGNP(n, p, rng)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Connected() {
				t.Fatalf("n=%d p=%v: disconnected sample", n, p)
			}
			if p == 0 && n > 0 && g.M() != n-1 {
				t.Fatalf("n=%d p=0: m=%d, want spanning tree with %d", n, g.M(), n-1)
			}
			if p == 1 && g.M() != n*(n-1)/2 {
				t.Fatalf("n=%d p=1: m=%d, want clique", n, g.M())
			}
		}
	}
}

// TestRandomStar: n-1 leaves around one center, and every vertex shows up
// as the center over enough draws.
func TestRandomStar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 7
	centers := make(map[int]bool)
	for i := 0; i < 200; i++ {
		g := RandomStar(n, rng)
		if g.M() != n-1 {
			t.Fatalf("star has %d edges, want %d", g.M(), n-1)
		}
		center := -1
		for v := 0; v < n; v++ {
			switch g.Degree(v) {
			case n - 1:
				center = v
			case 1:
			default:
				t.Fatalf("degree(%d) = %d in a star", v, g.Degree(v))
			}
		}
		if center < 0 {
			t.Fatal("no center found")
		}
		centers[center] = true
	}
	if len(centers) != n {
		t.Fatalf("only %d/%d vertices ever drawn as center", len(centers), n)
	}
	if g := RandomStar(1, rng); g.M() != 0 || g.N() != 1 {
		t.Fatalf("degenerate star: %v", g)
	}
}

// TestRandomTreeCayley: OEIS-style count sanity — on n=4 labeled nodes
// there are exactly n^(n-2) = 16 trees (A000272), every one must appear
// over many Prüfer draws, and the empirical distribution must be close to
// uniform.
func TestRandomTreeCayley(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, samples = 4, 8000
	counts := make(map[string]int)
	for i := 0; i < samples; i++ {
		g := RandomTree(n, rng)
		if !g.IsTree() {
			t.Fatalf("sample %d is not a tree: %s", i, g)
		}
		counts[Encode(g)]++
	}
	if len(counts) != 16 {
		t.Fatalf("saw %d distinct labeled trees on n=4, want 16 (Cayley n^(n-2))", len(counts))
	}
	want := float64(samples) / 16
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("tree %q drawn %d times, want %.0f ± %.0f", k, c, want, 5*math.Sqrt(want))
		}
	}
}
