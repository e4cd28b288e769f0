package core

import (
	"fmt"
	"math"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/tree"
)

// VerifyLemma314 checks the key 3-BSE invariant (Lemma 3.14) on a concrete
// tree: rooted at a 1-median, every node has at most one child c with
// depth(T_c) > 2·⌈4α/n⌉ + 1. The experiments run it over checker-verified
// 3-BSE trees, turning the lemma into a measured invariant; the checks of
// Lemmas 3.3–3.5 live in the package tests.
func VerifyLemma314(g *graph.Graph, alpha game.Alpha) error {
	rt, err := tree.RootAtMedian(g)
	if err != nil {
		return err
	}
	threshold := 2*int(math.Ceil(4*alpha.Float()/float64(g.N()))) + 1
	for u := 0; u < g.N(); u++ {
		deep := 0
		for _, c := range rt.Children(u) {
			if rt.SubtreeDepth(c) > threshold {
				deep++
			}
		}
		if deep > 1 {
			return fmt.Errorf("core: lemma 3.14 violated at node %d: %d children deeper than %d",
				u, deep, threshold)
		}
	}
	return nil
}
