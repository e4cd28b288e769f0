// PoA sweep: measure how the quality of worst-case equilibria changes with
// the edge price α and the amount of cooperation, reproducing the
// qualitative content of Table 1 on one screen.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	bncg "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Exhaustive worst-case ρ over all trees on 9 nodes, per concept.
	const n = 9
	concepts := []bncg.Concept{bncg.PS, bncg.BSwE, bncg.BGE, bncg.BNE, bncg.ThreeBSE}
	alphas := []int64{1, 2, 4, 9, 16, 36, 81}

	fmt.Printf("worst-case ρ over all trees, n=%d\n", n)
	fmt.Printf("%8s", "alpha")
	for _, c := range concepts {
		fmt.Printf(" %8s", c)
	}
	fmt.Println()
	// One cache across the table: each tree's stability certificate covers
	// every α, so only the first column certifies.
	cache := bncg.NewSweepCache()
	for _, a := range alphas {
		fmt.Printf("%8d", a)
		for _, c := range concepts {
			res, err := bncg.WorstTree(context.Background(), n, bncg.AlphaInt(a), c, cache)
			if err != nil {
				return err
			}
			if res.Equilibria == 0 {
				fmt.Printf(" %8s", "-")
				continue
			}
			fmt.Printf(" %8.3f", res.Rho)
		}
		fmt.Println()
	}
	fmt.Println()

	// The stretched tree star family: the Θ(log α) lower-bound curve for
	// BGE (Theorem 3.10), certified stable by the exact checkers.
	fmt.Println("stretched tree star family (Theorem 3.10, k=1, t=α/15, η=α):")
	fmt.Printf("%8s %6s %8s %14s\n", "alpha", "n", "rho", "upper 2+2logα")
	for _, a := range []int64{60, 120, 240, 480} {
		ts, err := bncg.NewTreeStar(1, float64(a)/15, int(a))
		if err != nil {
			return err
		}
		gm, err := bncg.NewGame(ts.G.N(), bncg.AlphaInt(a))
		if err != nil {
			return err
		}
		for _, c := range []bncg.Concept{bncg.RE, bncg.BAE, bncg.BSwE} {
			if res := bncg.Check(gm, ts.G, c); !res.Stable {
				return fmt.Errorf("family member α=%d unexpectedly unstable for %s: %v", a, c, res.Witness)
			}
		}
		rho, err := bncg.TreeRho(gm, ts.G)
		if err != nil {
			return err
		}
		upper := 2 + 2*math.Log2(float64(a))
		fmt.Printf("%8d %6d %8.3f %14.3f\n", a, ts.G.N(), rho, upper)
	}
	return nil
}
