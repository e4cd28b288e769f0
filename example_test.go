package bncg_test

import (
	"context"
	"fmt"

	bncg "repro"
)

// Checking a network against the solution-concept ladder.
func ExampleCheck() {
	gm, err := bncg.NewGame(6, bncg.AlphaInt(3))
	if err != nil {
		fmt.Println(err)
		return
	}
	star := bncg.Star(6)
	fmt.Println("star PS: ", bncg.Check(gm, star, bncg.PS).Stable)
	fmt.Println("star BSE:", bncg.Check(gm, star, bncg.BSE).Stable)

	path := bncg.Path(6)
	res := bncg.Check(gm, path, bncg.BAE)
	fmt.Println("path BAE:", res.Stable, "—", res.Witness)
	// Output:
	// star PS:  true
	// star BSE: true
	// path BAE: false — add(0-4)
}

// Exact rational edge prices avoid floating-point ties; the paper's
// α = 104.5 is representable directly.
func ExampleAlpha2() {
	alpha := bncg.Alpha2(209, 2)
	fmt.Println(alpha)
	// Output:
	// 209/2
}

// The social cost ratio ρ compares a network against the social optimum.
func ExampleGame_Rho() {
	gm, err := bncg.NewGame(8, bncg.AlphaInt(2))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("star: %.3f\n", gm.Rho(bncg.Star(8)))
	fmt.Printf("path: %.3f\n", gm.Rho(bncg.Path(8)))
	// Output:
	// star: 1.000
	// path: 1.556
}

// Exhaustive worst-case Price of Anarchy over all trees.
func ExampleWorstTree() {
	res, err := bncg.WorstTree(context.Background(), 8, bncg.AlphaInt(8), bncg.ThreeBSE, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("3-BSE trees on 8 nodes at α=8: worst ρ = %.3f over %d equilibria\n",
		res.Rho, res.Equilibria)
	// Output:
	// 3-BSE trees on 8 nodes at α=8: worst ρ = 1.219 over 18 equilibria
}
