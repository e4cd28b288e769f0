package graph

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// checkAggregates pins BFSAggregates from every source of g to the
// aggregates of a full BFSScratchInto row.
func checkAggregates(t *testing.T, g *Graph, ctxt string) {
	t.Helper()
	n := g.N()
	dist := make([]int, n)
	var rowScratch, aggScratch BFSScratch
	for src := 0; src < n; src++ {
		g.BFSScratchInto(src, dist, &rowScratch)
		var wantSum int64
		wantUn, wantEcc := 0, 0
		for _, d := range dist {
			if d == Unreachable {
				wantUn++
				continue
			}
			wantSum += int64(d)
			wantEcc = max(wantEcc, d)
		}
		sum, un, ecc := g.BFSAggregates(src, &aggScratch)
		if sum != wantSum || un != wantUn || ecc != wantEcc {
			t.Fatalf("%s: n=%d src=%d: aggregates (sum %d, unreachable %d, ecc %d), want (%d, %d, %d)",
				ctxt, n, src, sum, un, ecc, wantSum, wantUn, wantEcc)
		}
	}
}

// TestBFSAggregatesMatchesBFS differentially checks the aggregate-only
// BFS against BFSScratchInto on all three kernel paths — one word (n <=
// 64), multi-word (65..MaxBitsetNodes) and neighbor lists (above
// MaxBitsetNodes) — on connected graphs, sparse disconnected graphs and
// graphs with isolated nodes.
func TestBFSAggregatesMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 5, 33, 64, 65, 130, MaxBitsetNodes, MaxBitsetNodes + 1, 700} {
		if n >= 2 {
			connected, err := RandomConnectedGraph(n, min(n+n/2, n*(n-1)/2), rng)
			if err != nil {
				t.Fatal(err)
			}
			checkAggregates(t, connected, "connected")
			path := New(n)
			for v := 1; v < n; v++ {
				path.AddEdge(v-1, v)
			}
			checkAggregates(t, path, "path")
		}
		sparse, err := RandomGNP(n, 1.2/float64(max(n, 2)), rng)
		if err != nil {
			t.Fatal(err)
		}
		if n > 2 && sparse.Connected() {
			t.Fatalf("n=%d: sparse graph is connected", n)
		}
		checkAggregates(t, sparse, "sparse")
		checkAggregates(t, New(n), "empty")
	}
}

// TestBFSAggregatesAllocFree pins the zero-allocation property of every
// aggregate path once the scratch has warmed up.
func TestBFSAggregatesAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{40, 130, MaxBitsetNodes + 1} {
		g, err := RandomConnectedGraph(n, 2*n, rng)
		if err != nil {
			t.Fatal(err)
		}
		var s BFSScratch
		g.BFSAggregates(0, &s)
		if allocs := testing.AllocsPerRun(20, func() {
			for src := 0; src < n; src += 7 {
				g.BFSAggregates(src, &s)
			}
		}); allocs != 0 {
			t.Errorf("n=%d: BFSAggregates allocates %v times per run, want 0", n, allocs)
		}
	}
}

// FuzzBFSAggregates decodes a node count (1..700, so every kernel path is
// reachable) and a toggle program — four bytes per vertex pair, optionally
// over a Hamiltonian path backbone — and checks BFSAggregates against
// BFSScratchInto from every source.
func FuzzBFSAggregates(f *testing.F) {
	f.Add(uint16(6), false, []byte{0, 0, 1, 0, 2, 0, 3, 0})
	f.Add(uint16(63), true, []byte{0, 0, 40, 0})
	f.Add(uint16(99), true, []byte{5, 0, 90, 0, 7, 0, 8, 0})
	f.Add(uint16(199), false, []byte("aggregate-only breadth-first search"))
	f.Add(uint16(599), true, []byte{0, 0, 0, 2, 1, 1, 44, 1})
	f.Fuzz(func(t *testing.T, nRaw uint16, backbone bool, program []byte) {
		n := int(nRaw)%700 + 1
		if len(program) > 256 {
			program = program[:256]
		}
		g := New(n)
		if backbone {
			for v := 1; v < n; v++ {
				g.AddEdge(v-1, v)
			}
		}
		for ; len(program) >= 4; program = program[4:] {
			u := int(binary.LittleEndian.Uint16(program)) % n
			v := int(binary.LittleEndian.Uint16(program[2:])) % n
			if !g.RemoveEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		checkAggregates(t, g, "fuzz")
	})
}
