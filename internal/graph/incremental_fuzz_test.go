package graph

import "testing"

// FuzzIncrementalDistance differentially pins the incremental kernel: an
// arbitrary byte string is decoded as a toggle program (each step flips
// one vertex pair), and after every prefix the IncDist rows and aggregates
// must equal a fresh BFSScratchInto of the same graph. nRaw below 0x80
// picks an empty graph on 2..17 vertices and one byte per step (a nibble
// per endpoint); from 0x80 up it picks a path on 65..80 vertices, so rows
// span two bitset words, and two bytes per step, at most 16 steps.
func FuzzIncrementalDistance(f *testing.F) {
	f.Add(uint8(5), []byte{0x01, 0x02, 0x01, 0x13, 0x42})
	f.Add(uint8(2), []byte{0x01, 0x01, 0x01})
	f.Add(uint8(9), []byte{0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x78, 0x08, 0x12})
	f.Add(uint8(16), []byte("incremental-apsp"))
	f.Add(uint8(0x80), []byte{63, 64, 0, 64, 10, 70, 63, 64})
	f.Add(uint8(0x8f), []byte("two-word rows"))
	f.Fuzz(func(t *testing.T, nRaw uint8, program []byte) {
		n := int(nRaw)%16 + 2 // 2..17 vertices
		wide := nRaw >= 0x80
		var pairs [][2]int
		if wide {
			n = int(nRaw)%16 + 65 // 65..80 vertices
			for i := 0; i+1 < len(program) && len(pairs) < 16; i += 2 {
				pairs = append(pairs, [2]int{int(program[i]) % n, int(program[i+1]) % n})
			}
		} else {
			for i := 0; i < len(program) && len(pairs) < 64; i++ {
				b := program[i]
				pairs = append(pairs, [2]int{int(b>>4) % n, int(b&0x0f) % n})
			}
		}
		g := New(n)
		if wide {
			for x := 1; x < n; x++ {
				g.AddEdge(x-1, x)
			}
		}
		d := NewIncDist(g)
		// Alternate thresholds across programs so both the incremental
		// cascade and the fallback recompute stay under differential test.
		if len(program) > 0 && program[0]&1 == 1 {
			d.threshold = 1
		}
		dist := make([]int, n)
		var bfs BFSScratch
		for step, p := range pairs {
			u, v := p[0], p[1]
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				if !d.RemoveEdge(u, v) {
					t.Fatalf("step %d: RemoveEdge(%d,%d) refused an existing edge", step, u, v)
				}
			} else {
				if !d.AddEdge(u, v) {
					t.Fatalf("step %d: AddEdge(%d,%d) refused a missing edge", step, u, v)
				}
			}
			for s := 0; s < n; s++ {
				g.BFSScratchInto(s, dist, &bfs)
				var sum int64
				var un int
				for x, dv := range dist {
					if got := int(d.rows[s][x]); got != dv {
						t.Fatalf("step %d: dist(%d,%d) = %d, want %d", step, s, x, got, dv)
					}
					if dv == Unreachable {
						un++
					} else {
						sum += int64(dv)
					}
				}
				if d.SumDist(s) != sum || d.UnreachableFrom(s) != un {
					t.Fatalf("step %d: aggregates of %d = (%d,%d), want (%d,%d)",
						step, s, d.SumDist(s), d.UnreachableFrom(s), sum, un)
				}
			}
		}
	})
}
