package graph

import "math/bits"

// MaxBitsetNodes bounds the node count up to which a Graph maintains a
// dense bitset mirror of its adjacency. Below the bound every graph carries
// []uint64 rows (bit v of row u set iff uv is an edge) kept in lockstep
// with the sorted neighbor lists, enabling word-at-a-time BFS frontiers and
// O(1) edge queries. Above it — the 10^5-node families of Section 3.3 —
// the mirror would cost Θ(n²/64) memory, so only the O(n+m) neighbor lists
// are kept and all traversals fall back to them.
const MaxBitsetNodes = 512

// bitWords returns the number of 64-bit words per adjacency row.
func bitWords(n int) int { return (n + 63) / 64 }

// initBits allocates the bitset rows out of one flat backing array. Called
// by the constructors; rows start all-zero (no edges).
func (g *Graph) initBits() {
	if g.n == 0 || g.n > MaxBitsetNodes {
		return
	}
	g.words = bitWords(g.n)
	backing := make([]uint64, g.n*g.words)
	g.bits = make([][]uint64, g.n)
	for u := 0; u < g.n; u++ {
		g.bits[u] = backing[u*g.words : (u+1)*g.words : (u+1)*g.words]
	}
}

// BFSScratch holds the reusable buffers of BFSScratchInto, so hot loops
// (equilibrium checkers, sweeps) traverse without allocating. The zero
// value is ready to use; buffers grow to the largest graph seen and are
// then reused. A BFSScratch must not be shared between goroutines.
type BFSScratch struct {
	frontier, next, visited []uint64
	queue, dist             []int
}

// grow resizes a scratch word slice to length w, reusing capacity.
func growWords(s []uint64, w int) []uint64 {
	if cap(s) < w {
		return make([]uint64, w)
	}
	return s[:w]
}

// BFSScratchInto fills dist (length n) with hop distances from src,
// Unreachable for other components, using caller-owned scratch: the
// bitset kernel when the graph maintains one, the neighbor-list queue
// otherwise, allocating nothing once the scratch has warmed up to the
// graph size.
func (g *Graph) BFSScratchInto(src int, dist []int, s *BFSScratch) {
	if g.bits != nil {
		if g.words == 1 {
			g.bfsWord(src, dist)
			return
		}
		g.bfsWords(src, dist, s)
		return
	}
	// Neighbor-list fallback for graphs above MaxBitsetNodes, reusing the
	// scratch queue.
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	if cap(s.queue) < g.n {
		s.queue = make([]int, 0, g.n)
	}
	queue := s.queue[:0]
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.neigh[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
}

// BFSAggregates runs a BFS from src and returns only what an agent's
// cost needs: the sum of finite distances, the number of nodes src cannot
// reach, and the eccentricity on the reachable part (0 for an isolated
// node). The bitset kernels write no distances: each level adds
// level·|level| to the sum. Above MaxBitsetNodes it folds the scratch row
// that BFSScratchInto's neighbor-list queue fills. It allocates nothing
// once the scratch has warmed up.
func (g *Graph) BFSAggregates(src int, s *BFSScratch) (sum int64, unreachable, ecc int) {
	if g.bits != nil {
		if g.words == 1 {
			return g.aggWord(src)
		}
		return g.aggWords(src, s)
	}
	if cap(s.dist) < g.n {
		s.dist = make([]int, g.n)
	}
	dist := s.dist[:g.n]
	g.BFSScratchInto(src, dist, s)
	for _, d := range dist {
		if d == Unreachable {
			unreachable++
			continue
		}
		sum += int64(d)
		ecc = max(ecc, d)
	}
	return sum, unreachable, ecc
}

// aggWord is BFSAggregates on the single-word kernel (n <= 64).
func (g *Graph) aggWord(src int) (sum int64, unreachable, ecc int) {
	visited := uint64(1) << uint(src)
	for frontier := visited; ; ecc++ {
		var next uint64
		for f := frontier; f != 0; f &= f - 1 {
			next |= g.bits[bits.TrailingZeros64(f)][0]
		}
		if next &^= visited; next == 0 {
			return sum, g.n - bits.OnesCount64(visited), ecc
		}
		sum += int64(ecc+1) * int64(bits.OnesCount64(next))
		visited |= next
		frontier = next
	}
}

// aggWords is BFSAggregates on the multi-word kernel (64 < n <=
// MaxBitsetNodes), with frontiers in caller scratch.
func (g *Graph) aggWords(src int, s *BFSScratch) (sum int64, unreachable, ecc int) {
	w := g.words
	s.frontier = growWords(s.frontier, w)
	s.next = growWords(s.next, w)
	s.visited = growWords(s.visited, w)
	clear(s.frontier)
	clear(s.visited)
	s.frontier[src>>6] = 1 << uint(src&63)
	s.visited[src>>6] = s.frontier[src>>6]
	reached := 1
	for ; ; ecc++ {
		clear(s.next)
		for wi, fw := range s.frontier {
			for f := fw; f != 0; f &= f - 1 {
				row := g.bits[wi<<6|bits.TrailingZeros64(f)]
				for i, r := range row {
					s.next[i] |= r
				}
			}
		}
		level := 0
		for i := range s.next {
			s.next[i] &^= s.visited[i]
			s.visited[i] |= s.next[i]
			level += bits.OnesCount64(s.next[i])
		}
		if level == 0 {
			return sum, g.n - reached, ecc
		}
		sum += int64(ecc+1) * int64(level)
		reached += level
		s.frontier, s.next = s.next, s.frontier
	}
}

// bfsWord runs the single-word BFS kernel (n <= 64): the frontier, the
// visited set and every adjacency row are one uint64, so each level is a
// handful of OR/ANDN word operations plus TrailingZeros64 iteration over the
// newly reached nodes. It allocates nothing.
func (g *Graph) bfsWord(src int, dist []int) {
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	visited := uint64(1) << uint(src)
	frontier := visited
	d := 0
	for frontier != 0 {
		var next uint64
		for f := frontier; f != 0; f &= f - 1 {
			next |= g.bits[bits.TrailingZeros64(f)][0]
		}
		next &^= visited
		d++
		for t := next; t != 0; t &= t - 1 {
			dist[bits.TrailingZeros64(t)] = d
		}
		visited |= next
		frontier = next
	}
}

// bfsWords is the multi-word variant of bfsWord for 64 < n <=
// MaxBitsetNodes, with frontiers in caller scratch.
func (g *Graph) bfsWords(src int, dist []int, s *BFSScratch) {
	w := g.words
	s.frontier = growWords(s.frontier, w)
	s.next = growWords(s.next, w)
	s.visited = growWords(s.visited, w)
	for i := 0; i < w; i++ {
		s.frontier[i], s.visited[i] = 0, 0
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	s.frontier[src>>6] = 1 << uint(src&63)
	s.visited[src>>6] = s.frontier[src>>6]
	d := 0
	for {
		for i := 0; i < w; i++ {
			s.next[i] = 0
		}
		for wi := 0; wi < w; wi++ {
			for f := s.frontier[wi]; f != 0; f &= f - 1 {
				row := g.bits[wi<<6|bits.TrailingZeros64(f)]
				for i := 0; i < w; i++ {
					s.next[i] |= row[i]
				}
			}
		}
		d++
		any := false
		for i := 0; i < w; i++ {
			s.next[i] &^= s.visited[i]
			if s.next[i] != 0 {
				any = true
			}
			for t := s.next[i]; t != 0; t &= t - 1 {
				dist[i<<6|bits.TrailingZeros64(t)] = d
			}
			s.visited[i] |= s.next[i]
		}
		if !any {
			return
		}
		s.frontier, s.next = s.next, s.frontier
	}
}

// connectedWord reports connectivity with the single-word kernel: iterated
// closure of the reach set from node 0. Zero allocations.
func (g *Graph) connectedWord() bool {
	reach := uint64(1)
	for {
		next := reach
		for f := reach; f != 0; f &= f - 1 {
			next |= g.bits[bits.TrailingZeros64(f)][0]
		}
		if next == reach {
			return bits.OnesCount64(reach) == g.n
		}
		reach = next
	}
}
