package graph

import "math/bits"

// IncDist maintains all-pairs shortest-path distances of a Graph under
// single edge toggles. It is the distance state of the large-n dynamics
// engine: each committed move toggles an edge or two, and recomputing n
// BFS trees per commit throws the bitset kernel's speed away. IncDist
// instead repairs only the rows the toggle can change. Candidate moves
// never mutate it: the engine prices a purchase from two Row reads (an
// endpoint's post-purchase row is the elementwise min of its own row and
// 1 + the other endpoint's row), and a removal or swap with one
// aggregate-only BFS per actor on the toggled Graph, which it restores
// before any kernel call.
//
// Per source s it keeps the distance row dist[s][·] plus two aggregates —
// the finite-distance sum and the unreachable count — which are exactly
// the ingredients of game.Cost, so agent costs read in O(1) (SUM variant)
// or one row scan (MAX variant).
//
// Repair strategy. Toggling (u,v) changes d(s,t) only if s and t lie on
// opposite sides of the edge: s in U = {x : d(x,v) changes} and t in
// V = {x : d(x,u) changes}, or the reverse. (If d(s,t) changes, some
// shortest s–t path before or after the toggle runs s…u–v…t; a shortest
// s–v path avoiding the edge would extend along v…t to a shortest s–t
// path avoiding it too.) U and V are disjoint and both read off rows u
// and v, because distances are symmetric. Rows outside U ∪ V are never
// visited, and every changed pair is written into both of its rows.
//
//   - Edge added (u,v): before the insertion, U = {x : d(x,u)+1 < d(x,v)}
//     and V = {x : d(x,v)+1 < d(x,u)}. For s in U and t in V the new
//     distance is the closed form min(d(s,t), d(s,u)+1+d(v,t)); the
//     product loop runs over the rows of the smaller side and mirrors each
//     improvement into the other side's row.
//   - Edge removed (u,v): snapshot rows u and v, repair both by
//     Ramalingam–Reps, and read U and V as the entries that changed. Then
//     repair only the rows of the smaller side, and copy each repaired
//     entry into the column of every row on the larger side — including
//     entries that became unreachable. Ramalingam–Reps per row: if the
//     far endpoint keeps another support neighbor one level down, nothing
//     changes. Otherwise discover the affected set in old-level order (a
//     vertex is affected iff it has no unaffected neighbor one level
//     down), then recompute it with a bucket-queue unit-weight Dijkstra
//     seeded from the unaffected boundary; vertices never finalized
//     became unreachable.
//
// If the affected set of a row's removal repair outgrows max(n/16, 4)
// vertices, the row falls back to one fresh BFSScratchInto — bounded
// worst case, incremental common case. A sweep of this budget against
// RemoveEdge time put n/16 at or near the best from n = 128 to 600
// (EXPERIMENTS.md). The floor keeps graphs below 64 nodes, where n/16 is
// under 4, repairing short cascades incrementally. Stats() reports the
// repair/fallback split.
type IncDist struct {
	g *Graph
	n int

	back    []int32   // n×n distance backing array
	rows    [][]int32 // rows[s][v] = d_G(s,v), incNoDist when unreachable
	sum     []int64   // per-source finite-distance sum
	unreach []int32   // per-source unreachable count

	threshold int // removal affected-set size that triggers a full-row fallback

	// scratch, reused across repairs
	sideU    []int32   // U: vertices whose distance to v the toggle changes
	sideV    []int32   // V: vertices whose distance to u the toggle changes
	snapU    []int32   // row u before a removal
	snapV    []int32   // row v before a removal
	buckets  [][]int32 // level buckets shared by both removal phases
	pending  []bool    // phase-1 queue membership
	aff      []bool    // affected marks
	done     []bool    // phase-2 finalized marks
	newd     []int32   // phase-2 tentative distances
	affList  []int32   // affected vertices, discovery order
	dscratch []int     // BFSScratchInto target for fallbacks
	bfs      BFSScratch

	stats IncStats
}

// IncStats counts the rows the edge toggles repaired, split into
// incremental repairs and full-row fallbacks. A repaired row is one whose
// changed entries the kernel computed: per addition, the rows of the
// smaller side; per removal, rows u and v plus the other rows of the
// smaller side. Entries mirrored into the larger side's rows are not
// repairs, so Repairs+Fallbacks is at most 1+min(|U|,|V|) per toggle.
type IncStats struct {
	Repairs   uint64 // rows repaired incrementally
	Fallbacks uint64 // rows recomputed from scratch (removal affected set over budget)
}

const incNoDist = int32(Unreachable)

// NewIncDist computes full APSP state for g (n BFS passes) and returns a
// kernel tracking it. From here on the graph may only change through the
// returned IncDist: a toggle made on the graph directly leaves the kernel
// stale, and must be undone before the next IncDist call.
func NewIncDist(g *Graph) *IncDist {
	n := g.N()
	d := &IncDist{
		g:         g,
		n:         n,
		threshold: max(n/16, 4),
		back:      make([]int32, n*n),
		rows:      make([][]int32, n),
		sum:       make([]int64, n),
		unreach:   make([]int32, n),
		buckets:   make([][]int32, n+2),
		pending:   make([]bool, n),
		aff:       make([]bool, n),
		done:      make([]bool, n),
		newd:      make([]int32, n),
		affList:   make([]int32, 0, n),
		dscratch:  make([]int, n),
	}
	// The side lists and row snapshots share one allocation.
	scratch := make([]int32, 4*n)
	d.sideU, d.sideV = scratch[:0:n], scratch[n:n:2*n]
	d.snapU, d.snapV = scratch[2*n:3*n:3*n], scratch[3*n:]
	for s := 0; s < n; s++ {
		d.rows[s] = d.back[s*n : (s+1)*n : (s+1)*n]
		d.recomputeRow(s)
	}
	d.stats = IncStats{} // init passes are not fallbacks
	return d
}

// N returns the number of vertices.
func (d *IncDist) N() int { return d.n }

// Row returns the live distance row of s. Read-only, invalidated by the
// next mutation.
func (d *IncDist) Row(s int) []int32 { return d.rows[s] }

// SumDist returns the sum of finite distances from s.
func (d *IncDist) SumDist(s int) int64 { return d.sum[s] }

// UnreachableFrom returns how many vertices s cannot reach.
func (d *IncDist) UnreachableFrom(s int) int { return int(d.unreach[s]) }

// MaxDist returns the maximum finite distance from s (the eccentricity on
// the reachable part; 0 for an isolated vertex).
func (d *IncDist) MaxDist(s int) int64 {
	var m int32
	for _, dv := range d.rows[s] {
		if dv > m {
			m = dv
		}
	}
	return int64(m)
}

// Stats returns repair/fallback counters since construction.
func (d *IncDist) Stats() IncStats { return d.stats }

// AddEdge inserts (u,v) and repairs the rows it changes. Reports whether
// the edge was absent.
func (d *IncDist) AddEdge(u, v int) bool {
	if !d.g.AddEdge(u, v) {
		return false
	}
	// Rows u and v still hold the old distances. U are the vertices the
	// new edge brings closer to v (through u), V those it brings closer
	// to u; incNoDist compares as +inf.
	ru, rv := d.rows[u], d.rows[v]
	side, other := d.sideU[:0], d.sideV[:0]
	for x := range d.n {
		du, dv := ru[x], rv[x]
		switch {
		case du != incNoDist && (dv == incNoDist || du+1 < dv):
			side = append(side, int32(x))
		case dv != incNoDist && (du == incNoDist || dv+1 < du):
			other = append(other, int32(x))
		}
	}
	d.sideU, d.sideV = side, other
	if len(other) < len(side) {
		side, other, ru, rv = other, side, rv, ru
	}
	// d'(s,t) = min(d(s,t), d(s,u)+1+d(v,t)) for s on u's side and t on
	// v's. The product writes only pairs across the sides, so the reads
	// ru[s] and rv[t] (pairs within one side) stay old.
	for _, s := range side {
		row := d.rows[s]
		via := ru[s] + 1
		for _, t := range other {
			nd := via + rv[t]
			if old := row[t]; old == incNoDist || nd < old {
				d.setDist(int(s), int(t), nd)
				d.setDist(int(t), int(s), nd)
			}
		}
	}
	d.stats.Repairs += uint64(len(side))
	return true
}

// RemoveEdge deletes (u,v) and repairs the rows it changes. Reports
// whether the edge was present.
func (d *IncDist) RemoveEdge(u, v int) bool {
	if !d.g.RemoveEdge(u, v) {
		return false
	}
	copy(d.snapU, d.rows[u])
	copy(d.snapV, d.rows[v])
	d.removeRepair(u, u, v)
	d.removeRepair(v, u, v)
	ru, rv := d.rows[u], d.rows[v]
	side, other := d.sideU[:0], d.sideV[:0]
	for x := range d.n {
		switch {
		case rv[x] != d.snapV[x]:
			side = append(side, int32(x))
		case ru[x] != d.snapU[x]:
			other = append(other, int32(x))
		}
	}
	d.sideU, d.sideV = side, other
	done := u
	if len(other) < len(side) {
		side, other, done = other, side, v
	}
	for _, s := range side {
		if int(s) != done {
			d.removeRepair(int(s), u, v)
		}
	}
	// Mirror: every changed pair straddles the sides, and the small side's
	// rows now hold it.
	for _, t := range other {
		row := d.rows[t]
		for _, s := range side {
			if nd := d.rows[s][t]; row[s] != nd {
				d.setDist(int(t), int(s), nd)
			}
		}
	}
	return true
}

// recomputeRow refreshes row s and its aggregates with one fresh BFS.
func (d *IncDist) recomputeRow(s int) {
	d.g.BFSScratchInto(s, d.dscratch, &d.bfs)
	row := d.rows[s]
	var sum int64
	var un int32
	for v, dv := range d.dscratch {
		row[v] = int32(dv)
		if dv == Unreachable {
			un++
		} else {
			sum += int64(dv)
		}
	}
	d.sum[s] = sum
	d.unreach[s] = un
	d.stats.Fallbacks++
}

// setDist writes row[v] = nd, which differs from the old entry, keeping
// the aggregates in sync. Either value may be incNoDist.
func (d *IncDist) setDist(s, v int, nd int32) {
	row := d.rows[s]
	switch old := row[v]; {
	case old == incNoDist:
		d.unreach[s]--
		d.sum[s] += int64(nd)
	case nd == incNoDist:
		d.unreach[s]++
		d.sum[s] -= int64(old)
	default:
		d.sum[s] += int64(nd - old)
	}
	row[v] = nd
}

// hasSupport reports whether x has an unaffected neighbor at level lvl in
// row s — a parent that still certifies x's current distance.
func (d *IncDist) hasSupport(s, x int, lvl int32) bool {
	row := d.rows[s]
	g := d.g
	if g.bits != nil {
		for wi, w := range g.bits[x] {
			base := wi << 6
			for ; w != 0; w &= w - 1 {
				y := base + bits.TrailingZeros64(w)
				if row[y] == lvl && !d.aff[y] {
					return true
				}
			}
		}
		return false
	}
	for _, y := range g.neigh[x] {
		if row[y] == lvl && !d.aff[y] {
			return true
		}
	}
	return false
}

// removeRepair fixes row s after (u,v) was deleted from the graph. Row s
// must be one the deletion changes, so the endpoint farther from s lost
// its only parent: the edge.
func (d *IncDist) removeRepair(s, u, v int) {
	row := d.rows[s]
	w := u
	if row[v] > row[u] {
		w = v
	}
	d.cascade(s, w, row[w])
}

// bucketPush appends x to the level bucket l.
func (d *IncDist) bucketPush(l int32, x int32) {
	d.buckets[l] = append(d.buckets[l], x)
}

// cascade runs the two Ramalingam–Reps phases for row s after w (old level
// dw) lost its last support parent.
func (d *IncDist) cascade(s, w int, dw int32) {
	row := d.rows[s]
	g := d.g

	// Phase 1: discover the affected set in old-level order. buckets[l]
	// holds candidates whose old level is l; a candidate is affected iff
	// it has no unaffected neighbor one level down, and an affected vertex
	// recruits its neighbors one level up. Level-l verdicts are final
	// before level l+1 is examined, so one pass suffices.
	d.affList = d.affList[:0]
	d.bucketPush(dw, int32(w))
	d.pending[w] = true
	queued := 1
	maxL := dw
	overBudget := false
phase1:
	for l := dw; queued > 0 && int(l) < len(d.buckets); l++ {
		bkt := d.buckets[l]
		for i := 0; i < len(bkt); i++ {
			x := int(bkt[i])
			queued--
			d.pending[x] = false
			if d.hasSupport(s, x, l-1) {
				continue
			}
			d.aff[x] = true
			d.affList = append(d.affList, int32(x))
			if len(d.affList) > d.threshold {
				overBudget = true
				break phase1
			}
			next := l + 1
			if g.bits != nil {
				for wi, wd := range g.bits[x] {
					base := wi << 6
					for ; wd != 0; wd &= wd - 1 {
						y := base + bits.TrailingZeros64(wd)
						if row[y] == next && !d.aff[y] && !d.pending[y] {
							d.pending[y] = true
							d.bucketPush(next, int32(y))
							queued++
							if next > maxL {
								maxL = next
							}
						}
					}
				}
			} else {
				for _, y := range g.neigh[x] {
					if row[y] == next && !d.aff[y] && !d.pending[y] {
						d.pending[y] = true
						d.bucketPush(next, int32(y))
						queued++
						if next > maxL {
							maxL = next
						}
					}
				}
			}
		}
		d.buckets[l] = bkt[:0]
	}
	if overBudget {
		// Clear every mark the aborted discovery left behind, then give
		// the row one fresh BFS.
		for l := dw; l <= maxL; l++ {
			for _, x := range d.buckets[l] {
				d.pending[x] = false
			}
			d.buckets[l] = d.buckets[l][:0]
		}
		for _, x := range d.affList {
			d.aff[x] = false
		}
		d.affList = d.affList[:0]
		d.recomputeRow(s)
		return
	}

	// Phase 2: bucket-queue unit-weight Dijkstra over the affected set,
	// seeded from the unaffected boundary (whose distances are final).
	inf := int32(d.n)
	queued = 0
	minL := inf
	for _, xi := range d.affList {
		x := int(xi)
		best := inf
		if g.bits != nil {
			for wi, wd := range g.bits[x] {
				base := wi << 6
				for ; wd != 0; wd &= wd - 1 {
					y := base + bits.TrailingZeros64(wd)
					if !d.aff[y] && row[y] != incNoDist && row[y]+1 < best {
						best = row[y] + 1
					}
				}
			}
		} else {
			for _, y := range g.neigh[x] {
				if !d.aff[y] && row[y] != incNoDist && row[y]+1 < best {
					best = row[y] + 1
				}
			}
		}
		d.newd[x] = best
		if best < inf {
			d.bucketPush(best, xi)
			queued++
			if best < minL {
				minL = best
			}
		}
	}
	for l := minL; queued > 0 && int(l) < len(d.buckets); l++ {
		bkt := d.buckets[l]
		for i := 0; i < len(bkt); i++ {
			x := int(bkt[i])
			queued--
			if d.done[x] || d.newd[x] != l {
				continue // stale entry: x settled at a smaller level
			}
			d.done[x] = true
			d.setDist(s, x, l)
			cand := l + 1
			if g.bits != nil {
				for wi, wd := range g.bits[x] {
					base := wi << 6
					for ; wd != 0; wd &= wd - 1 {
						y := base + bits.TrailingZeros64(wd)
						if d.aff[y] && !d.done[y] && cand < d.newd[y] {
							d.newd[y] = cand
							d.bucketPush(cand, int32(y))
							queued++
						}
					}
				}
			} else {
				for _, y := range g.neigh[x] {
					if d.aff[y] && !d.done[y] && cand < d.newd[y] {
						d.newd[y] = cand
						d.bucketPush(cand, int32(y))
						queued++
					}
				}
			}
		}
		d.buckets[l] = bkt[:0]
	}
	// Never-finalized affected vertices fell off s's component.
	for _, xi := range d.affList {
		x := int(xi)
		if !d.done[x] {
			d.setDist(s, x, incNoDist)
		}
		d.aff[x] = false
		d.done[x] = false
	}
	d.affList = d.affList[:0]
	d.stats.Repairs++
}
