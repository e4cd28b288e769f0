package graph

// SideSizes returns |U| and |V| of the last toggle d committed: the rows
// it changed (see IncDist).
func SideSizes(d *IncDist) (nu, nv int) { return len(d.sideU), len(d.sideV) }
