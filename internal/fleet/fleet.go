// Package fleet implements lease-based work distribution for sweeps that
// outgrow one process: a coordinator shards the symmetry-pruned class
// stream into contiguous [start, end) ranges and persists them in a lease
// table; any number of independent worker processes claim ranges, certify
// the classes with the parametric engine, and append certificates to their
// own store shards; a merge step folds the shards into one canonical
// store. The n=7 connected-graph sweep (853 classes × 9 concepts) is the
// workload this exists for.
//
// The lease table, fleet.json, holds the sweep's grid spec and per-range
// ownership — owner, heartbeat deadline, epoch, completion state — for a
// fleet of processes sharing a directory. Every mutation is an atomic
// read-modify-write under an flock(2) held on fleet.lock, so claims are
// race-free across processes on one filesystem, and the table file itself
// is replaced atomically (temp file + fsync + rename) so a crash
// mid-write never corrupts it.
//
// Fault model. A worker that dies mid-lease simply stops heartbeating; its
// lease expires and the range becomes claimable again (by any worker, or
// explicitly via the coordinator's Reclaim). Every reclaim increments the
// range's epoch, which fences the previous owner: its Heartbeat and
// Complete calls fail with ErrLeaseLost, so a paused-but-alive worker
// cannot mark a range done after losing it. Re-running a reclaimed range
// is always sound — certificates are deterministic pure functions of
// (class, concept), so the original owner's partial shard and the new
// owner's full shard agree wherever they overlap, and the store merge
// folds the duplicates (and would fail loudly on the contradictions that
// determinism makes impossible).
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/sweep"
)

const (
	// TableFile is the lease table's file name within a fleet directory.
	TableFile = "fleet.json"
	// lockFile serializes table mutations across processes.
	lockFile = "fleet.lock"
	// ShardsDir is the conventional subdirectory under which workers place
	// their store shards when not told otherwise — the coordinator's merge
	// step globs it.
	ShardsDir = "shards"
)

// Range states.
const (
	StatePending = "pending" // never claimed, or reclaimed after expiry
	StateLeased  = "leased"  // owned by a worker with a live deadline
	StateDone    = "done"    // certified and durable in the owner's shard
)

// ErrLeaseLost reports that a lease operation was fenced off: the range
// was reclaimed (epoch advanced) or completed by another owner since the
// caller claimed it. The caller must stop working the range; whatever it
// already appended to its shard is harmless duplicate work.
var ErrLeaseLost = errors.New("fleet: lease lost")

// clock is the time source lease deadlines are set and judged against.
// Tests substitute a manual clock so a lease expires exactly when they
// say, not when the host's file syncs happen to allow.
var clock = time.Now

// Range is one contiguous slice [Start, End) of the pruned class stream
// and its lease state.
type Range struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	State string `json:"state"`
	// Owner identifies the worker holding (or, once done, having held) the
	// lease.
	Owner string `json:"owner,omitempty"`
	// Epoch counts grants of this range. It fences stale owners: every
	// lease operation must present the epoch it was granted, and a reclaim
	// advances it.
	Epoch int `json:"epoch,omitempty"`
	// Deadline is the heartbeat expiry; past it a leased range is
	// claimable by anyone.
	Deadline time.Time `json:"deadline,omitempty"`
	// Reclaims counts expiry reclaims — non-zero means a worker died (or
	// stalled past its TTL) while holding this range.
	Reclaims int `json:"reclaims,omitempty"`
}

// TableVersion is the current schema generation of the lease table and
// of its grid spec. Generation history:
//
//	0 — (absent field) the unversioned grid spec; accepted on load.
//	2 — the first versioned generation.
//	3 — adds the game-variant descriptor. Version-2 grids load as the
//	    default variant (the field is omitted there); version-3 tables
//	    are rejected by older binaries, which cannot evaluate the variant
//	    they describe.
//
// Loading rejects generations newer than this binary understands, so an
// old worker cannot silently misread a future coordinator's table.
const TableVersion = 3

// Grid is the sweep grid a lease table slices into ranges: every field of
// sweep.Options that decides which certificates a run produces, with the
// α and concept grids stored as their exact string forms.
type Grid struct {
	Version  int      `json:"version,omitempty"`
	N        int      `json:"n"`
	Source   string   `json:"source"`
	Alphas   []string `json:"alphas"`
	Concepts []string `json:"concepts"`
	Variant  string   `json:"variant,omitempty"`
	Rho      bool     `json:"rho"`
}

// gridOf captures the grid of opts.
func gridOf(opts sweep.Options) Grid {
	g := Grid{
		Version: TableVersion,
		N:       opts.N,
		Source:  opts.Source.String(),
		Variant: opts.Variant.Key(),
		Rho:     opts.Rho,
	}
	for _, a := range opts.Alphas {
		g.Alphas = append(g.Alphas, a.String())
	}
	for _, c := range opts.Concepts {
		g.Concepts = append(g.Concepts, c.String())
	}
	return g
}

// Matches reports whether opts describes the same grid as g.
func (g Grid) Matches(opts sweep.Options) bool {
	o := gridOf(opts)
	return g.N == o.N && g.Source == o.Source && g.Variant == o.Variant && g.Rho == o.Rho &&
		slices.Equal(g.Alphas, o.Alphas) && slices.Equal(g.Concepts, o.Concepts)
}

// Options rebuilds the sweep options the grid describes. Worker count,
// cache and hooks are execution details, not grid spec, and are left zero
// for the caller to fill in.
func (g Grid) Options() (sweep.Options, error) {
	opts := sweep.Options{N: g.N, Rho: g.Rho}
	if g.Variant != "" {
		v, err := game.ParseVariant(g.Variant)
		if err != nil {
			return sweep.Options{}, fmt.Errorf("fleet: grid variant: %w", err)
		}
		opts.Variant = v
	}
	switch g.Source {
	case sweep.Graphs.String():
		opts.Source = sweep.Graphs
	case sweep.Trees.String():
		opts.Source = sweep.Trees
	default:
		return sweep.Options{}, fmt.Errorf("fleet: grid with unknown source %q", g.Source)
	}
	for _, s := range g.Alphas {
		a, err := game.ParseAlpha(s)
		if err != nil {
			return sweep.Options{}, fmt.Errorf("fleet: grid alpha: %w", err)
		}
		opts.Alphas = append(opts.Alphas, a)
	}
	for _, s := range g.Concepts {
		c, err := eq.ParseConcept(s)
		if err != nil {
			return sweep.Options{}, fmt.Errorf("fleet: grid concept: %w", err)
		}
		opts.Concepts = append(opts.Concepts, c)
	}
	return opts, nil
}

// Table is the durable lease table of one fleet run.
type Table struct {
	// Version is the schema generation (TableVersion); Kind marks the
	// document as a lease table.
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// Grid is the sweep every range is a slice of. Workers take the grid
	// from here, not from flags, so a fleet cannot mix grids.
	Grid Grid `json:"grid"`
	// Classes is the total class count of the stream; RangeSize the
	// planned classes per range (the last range may be shorter).
	Classes   int     `json:"classes"`
	RangeSize int     `json:"range_size"`
	Ranges    []Range `json:"ranges"`
}

// tableKind is the Kind value of a lease table.
const tableKind = "fleet"

// Lease is a worker's claim on one range: the handle every subsequent
// lease operation must present.
type Lease struct {
	Index      int
	Start, End int
	Owner      string
	Epoch      int
	Deadline   time.Time
	// Stolen reports that this claim took over an expired lease from
	// another owner (the range's Reclaims was bumped) — surfaced as a
	// "steal" trace event and a sidecar counter by the worker.
	Stolen bool
}

// Progress summarizes a table's state.
type Progress struct {
	Pending, Leased, Done int
	// Classes counts the classes of done ranges; Reclaims sums the
	// expiry reclaims across ranges.
	Classes  int
	Reclaims int
}

// Plan builds the lease table for a sweep: it counts the classes of the
// pruned stream and cuts them into ⌈classes/rangeSize⌉ contiguous ranges.
// opts supplies the grid (N, Source, Alphas, Concepts, Rho); execution
// details are ignored.
func Plan(ctx context.Context, opts sweep.Options, rangeSize int) (*Table, error) {
	if rangeSize < 1 {
		return nil, fmt.Errorf("fleet: range size must be positive, got %d", rangeSize)
	}
	classes, err := sweep.CountClasses(ctx, opts.N, opts.Source)
	if err != nil {
		return nil, err
	}
	if classes == 0 {
		return nil, fmt.Errorf("fleet: empty class stream for n=%d source=%s", opts.N, opts.Source)
	}
	t := &Table{
		Version:   TableVersion,
		Kind:      tableKind,
		Grid:      gridOf(opts),
		Classes:   classes,
		RangeSize: rangeSize,
	}
	for start := 0; start < classes; start += rangeSize {
		end := min(start+rangeSize, classes)
		t.Ranges = append(t.Ranges, Range{Start: start, End: end, State: StatePending})
	}
	return t, nil
}

// Progress summarizes the table.
func (t *Table) Progress() Progress {
	var p Progress
	for _, r := range t.Ranges {
		switch r.State {
		case StatePending:
			p.Pending++
		case StateLeased:
			p.Leased++
		case StateDone:
			p.Done++
			p.Classes += r.End - r.Start
		}
		p.Reclaims += r.Reclaims
	}
	return p
}

// Done reports whether every range is complete.
func (t *Table) Done() bool {
	for _, r := range t.Ranges {
		if r.State != StateDone {
			return false
		}
	}
	return true
}

// validate rejects tables this binary cannot safely interpret.
func (t *Table) validate() error {
	if v := max(t.Version, t.Grid.Version); v > TableVersion {
		return fmt.Errorf("fleet: table schema version %d is newer than this binary's %d", v, TableVersion)
	}
	if t.Kind != tableKind {
		return fmt.Errorf("fleet: %s holds a %q document, not a lease table", TableFile, t.Kind)
	}
	if len(t.Ranges) == 0 {
		return fmt.Errorf("fleet: lease table with no ranges")
	}
	return nil
}

// Create writes the lease table into dir, failing if one already exists —
// re-running a coordinator against a planned fleet must Load and resume,
// not silently replan ranges out from under live workers.
func Create(dir string, t *Table) error {
	if err := t.validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	unlock, err := lockDir(dir)
	if err != nil {
		return err
	}
	defer unlock()
	if _, err := os.Stat(filepath.Join(dir, TableFile)); err == nil {
		return fmt.Errorf("fleet: %s already holds a lease table", dir)
	} else if !os.IsNotExist(err) {
		return err
	}
	return writeTable(dir, t)
}

// Load reads the lease table of dir.
func Load(dir string) (*Table, error) {
	data, err := os.ReadFile(filepath.Join(dir, TableFile))
	if err != nil {
		return nil, err
	}
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("fleet: corrupt lease table: %w", err)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Claim grants the caller the first claimable range: pending, or leased
// past its deadline (a direct steal, so workers make progress even with no
// coordinator running to Reclaim). ok is false when nothing is claimable —
// every range is done or soundly leased.
func Claim(dir, owner string, ttl time.Duration) (Lease, bool, error) {
	var lease Lease
	ok := false
	err := mutate(dir, func(t *Table) (bool, error) {
		now := clock()
		for i := range t.Ranges {
			r := &t.Ranges[i]
			stolen := false
			switch {
			case r.State == StatePending:
			case r.State == StateLeased && now.After(r.Deadline):
				r.Reclaims++
				stolen = true
			default:
				continue
			}
			r.State = StateLeased
			r.Owner = owner
			r.Epoch++
			r.Deadline = now.Add(ttl)
			lease = Lease{Index: i, Start: r.Start, End: r.End, Owner: owner, Epoch: r.Epoch, Deadline: r.Deadline, Stolen: stolen}
			ok = true
			return true, nil
		}
		return false, nil
	})
	return lease, ok, err
}

// Heartbeat extends a lease's deadline by ttl. It fails with ErrLeaseLost
// when the lease was fenced off (reclaimed or completed by someone else);
// the worker must then abandon the range.
func Heartbeat(dir string, l Lease, ttl time.Duration) (Lease, error) {
	err := mutate(dir, func(t *Table) (bool, error) {
		r, err := t.held(l)
		if err != nil {
			return false, err
		}
		r.Deadline = clock().Add(ttl)
		l.Deadline = r.Deadline
		return true, nil
	})
	return l, err
}

// Complete marks a leased range done. The caller must have made the
// range's results durable (store Flush) first: Complete is the point after
// which no one will ever run these classes again. It fails with
// ErrLeaseLost when the lease was fenced off — the caller's durable work
// is then harmless overlap for the merge to fold.
func Complete(dir string, l Lease) error {
	return mutate(dir, func(t *Table) (bool, error) {
		r, err := t.held(l)
		if err != nil {
			return false, err
		}
		r.State = StateDone
		r.Deadline = time.Time{}
		return true, nil
	})
}

// held resolves the range of a lease, verifying the caller still owns it.
func (t *Table) held(l Lease) (*Range, error) {
	if l.Index < 0 || l.Index >= len(t.Ranges) {
		return nil, fmt.Errorf("fleet: lease for range %d of %d", l.Index, len(t.Ranges))
	}
	r := &t.Ranges[l.Index]
	if r.State != StateLeased || r.Owner != l.Owner || r.Epoch != l.Epoch {
		return nil, fmt.Errorf("%w: range [%d,%d) now %s/owner=%q/epoch=%d", ErrLeaseLost, r.Start, r.End, r.State, r.Owner, r.Epoch)
	}
	return r, nil
}

// Reclaim returns every expired lease to pending — the coordinator's
// monitoring duty, making died-mid-lease ranges visible as pending again
// (workers could also steal them directly at Claim; Reclaim keeps the
// table honest in between). It returns the number reclaimed.
func Reclaim(dir string) (int, error) {
	n := 0
	err := mutate(dir, func(t *Table) (bool, error) {
		now := clock()
		for i := range t.Ranges {
			r := &t.Ranges[i]
			if r.State == StateLeased && now.After(r.Deadline) {
				r.State = StatePending
				r.Owner = ""
				r.Deadline = time.Time{}
				r.Epoch++ // fence the dead owner even before a re-grant
				r.Reclaims++
				n++
			}
		}
		return n > 0, nil
	})
	return n, err
}

// mutate runs one atomic read-modify-write of dir's lease table under the
// fleet lock. fn mutates the table in place and reports whether anything
// changed (an unchanged table is not rewritten).
func mutate(dir string, fn func(*Table) (bool, error)) error {
	unlock, err := lockDir(dir)
	if err != nil {
		return err
	}
	defer unlock()
	t, err := Load(dir)
	if err != nil {
		return err
	}
	changed, err := fn(t)
	if err != nil || !changed {
		return err
	}
	return writeTable(dir, t)
}

// writeTable atomically replaces dir's lease table: temp file, fsync,
// rename, directory sync — a crash leaves either the old table or the new
// one, never a torn mix.
func writeTable(dir string, t *Table) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, TableFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	_ = d.Sync() // best-effort, as elsewhere in the store
	return d.Close()
}

// lockDir takes the fleet lock: a blocking flock(2) on fleet.lock. The
// kernel releases it with the holder's process, so a crashed mutator never
// wedges the fleet. Critical sections are a JSON read-modify-write —
// microseconds — so blocking is fine.
func lockDir(dir string) (func(), error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: locking %s: %w", dir, err)
	}
	return func() { _ = f.Close() }, nil
}
