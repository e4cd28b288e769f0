package fleet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/sweep"
)

// gridOptions is the small grid every lease-table test plans over: n=4
// connected graphs, all concepts, one nominal α (certificates answer the
// whole axis anyway).
func gridOptions(n int) sweep.Options {
	return sweep.Options{
		N:        n,
		Alphas:   []game.Alpha{game.A(1)},
		Concepts: eq.Concepts(),
		Source:   sweep.Graphs,
	}
}

func mustPlan(t *testing.T, n, rangeSize int) *Table {
	t.Helper()
	tab, err := Plan(context.Background(), gridOptions(n), rangeSize)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestPlanCreateLoad: planning cuts the class stream into contiguous
// ranges covering [0, Classes) exactly; the table round-trips through
// Create/Load; a second Create refuses to replan over a live table.
func TestPlanCreateLoad(t *testing.T) {
	tab := mustPlan(t, 4, 2)
	classes, err := sweep.CountClasses(context.Background(), 4, sweep.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Classes != classes || classes == 0 {
		t.Fatalf("planned %d classes, stream has %d", tab.Classes, classes)
	}
	next := 0
	for i, r := range tab.Ranges {
		if r.Start != next || r.End <= r.Start || r.End-r.Start > 2 {
			t.Fatalf("range %d is [%d,%d), want contiguous from %d with size <= 2", i, r.Start, r.End, next)
		}
		if r.State != StatePending || r.Epoch != 0 {
			t.Fatalf("fresh range %d: %+v", i, r)
		}
		next = r.End
	}
	if next != classes {
		t.Fatalf("ranges cover [0,%d), stream has %d classes", next, classes)
	}

	dir := t.TempDir()
	if err := Create(dir, tab); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Classes != tab.Classes || len(back.Ranges) != len(tab.Ranges) || back.Version != TableVersion {
		t.Fatalf("reloaded table differs: %+v vs %+v", back, tab)
	}
	if err := Create(dir, tab); err == nil {
		t.Fatal("Create replanned over an existing lease table")
	}
}

// TestGridOptionsRoundTrip: a lease table's grid rebuilds the exact
// sweep options, including fractional α values and every concept name,
// and Matches compares grids, not progress or execution details.
func TestGridOptionsRoundTrip(t *testing.T) {
	opts := sweep.Options{
		N:        6,
		Alphas:   []game.Alpha{game.AFrac(1, 2), game.A(2), game.AFrac(9, 2)},
		Concepts: eq.Concepts(),
		Source:   sweep.Trees,
		Rho:      true,
	}
	g := gridOf(opts)
	back, err := g.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Alphas, opts.Alphas) ||
		!reflect.DeepEqual(back.Concepts, opts.Concepts) ||
		back.N != opts.N || back.Source != opts.Source || back.Rho != opts.Rho {
		t.Fatalf("round trip changed the grid: %+v vs %+v", back, opts)
	}
	opts.Workers = 8
	if !g.Matches(opts) {
		t.Fatal("worker count changed the grid")
	}
	opts.Rho = false
	if g.Matches(opts) {
		t.Fatal("grids differing in rho match")
	}
	g.Source = "lattices"
	if _, err := g.Options(); err == nil {
		t.Fatal("bad source accepted")
	}
}

// TestTableVersionGate pins the schema-version contract: an unversioned
// table (generation 0, whose grid also carries the "total"/"completed"
// progress keys of older writers) loads and rebuilds its grid, while a
// generation newer than TableVersion, on the table or on its grid, is
// refused instead of misread.
func TestTableVersionGate(t *testing.T) {
	legacy := `{
  "kind": "fleet",
  "grid": {"n": 5, "source": "graphs", "alphas": ["1/2", "3"], "concepts": ["BNE", "PS"], "rho": false, "total": 42, "completed": 17},
  "classes": 21,
  "range_size": 21,
  "ranges": [{"start": 0, "end": 21, "state": "pending"}]
}
`
	load := func(doc string) (*Table, error) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, TableFile), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return Load(dir)
	}
	tab, err := load(legacy)
	if err != nil {
		t.Fatalf("unversioned table refused: %v", err)
	}
	opts, err := tab.Grid.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.N != 5 || opts.Source != sweep.Graphs || len(opts.Concepts) != 2 ||
		!reflect.DeepEqual(opts.Alphas, []game.Alpha{game.AFrac(1, 2), game.A(3)}) {
		t.Fatalf("unversioned grid misread: %+v", opts)
	}
	for _, future := range []string{
		strings.Replace(legacy, `"kind"`, `"version": 4, "kind"`, 1),
		strings.Replace(legacy, `"n": 5`, `"version": 4, "n": 5`, 1),
	} {
		if _, err := load(future); err == nil || !strings.Contains(err.Error(), "newer") {
			t.Fatalf("future-generation table: err = %v", err)
		}
	}
}

// TestClaimCompleteLifecycle: claims drain the pending pool, completions
// mark ranges done, and a drained-and-done table reports Done.
func TestClaimCompleteLifecycle(t *testing.T) {
	dir := t.TempDir()
	tab := mustPlan(t, 4, 2)
	if err := Create(dir, tab); err != nil {
		t.Fatal(err)
	}
	var leases []Lease
	for {
		l, ok, err := Claim(dir, "w1", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		leases = append(leases, l)
	}
	if len(leases) != len(tab.Ranges) {
		t.Fatalf("claimed %d of %d ranges", len(leases), len(tab.Ranges))
	}
	mid, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if p := mid.Progress(); p.Leased != len(tab.Ranges) || p.Pending != 0 || p.Done != 0 {
		t.Fatalf("mid progress %+v", p)
	}
	if mid.Done() {
		t.Fatal("fully leased table reports Done")
	}
	for _, l := range leases {
		if err := Complete(dir, l); err != nil {
			t.Fatal(err)
		}
	}
	end, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !end.Done() {
		t.Fatalf("completed table not Done: %+v", end.Progress())
	}
	// Completing again with the now-stale lease is fenced off.
	if err := Complete(dir, leases[0]); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Complete: %v, want ErrLeaseLost", err)
	}
}

// manualClock stands a clock that moves only when advanced in for the
// lease clock until t ends, so expiry tests do not race the wall clock.
func manualClock(t *testing.T) (advance func(time.Duration)) {
	t.Helper()
	var mu sync.Mutex
	now := time.Now()
	clock = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	t.Cleanup(func() { clock = time.Now })
	return func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
}

// TestExpiryStealAndFencing is the fault-model test: a lease past its
// deadline is stolen by the next claimer with a bumped epoch, and every
// operation the previous owner attempts afterwards — heartbeat or
// completion — fails with ErrLeaseLost, even though that owner is still
// alive (the stalled-not-dead case epoch fencing exists for).
func TestExpiryStealAndFencing(t *testing.T) {
	advance := manualClock(t)
	dir := t.TempDir()
	if err := Create(dir, mustPlan(t, 4, 100)); err != nil {
		t.Fatal(err)
	}
	old, ok, err := Claim(dir, "stalled", 10*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	// Before expiry nobody can steal it.
	if _, ok, _ := Claim(dir, "thief", time.Minute); ok {
		t.Fatal("live lease stolen")
	}
	advance(20 * time.Millisecond)
	stolen, ok, err := Claim(dir, "thief", time.Minute)
	if err != nil || !ok {
		t.Fatalf("steal after expiry: ok=%v err=%v", ok, err)
	}
	if stolen.Index != old.Index || stolen.Epoch <= old.Epoch {
		t.Fatalf("steal got %+v, old was %+v", stolen, old)
	}
	if _, err := Heartbeat(dir, old, time.Minute); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stalled owner heartbeat: %v, want ErrLeaseLost", err)
	}
	if err := Complete(dir, old); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stalled owner complete: %v, want ErrLeaseLost", err)
	}
	// The thief's lease is sound: heartbeat extends, completion lands.
	advance(time.Second)
	extended, err := Heartbeat(dir, stolen, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !extended.Deadline.After(stolen.Deadline) {
		t.Fatalf("heartbeat did not extend: %v -> %v", stolen.Deadline, extended.Deadline)
	}
	if err := Complete(dir, extended); err != nil {
		t.Fatal(err)
	}
	tab, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Ranges[old.Index].Reclaims != 1 {
		t.Fatalf("steal not counted: %+v", tab.Ranges[old.Index])
	}
}

// TestReclaimReturnsExpiredLeases: the coordinator's Reclaim moves only
// expired leases back to pending, bumping their epoch so the dead owner's
// lease can never complete.
func TestReclaimReturnsExpiredLeases(t *testing.T) {
	advance := manualClock(t)
	dir := t.TempDir()
	if err := Create(dir, mustPlan(t, 4, 2)); err != nil {
		t.Fatal(err)
	}
	dead, ok, err := Claim(dir, "dead", 10*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	live, ok, err := Claim(dir, "live", time.Minute)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	advance(20 * time.Millisecond)
	n, err := Reclaim(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reclaimed %d leases, want 1 (only the expired one)", n)
	}
	tab, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r := tab.Ranges[dead.Index]; r.State != StatePending || r.Reclaims != 1 || r.Epoch <= dead.Epoch {
		t.Fatalf("reclaimed range: %+v", r)
	}
	if r := tab.Ranges[live.Index]; r.State != StateLeased || r.Owner != "live" {
		t.Fatalf("live lease disturbed by Reclaim: %+v", r)
	}
	if err := Complete(dir, dead); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead owner completed a reclaimed range: %v", err)
	}
}

// TestConcurrentClaimersNoDoubleGrant races many claimers against one
// table (run under -race): with long TTLs, every range must be granted to
// exactly one claimer — the flock + read-modify-write discipline may never
// hand the same live lease to two owners.
func TestConcurrentClaimersNoDoubleGrant(t *testing.T) {
	dir := t.TempDir()
	tab := mustPlan(t, 5, 1) // one class per range: maximum contention
	if err := Create(dir, tab); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	granted := make(map[int]string)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		owner := string(rune('a' + w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				l, ok, err := Claim(dir, owner, time.Hour)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					return
				}
				mu.Lock()
				if prev, dup := granted[l.Index]; dup {
					t.Errorf("range %d granted to both %s and %s", l.Index, prev, owner)
				}
				granted[l.Index] = owner
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(granted) != len(tab.Ranges) {
		t.Fatalf("granted %d of %d ranges", len(granted), len(tab.Ranges))
	}
}
