package fleet

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/sweep"
)

// referenceStore runs the grid in-process (no fleet) and returns the
// directory of the store its certificates were persisted to: the ground
// truth every fleet run must reproduce exactly.
func referenceStore(t *testing.T, opts sweep.Options) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := sweep.NewCache()
	cache.Persist(st)
	opts.Cache = cache
	if _, err := sweep.Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	cache.Persist(nil)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func openStore(t *testing.T, dir string, readonly bool) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{ReadOnly: readonly})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// mergeShards folds the given shard directories into a fresh store and
// returns its directory plus the accumulated ingest stats.
func mergeShards(t *testing.T, shards ...string) (string, store.IngestStats) {
	t.Helper()
	dir := t.TempDir()
	dst, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total store.IngestStats
	for _, shard := range shards {
		src := openStore(t, shard, true)
		st, err := dst.Ingest(src)
		if err != nil {
			t.Fatalf("ingest %s: %v", shard, err)
		}
		total.Certificates += st.Certificates
		total.Duplicates += st.Duplicates
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, total
}

// sameRecords asserts two stores hold identical certificate sets,
// compared field-by-field in canonical order. This is the
// merged-equals-single-process guarantee.
func sameRecords(t *testing.T, gotDir, wantDir string) {
	t.Helper()
	got, want := openStore(t, gotDir, true), openStore(t, wantDir, true)
	certs := func(s *store.Store) []store.CertRecord {
		var recs []store.CertRecord
		s.RangeCerts(func(r store.CertRecord) bool { recs = append(recs, r); return true })
		slices.SortFunc(recs, func(a, b store.CertRecord) int {
			if c := strings.Compare(a.Canon, b.Canon); c != 0 {
				return c
			}
			return int(a.Concept) - int(b.Concept)
		})
		return recs
	}
	gc, wc := certs(got), certs(want)
	if len(wc) == 0 {
		t.Fatal("reference store holds no certificates")
	}
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("certificate sets differ: %d vs %d records", len(gc), len(wc))
	}
}

// TestWorkerRejectsZeroHeartbeatPeriod: a TTL under 3ns leaves a zero
// heartbeat period TTL/3, which must be an error rather than a ticker
// panic once the worker holds a lease.
func TestWorkerRejectsZeroHeartbeatPeriod(t *testing.T) {
	dir := t.TempDir()
	tab, err := Plan(context.Background(), gridOptions(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Create(dir, tab); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, filepath.Join(dir, ShardsDir, "w"), false)
	_, err = RunWorker(context.Background(), WorkerOptions{Dir: dir, Owner: "w", Store: st, TTL: 2 * time.Nanosecond})
	if err == nil || !strings.Contains(err.Error(), "heartbeat") {
		t.Fatalf("RunWorker with TTL 2ns: err = %v, want a heartbeat-period error", err)
	}
}

// TestTwoWorkerFleetMatchesSingleProcess is the acceptance test: two
// worker processes' worth of RunWorker loops race over the full n=5
// connected-graphs grid, their shards merge without conflict, and the
// merged store is record-identical to a single-process sweep of the same
// grid. Run under -race, this also exercises claim/heartbeat concurrency.
func TestTwoWorkerFleetMatchesSingleProcess(t *testing.T) {
	grid := gridOptions(5)
	dir := t.TempDir()
	tab, err := Plan(context.Background(), grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Ranges) < 2 {
		t.Fatalf("grid too small to share: %d ranges", len(tab.Ranges))
	}
	if err := Create(dir, tab); err != nil {
		t.Fatal(err)
	}

	shards := []string{
		filepath.Join(dir, ShardsDir, "w1"),
		filepath.Join(dir, ShardsDir, "w2"),
	}
	var wg sync.WaitGroup
	stats := make([]WorkerStats, len(shards))
	errs := make([]error, len(shards))
	for i, shard := range shards {
		st, err := store.Open(shard, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.Close()
			stats[i], errs[i] = RunWorker(context.Background(), WorkerOptions{
				Dir:   dir,
				Owner: filepath.Base(shard),
				Store: st,
				TTL:   5 * time.Second,
				Poll:  20 * time.Millisecond,
			})
		}()
	}
	wg.Wait()
	ranges, classes := 0, 0
	for i := range shards {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		ranges += stats[i].Ranges
		classes += stats[i].Classes
	}
	if ranges != len(tab.Ranges) || classes != tab.Classes {
		t.Fatalf("workers completed %d ranges / %d classes, table has %d / %d",
			ranges, classes, len(tab.Ranges), tab.Classes)
	}
	final, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done() {
		t.Fatalf("fleet not done: %+v", final.Progress())
	}

	merged, _ := mergeShards(t, shards...)
	sameRecords(t, merged, referenceStore(t, grid))
}

// TestWorkerDeathMidLeaseIsRecovered kills a worker mid-lease — it claims
// a range, certifies it into its shard, and dies without completing — and
// checks the fleet still converges: the survivor steals the expired lease,
// re-certifies the range, and the merge folds the dead worker's partial
// shard into pure duplicates. The merged store is still record-identical
// to the single-process reference.
func TestWorkerDeathMidLeaseIsRecovered(t *testing.T) {
	grid := gridOptions(5)
	dir := t.TempDir()
	tab, err := Plan(context.Background(), grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Create(dir, tab); err != nil {
		t.Fatal(err)
	}

	// The victim: claim with a short TTL, do the work, die before
	// completing. Its shard holds the range's certificates; the table
	// still shows the range leased.
	victimShard := filepath.Join(dir, ShardsDir, "victim")
	victim, ok, err := Claim(dir, "victim", 50*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("victim claim: ok=%v err=%v", ok, err)
	}
	vst, err := store.Open(victimShard, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vcache := sweep.NewCache()
	vcache.Persist(vst)
	vopts := grid
	vopts.ClassStart, vopts.ClassEnd = victim.Start, victim.End
	vopts.Cache = vcache
	if _, err := sweep.Run(context.Background(), vopts); err != nil {
		t.Fatal(err)
	}
	vcache.Persist(nil)
	if err := vst.Close(); err != nil {
		t.Fatal(err)
	}
	// No Complete: the victim is dead. Let the lease expire.
	time.Sleep(60 * time.Millisecond)

	survivorShard := filepath.Join(dir, ShardsDir, "survivor")
	sst, err := store.Open(survivorShard, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunWorker(context.Background(), WorkerOptions{
		Dir:   dir,
		Owner: "survivor",
		Store: sst,
		TTL:   time.Second,
		Poll:  20 * time.Millisecond,
	})
	if cerr := sst.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	// The survivor must have done every range, including the stolen one.
	if stats.Ranges != len(tab.Ranges) || stats.Classes != tab.Classes {
		t.Fatalf("survivor completed %d ranges / %d classes, want %d / %d",
			stats.Ranges, stats.Classes, len(tab.Ranges), tab.Classes)
	}
	final, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done() {
		t.Fatalf("fleet not done after recovery: %+v", final.Progress())
	}
	if final.Ranges[victim.Index].Reclaims != 1 {
		t.Fatalf("victim's range not recorded as stolen: %+v", final.Ranges[victim.Index])
	}

	merged, total := mergeShards(t, victimShard, survivorShard)
	if total.Duplicates == 0 {
		t.Fatal("victim's partial work produced no fold-able duplicates")
	}
	sameRecords(t, merged, referenceStore(t, grid))
}

// TestPreviousTableCompletes: a lease table written by the previous
// binary, whose grid still carries the "total"/"completed" progress keys,
// loads as the same grid, a worker completes it into a shard equal to a
// single-process sweep, and the rewritten table keeps its version and
// field names and drops only those two keys.
func TestPreviousTableCompletes(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("testdata", "fleet_n4.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, TableFile), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	grid := gridOptions(4)
	if !tab.Grid.Matches(grid) {
		t.Fatalf("previous table's grid %+v does not match %+v", tab.Grid, grid)
	}
	shard := filepath.Join(dir, ShardsDir, "w")
	st, err := store.Open(shard, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunWorker(context.Background(), WorkerOptions{Dir: dir, Owner: "w", Store: st, TTL: 5 * time.Second})
	if cerr := st.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ranges != len(tab.Ranges) || stats.Classes != tab.Classes {
		t.Fatalf("worker completed %d ranges / %d classes, table has %d / %d",
			stats.Ranges, stats.Classes, len(tab.Ranges), tab.Classes)
	}
	final, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done() || final.Version != TableVersion || final.Grid.Version != TableVersion {
		t.Fatalf("completed table: done=%v version=%d grid version=%d", final.Done(), final.Version, final.Grid.Version)
	}
	var before, after map[string]any
	rewritten, err := os.ReadFile(filepath.Join(dir, TableFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rewritten, &after); err != nil {
		t.Fatal(err)
	}
	oldGrid := before["grid"].(map[string]any)
	delete(oldGrid, "total")
	delete(oldGrid, "completed")
	if !reflect.DeepEqual(oldGrid, after["grid"]) {
		t.Fatalf("grid rewritten as %v, want %v", after["grid"], oldGrid)
	}
	for k := range before {
		if _, ok := after[k]; !ok {
			t.Fatalf("rewritten table lost the %q key", k)
		}
	}
	sameRecords(t, shard, referenceStore(t, grid))
}
