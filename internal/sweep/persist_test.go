package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/store"
)

// TestCachePersistRoundTrip: a sweep against a store-backed cache persists
// every computed certificate; a cold process (fresh cache warm-started from
// the reopened store) replays the identical sweep with zero misses and an
// observationally identical result.
func TestCachePersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	cache.Persist(st)
	cold := mustRun(t, latticeOptions(4, 4, cache))
	if cold.Misses == 0 {
		t.Fatal("cold sweep computed nothing")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, want := st2.Len(), cache.Len(); got != want {
		t.Fatalf("store persisted %d certificates, cache holds %d", got, want)
	}
	fresh := NewCache()
	if loaded := fresh.WarmStart(st2); loaded != st2.Len() {
		t.Fatalf("warm-started %d of %d certificates", loaded, st2.Len())
	}
	fresh.Persist(st2)
	warm := mustRun(t, latticeOptions(4, 4, fresh))
	if warm.Misses != 0 {
		t.Fatalf("warm-started sweep recomputed %d verdicts", warm.Misses)
	}
	if warm.Hits != int64(len(warm.Items)*len(warm.Concepts)) {
		t.Fatalf("warm-started sweep: %d hits, want all %d", warm.Hits, len(warm.Items)*len(warm.Concepts))
	}
	sameOutcome(t, cold, warm)
	// Replaying persisted certificates must not re-append them.
	if appended := st2.Stats().Appended; appended != 0 {
		t.Fatalf("warm replay re-appended %d records", appended)
	}
}

// TestCacheStatsCounters: Stats counts entries and lifetime hits/misses
// across sweeps (unlike the per-run Result counters).
func TestCacheStatsCounters(t *testing.T) {
	cache := NewCache()
	cold := mustRun(t, latticeOptions(4, 2, cache))
	warm := mustRun(t, latticeOptions(4, 2, cache))
	st := cache.Stats()
	if st.Entries != cache.Len() {
		t.Fatalf("Stats.Entries = %d, Len = %d", st.Entries, cache.Len())
	}
	if st.Hits != cold.Hits+warm.Hits || st.Misses != cold.Misses+warm.Misses {
		t.Fatalf("lifetime counters (%d, %d) don't sum the runs (%d+%d, %d+%d)",
			st.Hits, st.Misses, cold.Hits, warm.Hits, cold.Misses, warm.Misses)
	}
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}
}

// TestCheckpointOptionsRoundTrip: a checkpoint rebuilds the exact grid
// spec, including fractional α values and every concept name.
func TestCheckpointOptionsRoundTrip(t *testing.T) {
	opts := Options{
		N:        6,
		Alphas:   []game.Alpha{game.AFrac(1, 2), game.A(2), game.AFrac(9, 2)},
		Concepts: eq.Concepts(),
		Source:   Trees,
		Rho:      true,
	}
	cp := NewCheckpoint(opts, 42, 17)
	if cp.Total != 42 || cp.Completed != 17 {
		t.Fatalf("checkpoint progress: %+v", cp)
	}
	back, err := cp.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Alphas, opts.Alphas) ||
		!reflect.DeepEqual(back.Concepts, opts.Concepts) ||
		back.N != opts.N || back.Source != opts.Source || back.Rho != opts.Rho {
		t.Fatalf("round trip changed the grid: %+v vs %+v", back, opts)
	}
	cp.Source = "lattices"
	if _, err := cp.Options(); err == nil {
		t.Fatal("bad source accepted")
	}
}

// TestLegacyCheckpointMigration pins the schema-version contract: the
// unversioned checkpoint JSON that PR 3–6 binaries wrote (no "version"
// field) must still load and -resume cleanly as generation 0, the next
// save upgrades it to the current generation, and a checkpoint from a
// future generation is rejected instead of misread.
func TestLegacyCheckpointMigration(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Byte-for-byte the shape an unversioned binary persisted.
	legacy := []byte(`{
  "n": 5,
  "source": "graphs",
  "alphas": ["1/2", "3"],
  "concepts": ["BNE", "PS"],
  "rho": false,
  "total": 42,
  "completed": 17
}
`)
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	var cp Checkpoint
	ok, err := st.LoadCheckpoint(&cp)
	if err != nil || !ok {
		t.Fatalf("legacy checkpoint load: ok=%v err=%v", ok, err)
	}
	if cp.Version != 0 {
		t.Fatalf("legacy checkpoint decoded with version %d, want 0", cp.Version)
	}
	opts, err := cp.Options()
	if err != nil {
		t.Fatalf("legacy checkpoint refused: %v", err)
	}
	if opts.N != 5 || opts.Source != Graphs || len(opts.Alphas) != 2 || len(opts.Concepts) != 2 {
		t.Fatalf("legacy grid misread: %+v", opts)
	}
	if opts.Alphas[0] != game.AFrac(1, 2) || opts.Alphas[1] != game.A(3) {
		t.Fatalf("legacy alphas misread: %v", opts.Alphas)
	}

	// The first save after migration stamps the current generation.
	if err := st.SaveCheckpoint(NewCheckpoint(opts, 42, 20)); err != nil {
		t.Fatal(err)
	}
	var upgraded Checkpoint
	if ok, err := st.LoadCheckpoint(&upgraded); err != nil || !ok {
		t.Fatalf("upgraded checkpoint load: ok=%v err=%v", ok, err)
	}
	if upgraded.Version != CheckpointVersion {
		t.Fatalf("saved checkpoint has version %d, want %d", upgraded.Version, CheckpointVersion)
	}
	if _, err := upgraded.Options(); err != nil {
		t.Fatal(err)
	}

	// A generation from the future must fail loudly, not be misread.
	future := upgraded
	future.Version = CheckpointVersion + 1
	if _, err := future.Options(); err == nil {
		t.Fatal("future-generation checkpoint accepted")
	}
}
