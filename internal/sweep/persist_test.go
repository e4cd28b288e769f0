package sweep

import (
	"testing"

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
