package store

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// Fault-injection harness (PR 6): a WriteSyncer wrapper whose write and
// sync paths fail on demand, installed via Options.WrapSegmentWriter.
// These tests drive the store's flush-error accounting and prove the
// retry path is durable — the properties /healthz's "degraded" status and
// the daemon's serve-stale behavior rest on.

type flakyWriter struct {
	WriteSyncer
	failWrites *atomic.Bool
	failSyncs  *atomic.Bool
}

var errInjected = errors.New("injected fault")

func (f *flakyWriter) Write(p []byte) (int, error) {
	if f.failWrites.Load() {
		return 0, errInjected
	}
	return f.WriteSyncer.Write(p)
}

func (f *flakyWriter) Sync() error {
	if f.failSyncs.Load() {
		return errInjected
	}
	return f.WriteSyncer.Sync()
}

func flakyStore(t *testing.T, dir string) (*Store, *atomic.Bool, *atomic.Bool) {
	t.Helper()
	var failWrites, failSyncs atomic.Bool
	s := mustOpen(t, dir, Options{
		Shards:     2,
		FlushEvery: 1 << 30, // flush only when asked
		WrapSegmentWriter: func(w WriteSyncer) WriteSyncer {
			return &flakyWriter{WriteSyncer: w, failWrites: &failWrites, failSyncs: &failSyncs}
		},
	})
	return s, &failWrites, &failSyncs
}

// TestStoreFlushWriteFailure: a failing segment write makes Flush error,
// is counted in Stats, keeps the records pending in memory (still
// readable — the daemon serves stale), and a retry after the fault heals
// lands every record durably.
func TestStoreFlushWriteFailure(t *testing.T) {
	dir := t.TempDir()
	s, failWrites, _ := flakyStore(t, dir)
	recs := testRecords(10)
	for _, r := range recs {
		if err := s.PutCert(r); err != nil {
			t.Fatal(err)
		}
	}

	failWrites.Store(true)
	if err := s.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("Flush with failing writes: err = %v, want injected fault", err)
	}
	st := s.Stats()
	if st.FlushFailures != 1 || !strings.Contains(st.LastFlushError, "injected") {
		t.Fatalf("failure not accounted: %+v", st)
	}
	if st.Pending != len(recs) {
		t.Fatalf("pending = %d after failed flush, want all %d retained", st.Pending, len(recs))
	}
	// Degraded, not down: every record still answers from memory.
	for _, r := range recs {
		if got, ok := s.GetCert(r.Key()); !ok || !sameSet(got.Set, r.Set) {
			t.Fatalf("record %v unreadable while flush is failing", r.Key())
		}
	}

	// A second failure keeps counting.
	if err := s.Flush(); err == nil {
		t.Fatal("second Flush unexpectedly succeeded")
	}
	if st := s.Stats(); st.FlushFailures != 2 {
		t.Fatalf("FlushFailures = %d, want 2", st.FlushFailures)
	}

	// Heal, retry, reopen: nothing was lost and no frame was torn.
	failWrites.Store(false)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("pending = %d after healed flush", st.Pending)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if got := dump(re); len(got) != len(recs) {
		t.Fatalf("reopened store holds %d records, want %d", len(got), len(recs))
	}
	if st := re.Stats(); st.RecoveredBytes != 0 {
		t.Fatalf("reopen truncated %d bytes — the failed flush tore a frame", st.RecoveredBytes)
	}
}

// TestStoreFlushSyncFailure: a failing fsync is counted as a flush
// failure and retried — the segment stays marked dirty so the next Flush
// syncs it even with nothing new pending.
func TestStoreFlushSyncFailure(t *testing.T) {
	s, _, failSyncs := flakyStore(t, t.TempDir())
	defer s.Close()
	for _, r := range testRecords(4) {
		if err := s.PutCert(r); err != nil {
			t.Fatal(err)
		}
	}
	failSyncs.Store(true)
	if err := s.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("Flush with failing fsync: err = %v", err)
	}
	if st := s.Stats(); st.FlushFailures != 1 {
		t.Fatalf("FlushFailures = %d, want 1", st.FlushFailures)
	}
	failSyncs.Store(false)
	if err := s.Flush(); err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
}

// TestStorePartialWriteRolledBack: a short write is truncated back to the
// last frame boundary before the error returns, so the retry appends
// whole frames — without the rollback, recovery at the torn frame would
// silently drop every record the retry wrote after it.
func TestStorePartialWriteRolledBack(t *testing.T) {
	dir := t.TempDir()
	var arm atomic.Bool
	s := mustOpen(t, dir, Options{
		Shards:     1,
		FlushEvery: 1 << 30,
		WrapSegmentWriter: func(w WriteSyncer) WriteSyncer {
			return writeSyncerFunc{w, &arm}
		},
	})
	recs := testRecords(6)
	for _, r := range recs {
		if err := s.PutCert(r); err != nil {
			t.Fatal(err)
		}
	}
	arm.Store(true)
	if err := s.Flush(); err == nil {
		t.Fatal("short write did not surface")
	}
	arm.Store(false)
	if err := s.Flush(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if st, got := re.Stats(), dump(re); len(got) != len(recs) || st.DuplicateFrames != 0 {
		t.Fatalf("after partial-write retry: %d records (want %d), %d duplicate frames (want 0)",
			len(got), len(recs), st.DuplicateFrames)
	}
}

// writeSyncerFunc writes half the buffer and fails when armed — a torn
// write mid-frame.
type writeSyncerFunc struct {
	WriteSyncer
	arm *atomic.Bool
}

func (w writeSyncerFunc) Write(p []byte) (int, error) {
	if w.arm.Load() {
		n, _ := w.WriteSyncer.Write(p[:len(p)/2])
		return n, errInjected
	}
	return w.WriteSyncer.Write(p)
}
