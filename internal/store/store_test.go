package store

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/eq"
)

// testRecords returns n distinct, valid certificates of varied shape:
// bounded and unbounded, with open and closed endpoints.
func testRecords(n int) []CertRecord {
	recs := make([]CertRecord, 0, n)
	for i := 0; i < n; i++ {
		loNum, loDen := int64(i%7), int64(i%3+1)
		iv := ival(loNum, loDen, i%4 == 1, 0, 0, false)
		if i%2 == 1 {
			iv = ival(loNum, loDen, i%4 == 1, loNum+loDen, loDen, i%4 == 3)
		}
		recs = append(recs, CertRecord{
			Canon:   string([]byte{0, 1, byte(i), byte(i >> 8)}),
			Concept: eq.Concept(i%9 + 1),
			Set:     setOf(iv),
		})
	}
	return recs
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func dump(s *Store) []CertRecord {
	var recs []CertRecord
	s.RangeCerts(func(r CertRecord) bool { recs = append(recs, r); return true })
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key().less(recs[j].Key()) })
	return recs
}

// TestStoreRoundTrip: records written to a store come back identical after
// reopening, across shards and flush batches.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(1000)
	s := mustOpen(t, dir, Options{Shards: 4, FlushEvery: 64})
	for _, r := range recs {
		if err := s.PutCert(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(recs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	got := dump(s)
	want := testRecords(1000)
	sort.Slice(want, func(i, j int) bool { return want[i].Key().less(want[j].Key()) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store holds %d records, want %d identical ones", len(got), len(want))
	}
	if st := s.Stats(); st.RecoveredBytes != 0 || st.Segments != 4 {
		t.Fatalf("clean reopen stats: %+v", st)
	}
	// Shards were recorded in META.json; the Options{} default of 8 must
	// not have resharded the store.
	if n := len(s.segs); n != 4 {
		t.Fatalf("reopen resharded to %d segments", n)
	}
}

// TestStoreCrashSafetyTruncatedTail: a segment cut mid-record — the torn
// tail a crash leaves behind — recovers cleanly: every fully written
// record survives, the damage is truncated away, and the store accepts
// appends again.
func TestStoreCrashSafetyTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(100)
	s := mustOpen(t, dir, Options{Shards: 1, FlushEvery: 1})
	for _, r := range recs {
		if err := s.PutCert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-00.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the final record's frame.
	cut := int64(len(data) - 3)
	if err := os.Truncate(seg, cut); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, Options{})
	if got, want := s.Len(), len(recs)-1; got != want {
		t.Fatalf("recovered %d records, want %d (all but the torn one)", got, want)
	}
	st := s.Stats()
	if st.RecoveredBytes == 0 {
		t.Fatal("recovery did not report truncated bytes")
	}
	// The torn record can be re-put and the file must end clean again.
	if err := s.PutCert(recs[len(recs)-1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != len(recs) {
		t.Fatalf("after repair: %d records, want %d", s.Len(), len(recs))
	}
	if st := s.Stats(); st.RecoveredBytes != 0 {
		t.Fatalf("second reopen still recovering: %+v", st)
	}
}

// TestStoreCrashSafetyGarbageTail: random garbage appended after valid
// frames (torn page writes) is truncated away without losing records.
func TestStoreCrashSafetyGarbageTail(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(10)
	s := mustOpen(t, dir, Options{Shards: 1})
	for _, r := range recs {
		if err := s.PutCert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-00.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != len(recs) {
		t.Fatalf("recovered %d records, want %d", s.Len(), len(recs))
	}
	if st := s.Stats(); st.RecoveredBytes != 7 {
		t.Fatalf("recovered %d bytes, want 7", st.RecoveredBytes)
	}
}

// TestStoreConflictRejected: certificates are pure functions of their
// key, so a PutCert disagreeing with a held certificate must be refused,
// not recorded.
func TestStoreConflictRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	rec := certOn01("x", 1)
	if err := s.PutCert(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCert(rec); err != nil {
		t.Fatalf("idempotent re-put failed: %v", err)
	}
	bad := certOn01("x", 1)
	bad.Set = setOf(ival(0, 1, false, 1, 1, true))
	if err := s.PutCert(bad); err == nil {
		t.Fatal("conflicting certificate accepted")
	}
	if got, ok := s.GetCert(rec.Key()); !ok || !sameSet(got.Set, rec.Set) {
		t.Fatal("conflict clobbered the original certificate")
	}
}

// TestStoreCompact: duplicate frames on disk (written behind the store's
// back, as a crashed writer without warm-start could) are dropped by
// Compact, and the surviving content is unchanged.
func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(50)
	s := mustOpen(t, dir, Options{Shards: 2})
	for _, r := range recs {
		if err := s.PutCert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Append raw duplicate frames directly to a segment.
	seg := filepath.Join(dir, "seg-00.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r := recs[0]
		if s.shardOf(r.Canon) != s.segs[0] {
			r = recs[1]
		}
		if _, err := f.Write(encodeCertFrame(r)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	before := s.Stats()
	if before.DuplicateFrames != 10 {
		t.Fatalf("open counted %d duplicate frames, want 10", before.DuplicateFrames)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.DiskBytes >= before.DiskBytes {
		t.Fatalf("compaction did not shrink: %d -> %d bytes", before.DiskBytes, after.DiskBytes)
	}
	if after.DuplicateFrames != 0 || after.Records != len(recs) {
		t.Fatalf("post-compaction stats: %+v", after)
	}
	got := dump(s)
	if len(got) != len(recs) {
		t.Fatalf("compaction changed the record count: %d", len(got))
	}
}

// TestStoreLock: a second live opener is refused; a lock left by a dead
// process is stolen.
func TestStoreLock(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second opener acquired a held lock")
	}
	s.Close()
	// A LOCK file nobody flocks — what a crashed (or kill -9'd) writer
	// leaves behind — must not block the next opener.
	if err := os.WriteFile(filepath.Join(dir, "LOCK"), []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	s.Close()
}

// TestStoreFlushDurability: records flushed explicitly are durable even
// when the store is never closed (the crash-consistency contract Flush
// advertises).
func TestStoreFlushDurability(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(10)
	s := mustOpen(t, dir, Options{FlushEvery: 1000})
	for _, r := range recs {
		if err := s.PutCert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: drop the store without Close. Closing the file
	// descriptors also drops the kernel flock, exactly as process death
	// would.
	s.closeFiles()
	s.releaseLock()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if s2.Len() != len(recs) {
		t.Fatalf("flushed records lost: %d of %d survive", s2.Len(), len(recs))
	}
}

// TestStoreOpenRejectsConflictingFrames: two durable frames disagreeing
// on one key — a state PutCert refuses to write — fail Open loudly
// instead of silently serving a possibly-wrong certificate.
func TestStoreOpenRejectsConflictingFrames(t *testing.T) {
	dir := t.TempDir()
	rec := certOn01("x", 1)
	s := mustOpen(t, dir, Options{Shards: 1})
	if err := s.PutCert(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "seg-00.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec.Set = setOf(ival(0, 1, false, 1, 1, true))
	if _, err := f.Write(encodeCertFrame(rec)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("conflicting store opened: %v", err)
	}
	// The failed Open must not leave its lock held: a retry must fail on
	// the conflict again, not on the lock.
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("failed Open left the lock held: %v", err)
	}
}

// TestStoreReadOnly: a read-only open works alongside a live writer (no
// lock), sees the flushed records, repairs nothing, and refuses writes.
func TestStoreReadOnly(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	if err := w.PutCert(certOn01("x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// The writer still holds the lock; a read-only open must succeed.
	r, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("read-only open sees %d records, want 1", r.Len())
	}
	if err := r.PutCert(certOn01("y", 1)); err == nil {
		t.Fatal("read-only PutCert accepted")
	}
	if err := r.Compact(); err == nil {
		t.Fatal("read-only Compact accepted")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing the reader must not release the writer's lock.
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("reader Close released the writer's lock")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Read-only on a nonexistent store is an error, not a creation.
	if _, err := Open(filepath.Join(dir, "nope"), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open created a store")
	}
}
