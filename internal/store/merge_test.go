package store

import (
	"strings"
	"testing"
)

func openShard(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestIngestFoldsShards: two shards with disjoint and overlapping-identical
// records merge into one store holding each record exactly once, with the
// overlap counted as folded duplicates.
func TestIngestFoldsShards(t *testing.T) {
	a, b, dst := openShard(t), openShard(t), openShard(t)
	// a: three certs. b: one cert disjoint, two certs identical to a's —
	// the shape a reclaimed lease produces.
	for _, c := range []CertRecord{certOn01("class-1", 2), certOn01("class-2", 2), certOn01("class-1", 3)} {
		if err := a.PutCert(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []CertRecord{certOn01("class-2", 2), certOn01("class-3", 2), certOn01("class-1", 3)} {
		if err := b.PutCert(c); err != nil {
			t.Fatal(err)
		}
	}

	sa, err := dst.Ingest(a)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Certificates != 3 || sa.Duplicates != 0 {
		t.Fatalf("first shard ingest stats %+v", sa)
	}
	sb, err := dst.Ingest(b)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Certificates != 1 || sb.Duplicates != 2 {
		t.Fatalf("second shard ingest stats %+v", sb)
	}
	if err := dst.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := dst.Stats(); st.Records != 4 {
		t.Fatalf("merged store stats %+v, want 4 certificates", st)
	}
	// Ingest into a store already holding everything is a pure fold.
	again, err := dst.Ingest(a)
	if err != nil {
		t.Fatal(err)
	}
	if again.Certificates != 0 || again.Duplicates != 3 {
		t.Fatalf("re-ingest stats %+v, want all duplicates", again)
	}
}

// TestIngestConflictFailsLoudly: a shard whose certificate contradicts the
// destination's (same key, different α set) must fail the merge with an
// error naming a conflict — determinism makes contradictions impossible
// for honest shards, so silence would bury corruption.
func TestIngestConflictFailsLoudly(t *testing.T) {
	src, dst := openShard(t), openShard(t)
	if err := dst.PutCert(certOn01("class-1", 2)); err != nil {
		t.Fatal(err)
	}
	bad := certOn01("class-1", 2)
	bad.Set = setOf(ival(0, 1, false, 2, 1, false))
	if err := src.PutCert(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Ingest(src); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("contradictory certificate merged silently (err=%v)", err)
	}
}

// TestSegmentStats: per-segment byte and record counts track appends,
// survive reopen, and sum to the store totals.
func TestSegmentStats(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := s.PutCert(certOn01(strings.Repeat("x", i+1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, label string) {
		t.Helper()
		segs := s.SegmentStats()
		if len(segs) != 2 {
			t.Fatalf("%s: %d segments, want 2", label, len(segs))
		}
		records, bytes := 0, int64(0)
		for _, seg := range segs {
			if seg.Name == "" {
				t.Fatalf("%s: unnamed segment %+v", label, seg)
			}
			records += seg.Records
			bytes += seg.Bytes
		}
		if records != 9 {
			t.Fatalf("%s: segment records sum to %d, want 9", label, records)
		}
		if want := s.Stats().DiskBytes; bytes != want {
			t.Fatalf("%s: segment bytes sum to %d, store reports %d", label, bytes, want)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "reopened")
}
