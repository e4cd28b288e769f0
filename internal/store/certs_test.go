package store

import "testing"

func certOn01(canon string, concept uint8) CertRecord {
	// Stable exactly on [0, 1]: the K_n Remove-Equilibrium shape.
	return CertRecord{Canon: canon, Concept: concept, Intervals: []Interval{
		{LoNum: 0, LoDen: 1, HiNum: 1, HiDen: 1},
	}}
}

// TestStoreCertRoundTrip: certificates persist, survive reopen, and are
// counted; malformed ones are refused.
func TestStoreCertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cert := certOn01("canon-a", 3)
	if err := s.PutCert(cert); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Records != 1 || st.Appended != 1 {
		t.Fatalf("stats %+v, want 1 certificate", st)
	}
	// Idempotent re-put; conflicting re-put rejected.
	if err := s.PutCert(cert); err != nil {
		t.Fatal(err)
	}
	bad := certOn01("canon-a", 3)
	bad.Intervals[0].HiOpen = true
	if err := s.PutCert(bad); err == nil {
		t.Fatal("conflicting certificate accepted")
	}
	// Malformed certificates are refused at Put: anything Validate lets
	// through must decode on reopen and rebuild into an eq.AlphaSet, so
	// empty, inverted, out-of-order, touching-closed and out-of-range
	// shapes all fail loudly here instead of at a later warm-start.
	for name, ivs := range map[string][]Interval{
		"empty":           {{LoNum: 5, LoDen: 1, HiNum: 5, HiDen: 1, HiOpen: true}},
		"inverted":        {{LoNum: 5, LoDen: 1, HiNum: 1, HiDen: 1}},
		"out of order":    {{LoNum: 2, LoDen: 1, HiNum: 3, HiDen: 1}, {LoNum: 0, LoDen: 1, HiNum: 1, HiDen: 1}},
		"touching closed": {{LoNum: 0, LoDen: 1, HiNum: 1, HiDen: 1}, {LoNum: 1, LoDen: 1, HiInf: true}},
		"undecodable num": {{LoNum: 1<<62 + 1, LoDen: 1, HiInf: true}},
		"after unbounded": {{LoNum: 0, LoDen: 1, HiInf: true}, {LoNum: 1, LoDen: 1, HiInf: true}},
	} {
		if err := (CertRecord{Canon: "x", Concept: 1, Intervals: ivs}).Validate(); err == nil {
			t.Errorf("%s certificate accepted by Validate", name)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.GetCert(CertKey{Canon: "canon-a", Concept: 3})
	if !ok || !equalIntervals(got.Intervals, cert.Intervals) {
		t.Fatalf("reopened certificate: ok=%v %+v", ok, got)
	}
	n := 0
	s2.RangeCerts(func(CertRecord) bool { n++; return true })
	if n != 1 {
		t.Fatalf("RangeCerts visited %d records, want 1", n)
	}
}

// TestStoreCompactFoldsSubsumedVerdicts: compaction drops every legacy
// verdict frame — a row its (canon, concept) certificate subsumes and a
// verdict no certificate covers alike, since the store no longer loads
// either — and keeps the certificate.
func TestStoreCompactFoldsSubsumedVerdicts(t *testing.T) {
	dir := t.TempDir()
	cert := certOn01("canon-a", 3)
	var frames []byte
	for _, v := range []verdict{
		{Canon: "canon-a", Num: 1, Den: 2, Concept: 3, Stable: true}, // subsumed row
		{Canon: "canon-a", Num: 1, Den: 1, Concept: 3, Stable: true},
		{Canon: "canon-a", Num: 2, Den: 1, Concept: 3},
		{Canon: "canon-a", Num: 1, Den: 1, Concept: 4, Stable: true}, // uncovered
	} {
		frames = append(frames, verdictFrame(v)...)
	}
	writeSegments(t, dir, 1, [][]byte{append(frames, encodeCertFrame(cert)...)})
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SkippedVerdictFrames != 4 || st.Records != 1 {
		t.Fatalf("pre-compact stats %+v, want 4 skipped verdict frames and 1 certificate", st)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The folded state is what reopens.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.SkippedVerdictFrames != 0 || st.Records != 1 {
		t.Fatalf("reopened stats %+v, want the certificate alone", st)
	}
	if got, ok := s2.GetCert(cert.Key()); !ok || !equalIntervals(got.Intervals, cert.Intervals) {
		t.Fatal("certificate lost in compaction")
	}
}
