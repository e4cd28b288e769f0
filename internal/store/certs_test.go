package store

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/eq"
)

// ival is one certificate interval with its endpoints exactly as given
// (unreduced); hiDen 0 makes it unbounded.
func ival(loNum, loDen int64, loOpen bool, hiNum, hiDen int64, hiOpen bool) eq.AlphaInterval {
	iv := eq.AlphaInterval{Lo: eq.Rat{Num: loNum, Den: loDen}, LoOpen: loOpen, Hi: eq.Rat{Num: hiNum, Den: hiDen}, HiOpen: hiOpen}
	if hiDen == 0 {
		iv.Hi = eq.RatInf()
	}
	return iv
}

// setOf builds a test fixture certificate through eq.NewAlphaSet,
// panicking on an invalid interval list.
func setOf(ivs ...eq.AlphaInterval) eq.AlphaSet {
	set, err := eq.NewAlphaSet(ivs)
	if err != nil {
		panic(err)
	}
	return set
}

// sameSet reports whether two certificates hold the same intervals with
// the same endpoint encodings — stricter than AlphaSet.Equal, which
// compares endpoint values.
func sameSet(a, b eq.AlphaSet) bool { return slices.Equal(intervalsOf(a), intervalsOf(b)) }

func intervalsOf(s eq.AlphaSet) []eq.AlphaInterval {
	var ivs []eq.AlphaInterval
	for _, iv := range s.All() {
		ivs = append(ivs, iv)
	}
	return ivs
}

func certOn01(canon string, concept eq.Concept) CertRecord {
	// Stable exactly on [0, 1]: the K_n Remove-Equilibrium shape.
	return CertRecord{Canon: canon, Concept: concept, Set: setOf(ival(0, 1, false, 1, 1, false))}
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
	bad.Set = setOf(ival(0, 1, false, 1, 1, true))
	if err := s.PutCert(bad); err == nil {
		t.Fatal("conflicting certificate accepted")
	}
	// Malformed certificates never reach a frame: eq.NewAlphaSet, the
	// check decode applies too, refuses empty, inverted, out-of-order,
	// touching-closed and after-unbounded shapes, and Validate refuses
	// endpoints the codec cannot decode.
	for name, ivs := range map[string][]eq.AlphaInterval{
		"empty":           {ival(5, 1, false, 5, 1, true)},
		"inverted":        {ival(5, 1, false, 1, 1, false)},
		"out of order":    {ival(2, 1, false, 3, 1, false), ival(0, 1, false, 1, 1, false)},
		"touching closed": {ival(0, 1, false, 1, 1, false), ival(1, 1, false, 0, 0, false)},
		"after unbounded": {ival(0, 1, false, 0, 0, false), ival(1, 1, false, 0, 0, false)},
	} {
		if _, err := eq.NewAlphaSet(ivs); err == nil {
			t.Errorf("%s certificate accepted by eq.NewAlphaSet", name)
		}
	}
	if err := (CertRecord{Canon: "x", Concept: 1, Set: setOf(ival(1<<62+1, 1, false, 0, 0, false))}).Validate(); err == nil {
		t.Error("undecodable endpoint accepted by Validate")
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
	if !ok || !sameSet(got.Set, cert.Set) {
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
	if got, ok := s2.GetCert(cert.Key()); !ok || !sameSet(got.Set, cert.Set) {
		t.Fatal("certificate lost in compaction")
	}
}

// invertedPayload hand-encodes a certificate payload for concept 1 whose
// one closed interval is [2^62, 2^62/3] — inverted, since 2^62/3 < 2^62,
// but only an exact comparison sees it: the cross products 2^62·3 and
// 2^62·1 overflow int64.
func invertedPayload(canon string) []byte {
	p := []byte{certKind, byte(len(canon))}
	p = append(p, canon...)
	p = append(p, 1, 1, 0) // concept, interval count, flags
	for _, v := range []uint64{1 << 62, 1, 1 << 62, 3} {
		p = binary.AppendUvarint(p, v)
	}
	return p
}

// overflowInvertedStore writes a one-shard store holding a frame of the
// valid certificate good, [2^62/3, 2^62] under "good" at the codec's
// cap, followed by a frame of the inverted [2^62, 2^62/3] under "bad". It
// returns the directory and the inverted frame's length.
func overflowInvertedStore(t *testing.T) (dir string, good CertRecord, badLen int) {
	dir = t.TempDir()
	good = CertRecord{Canon: "good", Concept: 1, Set: setOf(ival(1<<62, 3, false, 1<<62, 1, false))}
	bad := frameOf(invertedPayload("bad"))
	writeSegments(t, dir, 1, [][]byte{append(encodeCertFrame(good), bad...)})
	return dir, good, len(bad)
}

// TestOverflowInvertedCertificateRefused: an interval inverted only by an
// overflowing comparison never becomes a certificate. eq.NewAlphaSet, the
// check behind decode, refuses it; a segment frame holding it reads as a
// torn tail on reopen; and the valid certificate with the same endpoints
// in order still round-trips at the codec's cap.
func TestOverflowInvertedCertificateRefused(t *testing.T) {
	inverted := ival(1<<62, 1, false, 1<<62, 3, false)
	if set, err := eq.NewAlphaSet([]eq.AlphaInterval{inverted}); err == nil {
		t.Fatalf("eq.NewAlphaSet accepted the inverted interval as %s", set)
	}
	if rec, err := decodeCertRecord(invertedPayload("bad")); err == nil {
		t.Fatalf("decode accepted the inverted certificate %s", rec.Set)
	}

	dir, good, badLen := overflowInvertedStore(t)
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if got, ok := s.GetCert(CertKey{Canon: "bad", Concept: 1}); ok {
		t.Fatalf("reopen loaded the inverted certificate %s", got.Set)
	}
	if got, ok := s.GetCert(good.Key()); !ok || !sameSet(got.Set, good.Set) {
		t.Fatalf("valid certificate at the codec cap lost: ok=%v %s", ok, got.Set)
	}
	if st := s.Stats(); st.Records != 1 || st.RecoveredBytes != int64(badLen) {
		t.Fatalf("stats %+v, want the valid certificate and the inverted frame truncated", st)
	}
}
