package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eq"
)

// This file is the persistence edge of the GameVariant redesign: extended
// (variant-tagged) frames round-trip, legacy frames decode as the default
// variant byte-for-byte, the META version bumps lazily so pre-variant
// binaries fail loudly instead of truncating segments, and merge and
// compaction treat distinct variants as distinct keys.

// TestDefaultVariantEncodesLegacyBytes pins the differential anchor at the
// codec level: a certificate with the default variant encodes
// byte-identically to one that never heard of variants, so
// default-variant stores and dumps stay exact against pre-variant
// baselines.
func TestDefaultVariantEncodesLegacyBytes(t *testing.T) {
	legacy := []byte{certKind, 7}
	legacy = append(legacy, "class-1"...)
	legacy = append(legacy, 2, 1, 0, 0, 1, 1, 1) // concept, count, flags, [0/1, 1/1]
	if got := encodeCertRecord(certOn01("class-1", 2)); !bytes.Equal(got, legacy) {
		t.Fatalf("default-variant certificate encoding % x, want legacy % x", got, legacy)
	}
}

// TestVariantFrameRoundTrip: variant-tagged certificates survive encode →
// frame → decode with their variant intact, and variant-tagged verdict
// frames of the retired kind decode as skipped verdicts.
func TestVariantFrameRoundTrip(t *testing.T) {
	vframe := verdictFrame(verdict{Canon: "class-1", Num: 3, Den: 2, Concept: 2, Variant: "unilateral,max", Stable: true})
	n, fr, ok := decodeFrame(vframe)
	if !ok || !fr.verdict || n != len(vframe) {
		t.Fatalf("variant verdict frame did not decode as a skipped verdict (ok=%v n=%d)", ok, n)
	}
	cert := certOn01("class-1", 2)
	cert.Variant = "mul:0=3/2"
	n, fr, ok = decodeFrame(encodeCertFrame(cert))
	if !ok || fr.verdict {
		t.Fatalf("variant certificate frame did not decode as a certificate (ok=%v)", ok)
	}
	if n != len(encodeCertFrame(cert)) || fr.cert.Variant != cert.Variant ||
		fr.cert.Canon != cert.Canon || !sameSet(fr.cert.Set, cert.Set) {
		t.Fatalf("variant certificate round trip: %+v -> %+v", cert, fr.cert)
	}
}

// TestLegacyFramesDecodeAsDefaultVariant replays a hand-built legacy
// segment image: the certificate comes back with the empty (default)
// variant — the upgrade path for stores written before the redesign —
// and the verdict frame beside it is skipped.
func TestLegacyFramesDecodeAsDefaultVariant(t *testing.T) {
	dir := t.TempDir()
	seg := []byte(segMagic)
	seg = append(seg, frameOf([]byte{7, 'c', 'l', 'a', 's', 's', '-', '1', 3, 2, 2, 1})...)
	legacyCert := certOn01("class-1", 2)
	legacyCert.Variant = "" // encode through the legacy path
	seg = append(seg, frameOf(encodeCertRecord(legacyCert))...)
	metaJSON := []byte(`{"version":1,"shards":1}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, "META.json"), metaJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.SkippedVerdictFrames != 1 || st.Records != 1 || st.RecoveredBytes != 0 {
		t.Fatalf("legacy segment opened with %+v, want one skipped verdict and one certificate", st)
	}
	if c, ok := s.GetCert(CertKey{Canon: "class-1", Concept: 2}); !ok || c.Variant != "" {
		t.Fatalf("legacy certificate not found under the default-variant key (ok=%v variant=%q)", ok, c.Variant)
	}
	if _, ok := s.GetCert(CertKey{Canon: "class-1", Concept: 2, Variant: "unilateral"}); ok {
		t.Fatal("legacy certificate must not answer for a non-default variant")
	}
}

func readMetaVersion(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "META.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m meta
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m.Version
}

// TestMetaVersionBumpsOnFirstVariantWrite: default-variant writes leave a
// store at format version 1; the first variant-tagged write durably bumps
// it to 2 before the frame lands, and the store reopens with everything
// intact. A pre-variant binary (which rejects version != 1) then refuses
// the store at Open instead of mistaking extended frames for a torn tail.
func TestMetaVersionBumpsOnFirstVariantWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCert(certOn01("class-1", 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if v := readMetaVersion(t, dir); v != 1 {
		t.Fatalf("default-variant writes must keep version 1, got %d", v)
	}
	uni := certOn01("class-1", 2)
	uni.Variant = "unilateral"
	uni.Set = setOf(ival(0, 1, false, 1, 1, true))
	if err := s.PutCert(uni); err != nil {
		t.Fatal(err)
	}
	// The bump is durable before the frame is even flushed.
	if v := readMetaVersion(t, dir); v != 2 {
		t.Fatalf("variant write must bump the version to 2, got %d", v)
	}
	if err := s.PutCert(CertRecord{Canon: "class-2", Concept: 2, Variant: "max",
		Set: setOf(ival(0, 1, false, 1, 0, false))}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if v := readMetaVersion(t, dir); v != 2 {
		t.Fatalf("version must stay 2 after close, got %d", v)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopening a version-2 store: %v", err)
	}
	defer r.Close()
	if got, ok := r.GetCert(uni.Key()); !ok || !sameSet(got.Set, uni.Set) {
		t.Fatalf("variant certificate lost across reopen (ok=%v %+v)", ok, got)
	}
	if _, ok := r.GetCert(CertKey{Canon: "class-1", Concept: 2}); !ok {
		t.Fatal("default certificate lost across reopen")
	}
	if _, ok := r.GetCert(CertKey{Canon: "class-2", Concept: 2, Variant: "max"}); !ok {
		t.Fatal("variant certificate lost across reopen")
	}
}

// TestIngestKeepsVariantsDistinct: the same class and concept may
// legitimately hold different certificates in different variants — merge
// must keep both — while a contradiction within one variant still fails
// loudly.
func TestIngestKeepsVariantsDistinct(t *testing.T) {
	a, b, dst := openShard(t), openShard(t), openShard(t)
	cert := certOn01("class-2", 3)
	if err := a.PutCert(cert); err != nil {
		t.Fatal(err)
	}
	vcert := certOn01("class-2", 3)
	vcert.Variant = "max"
	vcert.Set = setOf(ival(0, 1, false, 1, 0, false))
	if err := b.PutCert(vcert); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Ingest(a); err != nil {
		t.Fatal(err)
	}
	st, err := dst.Ingest(b)
	if err != nil {
		t.Fatalf("cross-variant ingest must not conflict: %v", err)
	}
	if st.Certificates != 1 || st.Duplicates != 0 {
		t.Fatalf("cross-variant ingest stats %+v", st)
	}
	for _, want := range []CertRecord{cert, vcert} {
		if got, ok := dst.GetCert(want.Key()); !ok || !sameSet(got.Set, want.Set) {
			t.Fatalf("certificate %v lost in merge", want.Key())
		}
	}

	// Same variant, contradictory certificate: corruption, fails loudly.
	c := openShard(t)
	bad := certOn01("class-2", 3)
	bad.Variant = "max"
	if err := c.PutCert(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Ingest(c); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("same-variant contradiction must fail the merge, got %v", err)
	}
}

// TestCompactPreservesVariants: compaction keeps the certificates of every
// variant — a default-variant certificate must not swallow a variant
// certificate of the same class and concept — and drops the verdict
// frames of both.
func TestCompactPreservesVariants(t *testing.T) {
	dir := t.TempDir()
	def := certOn01("class-1", 2)
	uni := certOn01("class-1", 2)
	uni.Variant = "unilateral"
	uni.Set = setOf(ival(1, 2, false, 0, 0, false))
	writeSegments(t, dir, 2, [][]byte{bytes.Join([][]byte{
		encodeCertFrame(def),
		verdictFrame(verdict{Canon: "class-1", Num: 1, Den: 2, Concept: 2, Stable: true}),
		verdictFrame(verdict{Canon: "class-1", Num: 1, Den: 2, Concept: 2, Variant: "unilateral"}),
		encodeCertFrame(uni),
	}, nil)})
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Records != 2 || st.SkippedVerdictFrames != 0 {
		t.Fatalf("compacted store reopened with %+v, want both certificates and no verdicts", st)
	}
	for _, want := range []CertRecord{def, uni} {
		if got, ok := r.GetCert(want.Key()); !ok || !sameSet(got.Set, want.Set) {
			t.Fatalf("certificate %v lost across compact+reopen", want.Key())
		}
	}
}

// TestVariantValidation: PutCert refuses descriptors the codec cannot
// carry.
func TestVariantValidation(t *testing.T) {
	s := openShard(t)
	for _, v := range []string{"uni lateral", "uni\nlateral", "ünilateral", strings.Repeat("x", maxVariantBytes+1)} {
		rec := certOn01("c", 2)
		rec.Variant = v
		if err := s.PutCert(rec); err == nil {
			t.Errorf("PutCert accepted invalid variant %q", v)
		}
	}
}

// FuzzVariantFrameRoundTrip is the variant edition of the codec fuzz
// targets: any certificate that validates — variant included — survives
// encode → frame → decode byte-identically, and the extended header never
// collides with the unextended encoding.
func FuzzVariantFrameRoundTrip(f *testing.F) {
	f.Add([]byte("class"), int64(3), int64(2), uint8(2), true, "unilateral")
	f.Add([]byte{0, 1, 0}, int64(1), int64(1), uint8(9), false, "unilateral,max")
	f.Add([]byte("(())"), int64(7), int64(3), uint8(4), true, "mul:0=3,mul:1=2/3")
	f.Add([]byte("x"), int64(0), int64(1), uint8(1), false, "")
	f.Fuzz(func(t *testing.T, canon []byte, loNum, loDen int64, concept uint8, loOpen bool, variant string) {
		set, err := eq.NewAlphaSet([]eq.AlphaInterval{ival(loNum, loDen, loOpen, 0, 0, false)})
		if err != nil {
			return
		}
		cert := CertRecord{Canon: string(canon), Concept: eq.Concept(concept), Variant: variant, Set: set}
		if cert.Validate() != nil {
			return
		}
		cframe := encodeCertFrame(cert)
		n, got, ok := decodeFrame(cframe)
		if !ok || got.verdict || n != len(cframe) {
			t.Fatalf("variant certificate frame failed to decode: ok=%v n=%d", ok, n)
		}
		if got.cert.Canon != cert.Canon || got.cert.Concept != cert.Concept ||
			got.cert.Variant != cert.Variant || !sameSet(got.cert.Set, cert.Set) {
			t.Fatalf("variant certificate round trip changed the record: %+v -> %+v", cert, got.cert)
		}
	})
}
