package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// Stores written before the certificate engine, and by daemons that
// memoized /v1/check misses, hold frames of a retired per-α verdict kind
// interleaved with certificate frames. This file keeps that kind's codec
// as a fixture — the encoder writes legacy stores, the decoder is the
// oracle for what such stores may contain — and pins how the store reads
// them: skipped and counted, never mistaken for a torn tail.

// verdict is one record of the retired per-α verdict kind.
type verdict struct {
	Canon    string
	Num, Den int64
	Concept  uint8
	Variant  string
	Stable   bool
}

// encodeVerdict renders a verdict payload as the retired encoder did:
//
//	uvarint len(canon) | canon | uvarint num | uvarint den | concept | stable
//
// prefixed, for non-default variants only, by the extension header
// 0x00 0x00 0x01 | uvarint len(variant) | variant.
func encodeVerdict(v verdict) []byte {
	var buf []byte
	if v.Variant != "" {
		buf = append(buf, certKind, extMagic, extVerdict)
		buf = binary.AppendUvarint(buf, uint64(len(v.Variant)))
		buf = append(buf, v.Variant...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(v.Canon)))
	buf = append(buf, v.Canon...)
	buf = binary.AppendUvarint(buf, uint64(v.Num))
	buf = binary.AppendUvarint(buf, uint64(v.Den))
	buf = append(buf, v.Concept)
	if v.Stable {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func verdictFrame(v verdict) []byte { return frameOf(encodeVerdict(v)) }

// decodeVerdict is the retired decoder, plain and variant-tagged payloads
// alike: it accepts exactly the payloads the store used to load as
// verdicts.
func decodeVerdict(b []byte) (verdict, error) {
	bad := errors.New("not a verdict payload")
	var v verdict
	if len(b) >= 2 && b[0] == certKind && b[1] == extMagic {
		variant, kind, body, err := decodeExtended(b)
		if err != nil || kind != extVerdict {
			return verdict{}, bad
		}
		v.Variant, b = variant, body
	}
	clen, n := binary.Uvarint(b)
	if n <= 0 || clen == 0 || uint64(len(b)-n) < clen {
		return verdict{}, bad
	}
	v.Canon, b = string(b[n:n+int(clen)]), b[n+int(clen):]
	num, n := binary.Uvarint(b)
	if n <= 0 || num > 1<<62 {
		return verdict{}, bad
	}
	b = b[n:]
	den, n := binary.Uvarint(b)
	if n <= 0 || den > 1<<62 {
		return verdict{}, bad
	}
	b = b[n:]
	if len(b) != 2 || b[1] > 1 {
		return verdict{}, bad
	}
	v.Num, v.Den, v.Concept, v.Stable = int64(num), int64(den), b[0], b[1] == 1
	if len(v.Canon) > maxFrameBytes-32 || v.Den == 0 || v.Concept == 0 {
		return verdict{}, bad
	}
	return v, nil
}

// writeSegments lays down a store image by hand: META.json at version,
// then one segment per element of segs, each the magic plus its frames.
func writeSegments(t *testing.T, dir string, version int, segs [][]byte) {
	t.Helper()
	m := fmt.Sprintf(`{"version":%d,"shards":%d}`+"\n", version, len(segs))
	if err := os.WriteFile(filepath.Join(dir, "META.json"), []byte(m), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, frames := range segs {
		data := append([]byte(segMagic), frames...)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seg-%02x.log", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLegacyVerdictFramesSkipped: a store whose segments interleave
// verdict frames (default and variant-tagged) with certificate frames
// opens with nothing truncated and every certificate present, counts the
// verdict frames as skipped, and sheds them on Compact without changing
// the certificate set.
func TestLegacyVerdictFramesSkipped(t *testing.T) {
	dir := t.TempDir()
	certs := testRecords(24)
	certs[5].Variant, certs[6].Variant = "unilateral", "max,mul:0=3/2"
	const shards = 2
	probe := &Store{segs: make([]*segment, shards)}
	segs := make([][]byte, shards)
	verdicts := 0
	for i, c := range certs {
		idx := probe.shardIndex(c.Canon)
		// A plain verdict frame before every certificate frame, and a
		// variant-tagged one after every third.
		segs[idx] = append(segs[idx], verdictFrame(verdict{Canon: c.Canon, Num: int64(i + 1), Den: 2, Concept: uint8(c.Concept), Stable: i%2 == 0})...)
		verdicts++
		segs[idx] = append(segs[idx], encodeCertFrame(c)...)
		if i%3 == 0 {
			segs[idx] = append(segs[idx], verdictFrame(verdict{Canon: c.Canon, Num: 3, Den: 1, Concept: 2, Variant: "unilateral"})...)
			verdicts++
		}
	}
	writeSegments(t, dir, 2, segs)

	s := mustOpen(t, dir, Options{})
	st := s.Stats()
	if st.RecoveredBytes != 0 || st.Records != len(certs) || st.SkippedVerdictFrames != verdicts {
		t.Fatalf("legacy store opened with %+v, want 0 recovered bytes, %d certificates, %d skipped verdict frames",
			st, len(certs), verdicts)
	}
	want := append([]CertRecord(nil), certs...)
	sort.Slice(want, func(i, j int) bool { return want[i].Key().less(want[j].Key()) })
	if got := dump(s); !equalCerts(got, want) {
		t.Fatalf("legacy store holds %v, want %v", got, want)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats(); after.SkippedVerdictFrames != 0 || after.DiskBytes >= st.DiskBytes {
		t.Fatalf("compaction left %+v, want no skipped frames and fewer than %d bytes", after, st.DiskBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.SkippedVerdictFrames != 0 || st.RecoveredBytes != 0 || st.Records != len(certs) {
		t.Fatalf("compacted store reopened with %+v, want the certificates alone", st)
	}
	if got := dump(s); !equalCerts(got, want) {
		t.Fatal("compaction changed the certificate set")
	}
	for _, seg := range s.SegmentStats() {
		if seg.Records == 0 {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, seg.Name))
		if err != nil {
			t.Fatal(err)
		}
		for b := data[len(segMagic):]; len(b) > 0; {
			n, fr, ok := decodeFrame(b)
			if !ok || fr.verdict {
				t.Fatalf("%s still holds a verdict or torn frame after compaction", seg.Name)
			}
			b = b[n:]
		}
	}
}

func equalCerts(a, b []CertRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() || !sameSet(a[i].Set, b[i].Set) {
			return false
		}
	}
	return true
}

// FuzzLegacyVerdictSkipped: any payload the retired decoder accepted,
// framed and followed by a certificate frame, opens with the certificate
// present, the verdict frame counted as skipped and nothing truncated.
// Payloads it rejected are torn tails, exactly as before.
func FuzzLegacyVerdictSkipped(f *testing.F) {
	f.Add(encodeVerdict(verdict{Canon: "\x00\x01\x01", Num: 1, Den: 1, Concept: 1, Stable: true}))
	f.Add(encodeVerdict(verdict{Canon: "((()))", Num: 9, Den: 2, Concept: 9, Variant: "unilateral,max"}))
	f.Add(encodeVerdict(verdict{Canon: string(bytes.Repeat([]byte{0}, 512)), Num: 1 << 40, Den: 3, Concept: 16, Stable: true}))
	cert := certOn01("class-1", 2)
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || len(payload) > maxFrameBytes {
			return
		}
		_, decErr := decodeVerdict(payload)
		if _, fr, ok := decodeFrame(frameOf(payload)); ok && fr.verdict != (decErr == nil) {
			t.Fatalf("skip decision %v disagrees with the retired decoder (err=%v)", fr.verdict, decErr)
		}
		if decErr != nil {
			return
		}
		dir := t.TempDir()
		writeSegments(t, dir, 2, [][]byte{append(frameOf(payload), encodeCertFrame(cert)...)})
		s := mustOpen(t, dir, Options{ReadOnly: true})
		defer s.Close()
		st := s.Stats()
		if st.RecoveredBytes != 0 || st.SkippedVerdictFrames != 1 || st.Records != 1 {
			t.Fatalf("verdict payload % x then a certificate opened with %+v", payload, st)
		}
		if _, ok := s.GetCert(cert.Key()); !ok {
			t.Fatal("the certificate behind a verdict frame was lost")
		}
	})
}
