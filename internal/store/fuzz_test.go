package store

import (
	"bytes"
	"testing"

	"repro/internal/eq"
)

// FuzzCertRecordRoundTrip: a valid certificate record (fuzz-built from
// up to two intervals) survives encode → frame → decode byte-identically,
// and the leading 0x00 kind byte keeps it apart from the retired verdict
// payloads.
func FuzzCertRecordRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 0}, uint8(3), int64(0), int64(1), int64(1), int64(1), uint8(0), false)
	f.Add([]byte("(())"), uint8(9), int64(1), int64(2), int64(9), int64(2), uint8(3), true)
	f.Fuzz(func(t *testing.T, canon []byte, concept uint8, loNum, loDen, hiNum, hiDen int64, flags uint8, second bool) {
		unbounded := flags&4 != 0
		if unbounded {
			// The encoding is canonical: unbounded intervals carry no upper
			// endpoint at all.
			hiDen = 0
		} else if hiDen == 0 {
			return // a zero denominator is the unbounded endpoint
		}
		ivs := []eq.AlphaInterval{ival(loNum, loDen, flags&1 != 0, hiNum, hiDen, flags&2 != 0)}
		if !unbounded && second {
			ivs = append(ivs, ival(hiNum, hiDen, false, 0, 0, false))
		}
		set, err := eq.NewAlphaSet(ivs)
		if err != nil {
			return
		}
		rec := CertRecord{Canon: string(canon), Concept: eq.Concept(concept), Set: set}
		if rec.Validate() != nil {
			return
		}
		frame := encodeCertFrame(rec)
		n, got, ok := decodeFrame(frame)
		if !ok {
			t.Fatalf("freshly encoded certificate frame did not decode: %+v", rec)
		}
		if got.verdict {
			t.Fatalf("certificate frame decoded as verdict: %+v", rec)
		}
		if n != len(frame) {
			t.Fatalf("frame size %d, decoded %d", len(frame), n)
		}
		if got.cert.Canon != rec.Canon || got.cert.Concept != rec.Concept ||
			!sameSet(got.cert.Set, rec.Set) {
			t.Fatalf("round trip changed the certificate: %+v -> %+v", rec, got.cert)
		}
	})
}

// FuzzDecodeFrame: arbitrary bytes never panic the frame decoder, and
// anything it accepts re-encodes to the identical frame prefix (no
// malleability: one record, one encoding) — a certificate through the
// store's encoder, a skipped verdict frame through the retired codec.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(verdictFrame(verdict{Canon: "x", Num: 1, Den: 2, Concept: 3, Stable: true}))
	f.Add(encodeCertFrame(CertRecord{Canon: "x", Concept: 3, Set: setOf(ival(0, 1, false, 1, 1, true))}))
	f.Add(verdictFrame(verdict{Canon: "x", Num: 1, Den: 2, Concept: 3, Variant: "unilateral", Stable: true}))
	f.Add(encodeCertFrame(CertRecord{Canon: "x", Concept: 3, Variant: "max", Set: setOf(ival(0, 1, false, 1, 1, true))}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, fr, ok := decodeFrame(data)
		if !ok {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoded frame size %d out of range", n)
		}
		if fr.verdict {
			v, err := decodeVerdict(data[frameHeader:n])
			if err != nil {
				t.Fatalf("skipped a frame the retired decoder refused: %v", err)
			}
			if !bytes.Equal(verdictFrame(v), data[:n]) {
				t.Fatalf("re-encoding %+v differs from the skipped frame", v)
			}
			return
		}
		if err := fr.cert.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid certificate: %v", err)
		}
		if !bytes.Equal(encodeCertFrame(fr.cert), data[:n]) {
			t.Fatalf("re-encoding %+v differs from the accepted frame", fr.cert)
		}
	})
}
