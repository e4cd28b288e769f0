package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/eq"
)

// maxVariantBytes caps the encoded variant descriptor, so a corrupt
// length cannot force a huge allocation during recovery.
const maxVariantBytes = 1 << 10

// validVariant vets a variant token: the empty string (the default
// variant) or a short printable-ASCII descriptor with no spaces — the
// shape game.Variant.Key() produces. The store files records under the
// descriptor without parsing it; the sweep and the server derive it from
// a parsed game.Variant.
func validVariant(v string) error {
	if len(v) > maxVariantBytes {
		return fmt.Errorf("store: variant descriptor of %d bytes exceeds the cap", len(v))
	}
	for i := 0; i < len(v); i++ {
		if v[i] <= ' ' || v[i] > '~' {
			return fmt.Errorf("store: variant descriptor with non-printable byte 0x%02x", v[i])
		}
	}
	return nil
}

// CertKey identifies one stability certificate — in the store, the sweep
// cache and the serving daemon alike: the canonical form, the concept and
// the game variant (its canonical descriptor, "" for the default). A
// certificate answers every α at once, so the price is not part of the
// key: one entry replaces a per-α row of verdicts.
//
// Stability is an isomorphism invariant — the cost function depends only
// on degrees and distances — so one certificate per canonical form is
// sound. The two canonical encodings in use cannot collide with each
// other: CanonicalKey strings are over the bytes {0x00, 0x01} and
// FreeTreeKey strings over "()". Witness moves, by contrast, are
// label-dependent and therefore never stored. Two records with equal keys
// must agree on their sets.
type CertKey struct {
	Canon   string
	Concept eq.Concept
	Variant string
}

// CertRecord is the store's one record kind, a persisted stability
// certificate: Set is the exact set of edge prices at which the class
// Canon is stable for Concept under the game variant Variant. It is the
// same immutable eq.AlphaSet the certificate scans produce and the sweep
// cache serves, so nothing is converted between memory and disk.
type CertRecord struct {
	Canon   string
	Concept eq.Concept
	Variant string
	Set     eq.AlphaSet
}

// Key returns r's identity.
func (r CertRecord) Key() CertKey {
	return CertKey{Canon: r.Canon, Concept: r.Concept, Variant: r.Variant}
}

func (k CertKey) less(o CertKey) bool {
	if k.Variant != o.Variant {
		return k.Variant < o.Variant
	}
	if k.Canon != o.Canon {
		return k.Canon < o.Canon
	}
	return k.Concept < o.Concept
}

// validate reports whether k can be framed: a non-empty canonical key
// that fits a frame, a concept that fits its byte, and a well-formed
// variant descriptor.
func (k CertKey) validate() error {
	if k.Canon == "" {
		return fmt.Errorf("store: certificate with empty canonical key")
	}
	if len(k.Canon) > maxFrameBytes-64 {
		return fmt.Errorf("store: canonical key of %d bytes exceeds the frame cap", len(k.Canon))
	}
	if k.Concept < 1 || k.Concept > 255 {
		return fmt.Errorf("store: certificate with concept %d outside 1..255", int(k.Concept))
	}
	return validVariant(k.Variant)
}

// maxRat bounds every encoded rational component; decode rejects larger
// values, so Validate must too — a record that validates but cannot
// decode would truncate recovery at its frame and silently drop every
// later frame in the shard.
const maxRat = 1 << 62

// Validate reports whether r can be encoded AND decoded: a valid key, at
// most maxCertIntervals intervals, finite endpoint components of at most
// maxRat, and a set that passes eq.AlphaSet.Validate — the check decode
// applies, so every frame PutCert writes loads again. It reads the set in
// place.
func (r CertRecord) Validate() error {
	if err := r.Key().validate(); err != nil {
		return err
	}
	if r.Set.Len() > maxCertIntervals {
		return fmt.Errorf("store: certificate with %d intervals exceeds the cap", r.Set.Len())
	}
	for i, iv := range r.Set.All() {
		if iv.Lo.Num > maxRat || iv.Lo.Den > maxRat || !iv.Hi.IsInf() && (iv.Hi.Num > maxRat || iv.Hi.Den > maxRat) {
			return fmt.Errorf("store: certificate interval %d has an endpoint beyond the codec's 2^62 cap", i)
		}
	}
	return r.Set.Validate()
}

// maxCertIntervals caps the interval count of one persisted certificate,
// so a corrupt count cannot force a huge allocation during recovery.
const maxCertIntervals = 1 << 12

// certKind is the frame-payload discriminator of certificate records: a
// leading 0x00 byte. The retired per-α verdict payloads always start with
// a non-zero uvarint (the canonical-key length), so the two encodings
// cannot be confused and stores holding verdict frames open unchanged.
const certKind = 0x00

// Variant-tagged frames (codec v2) escape through the certificate
// discriminator one level deeper: the payload starts 0x00 0x00 — a shape
// no legacy frame can produce, because a legacy certificate's second byte
// is the uvarint length of its non-empty canonical key — followed by a
// kind byte, the uvarint-length-prefixed variant descriptor, and then the
// complete legacy payload of the wrapped record. Default-variant records
// never use the escape: they encode byte-identically to codec v1, which
// is what keeps legacy stores and the default-variant differential dumps
// exact.
const (
	extMagic   = 0x00 // second byte of an extended payload (after certKind)
	extVerdict = 0x01 // extended kind: variant-tagged verdict (retired)
	extCert    = 0x02 // extended kind: variant-tagged certificate
)

// isVerdictPayload reports whether b is a well-formed payload of the
// retired per-α verdict record kind:
//
//	uvarint len(canon) | canon | uvarint num | uvarint den | concept | stable
//
// It accepts exactly what that kind's decoder accepted. The store no
// longer loads verdicts, but it must still recognize their frames:
// recovery treats an undecodable frame as a torn tail and truncates it
// together with every certificate behind it.
func isVerdictPayload(b []byte) bool {
	clen, n := binary.Uvarint(b)
	if n <= 0 || clen == 0 || clen > maxFrameBytes-32 || uint64(len(b)-n) < clen {
		return false
	}
	b = b[n+int(clen):]
	var price [2]uint64 // num, den
	for i := range price {
		v, n := binary.Uvarint(b)
		if n <= 0 || v > maxRat {
			return false
		}
		price[i], b = v, b[n:]
	}
	return price[1] != 0 && len(b) == 2 && b[0] != 0 && b[1] <= 1
}

// encodeCertRecord renders a certificate frame payload:
//
//	0x00 | uvarint len(canon) | canon | concept | uvarint count |
//	per interval: flags | uvarint loNum | uvarint loDen
//	              [ uvarint hiNum | uvarint hiDen  when Hi is finite ]
//
// flags: bit0 LoOpen, bit1 HiOpen, bit2 Hi = +∞. Non-default variants
// prefix the extension header 0x00 0x00 0x02 | uvarint len(variant) |
// variant before the legacy payload above.
func encodeCertRecord(r CertRecord) []byte {
	buf := make([]byte, 0, 8+len(r.Canon)+len(r.Variant)+r.Set.Len()*(1+4*binary.MaxVarintLen64))
	if r.Variant != "" {
		buf = append(buf, certKind, extMagic, extCert)
		buf = binary.AppendUvarint(buf, uint64(len(r.Variant)))
		buf = append(buf, r.Variant...)
	}
	buf = append(buf, certKind)
	buf = binary.AppendUvarint(buf, uint64(len(r.Canon)))
	buf = append(buf, r.Canon...)
	buf = append(buf, byte(r.Concept))
	buf = binary.AppendUvarint(buf, uint64(r.Set.Len()))
	for _, iv := range r.Set.All() {
		var flags byte
		if iv.LoOpen {
			flags |= 1
		}
		if iv.HiOpen {
			flags |= 2
		}
		if iv.Hi.IsInf() {
			flags |= 4
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(iv.Lo.Num))
		buf = binary.AppendUvarint(buf, uint64(iv.Lo.Den))
		if !iv.Hi.IsInf() {
			buf = binary.AppendUvarint(buf, uint64(iv.Hi.Num))
			buf = binary.AppendUvarint(buf, uint64(iv.Hi.Den))
		}
	}
	return buf
}

// decodeExtended parses the header of an extended (variant-tagged)
// payload, returning the variant descriptor, the extended kind and the
// wrapped legacy payload. The wrapped payload is handed to the legacy
// decoders unchanged, so extended frames cannot drift from the v1 codec
// — and a nested extension header inside the body fails naturally in
// those decoders (a zero canonical-key length).
func decodeExtended(b []byte) (variant string, kind byte, body []byte, err error) {
	if len(b) < 3 || b[0] != certKind || b[1] != extMagic {
		return "", 0, nil, fmt.Errorf("store: not an extended payload")
	}
	kind = b[2]
	if kind != extVerdict && kind != extCert {
		return "", 0, nil, fmt.Errorf("store: unknown extended frame kind 0x%02x", kind)
	}
	b = b[3:]
	vlen, n := binary.Uvarint(b)
	if n <= 0 || vlen == 0 || vlen > maxVariantBytes || uint64(len(b)-n) < vlen {
		return "", 0, nil, fmt.Errorf("store: bad variant descriptor length")
	}
	variant = string(b[n : n+int(vlen)])
	if err := validVariant(variant); err != nil {
		return "", 0, nil, err
	}
	return variant, kind, b[n+int(vlen):], nil
}

// decodeCertRecord parses a certificate frame payload (after the leading
// kind byte has been recognized, but including it in b). It keeps every
// endpoint exactly as encoded, so a decoded record re-encodes to the same
// bytes, and it rejects trailing garbage and any record Validate would
// refuse.
func decodeCertRecord(b []byte) (CertRecord, error) {
	if len(b) == 0 || b[0] != certKind {
		return CertRecord{}, fmt.Errorf("store: not a certificate payload")
	}
	b = b[1:]
	clen, n := binary.Uvarint(b)
	if n <= 0 || clen == 0 || uint64(len(b)-n) < clen {
		return CertRecord{}, fmt.Errorf("store: bad certificate canonical-key length")
	}
	b = b[n:]
	rec := CertRecord{Canon: string(b[:clen])}
	b = b[clen:]
	if len(b) < 1 {
		return CertRecord{}, fmt.Errorf("store: truncated certificate")
	}
	rec.Concept = eq.Concept(b[0])
	b = b[1:]
	count, n := binary.Uvarint(b)
	if n <= 0 || count > maxCertIntervals {
		return CertRecord{}, fmt.Errorf("store: bad certificate interval count")
	}
	b = b[n:]
	// readRat reads one finite endpoint: num in [0, maxRat], den in
	// [1, maxRat] (a zero denominator would read back as +∞).
	readRat := func() (eq.Rat, bool) {
		var r [2]int64
		for i := range r {
			v, n := binary.Uvarint(b)
			if n <= 0 || v > maxRat {
				return eq.Rat{}, false
			}
			r[i], b = int64(v), b[n:]
		}
		return eq.Rat{Num: r[0], Den: r[1]}, r[1] != 0
	}
	ivs := make([]eq.AlphaInterval, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(b) < 1 {
			return CertRecord{}, fmt.Errorf("store: truncated certificate interval")
		}
		flags := b[0]
		if flags > 7 {
			return CertRecord{}, fmt.Errorf("store: bad certificate interval flags")
		}
		b = b[1:]
		iv := eq.AlphaInterval{LoOpen: flags&1 != 0, HiOpen: flags&2 != 0, Hi: eq.RatInf()}
		var ok bool
		if iv.Lo, ok = readRat(); !ok {
			return CertRecord{}, fmt.Errorf("store: bad certificate endpoint")
		}
		if flags&4 == 0 {
			if iv.Hi, ok = readRat(); !ok {
				return CertRecord{}, fmt.Errorf("store: bad certificate endpoint")
			}
		}
		ivs = append(ivs, iv)
	}
	if len(b) != 0 {
		return CertRecord{}, fmt.Errorf("store: trailing bytes after certificate")
	}
	if err := rec.Key().validate(); err != nil {
		return CertRecord{}, err
	}
	set, err := eq.NewAlphaSet(ivs)
	if err != nil {
		return CertRecord{}, err
	}
	rec.Set = set
	return rec, nil
}
