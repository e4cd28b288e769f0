// Package store implements a persistent, append-only certificate store:
// the on-disk counterpart of the sweep engine's canonical-form cache.
//
// Its one record kind is the stability certificate: the exact set of
// edge prices at which a class (canonical form) is stable for a solution
// concept under a game variant. A record holds it as the eq.AlphaSet the
// certificate scans produce, filed under the CertKey the sweep cache and
// the serving daemon also use, and one exact check vets it both at PutCert
// (eq.AlphaSet.Validate) and at decode (eq.NewAlphaSet). Certificates are
// pure functions of their key, so they never need updating — an
// append-only log with last-write-wins replay is a complete persistence
// model. The store shards records over a fixed set of segment files by
// canonical-key hash, frames every record with a length prefix and a
// CRC32, batches fsyncs, and recovers from a crash by truncating the torn
// tail of each segment. A store opened after a crash therefore contains
// exactly the records whose frames were fully durable, and nothing else.
//
// Layout of a store directory:
//
//	META.json   {"version":1,"shards":8}     — shards fixed at creation
//	LOCK        single-writer flock(2) target (holder pid inside)
//	seg-00.log … seg-NN.log                  — record segments
//
// Open ignores any other file in the directory.
//
// Each segment starts with the 8-byte magic "bncgsv1\n" followed by frames:
//
//	uint32 LE payload length | uint32 LE CRC32(IEEE, payload) | payload
//
// Certificate payloads start with a 0x00 byte. Stores written before the
// certificate engine also hold frames of a retired per-α verdict kind
// (first byte a non-zero key length); Open recognizes them, skips them
// and counts them in Stats.SkippedVerdictFrames, and Compact drops them.
// Recognizing them matters: an undecodable frame is a torn tail, and
// recovery would truncate every certificate behind it.
//
// Records of non-default game variants carry their variant descriptor in
// an extended payload (leading 0x00 0x00 — impossible for an unextended
// payload; see record.go). Because a pre-variant binary would mistake such
// a frame for a torn tail and truncate every frame after it, the store
// lazily rewrites META.json to version 2 immediately before the first
// variant-tagged frame is appended: old binaries then refuse the store at
// Open instead of corrupting it. Stores holding only default-variant
// records stay at version 1, byte-identical to the legacy codec.
//
// The payload encodings are defined in record.go. Concurrent use by
// multiple goroutines of one process is safe; concurrent writers from
// different processes are rejected by the lock file.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/eq"
	"repro/internal/obs"
)

// WriteSyncer is the write handle of one segment file — the subset of
// *os.File the append path needs. It is an interface so the
// fault-injection test harness (Options.WrapSegmentWriter) can interpose
// failing writes and syncs on an otherwise real store; production stores
// always write through bare *os.File values.
type WriteSyncer interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

const (
	segMagic = "bncgsv1\n"
	// maxFrameBytes caps a single record frame, so a corrupt length prefix
	// cannot force a huge allocation during recovery.
	maxFrameBytes = 1 << 20
	frameHeader   = 8 // uint32 length + uint32 crc
)

// Options configures Open.
type Options struct {
	// Shards is the number of segment files records are hashed across. It
	// is fixed at store creation (recorded in META.json) and ignored when
	// opening an existing store. Values <= 0 select the default of 8.
	Shards int
	// FlushEvery bounds the number of buffered records before an automatic
	// write+fsync. Values <= 0 select the default of 128.
	FlushEvery int
	// FlushInterval, when positive, starts a background flusher that syncs
	// pending records at this period — the serving daemon's durability
	// bound. Zero disables the ticker; records still flush on the
	// FlushEvery threshold, Flush and Close.
	FlushInterval time.Duration
	// ReadOnly opens the store without the single-writer lock and without
	// repairing torn tails, so `store stats`, `store dump`, `store merge`
	// sources and the fleet's merged-store check can inspect a store a
	// live writer holds. The view is the one at Open; PutCert and Compact
	// fail.
	ReadOnly bool
	// WrapSegmentWriter, when non-nil, wraps every segment write handle at
	// open (and reopen after Compact). It exists for fault-injection tests
	// — a wrapper returning write or sync errors drives the flush-failure
	// paths deterministically. Leave nil in production.
	WrapSegmentWriter func(WriteSyncer) WriteSyncer
	// Trace, when non-nil, records "store_flush" spans (only for flushes
	// with pending records) and "store_compact" spans.
	Trace *obs.Tracer
}

// Stats is an observability snapshot of a store.
type Stats struct {
	// Records counts the distinct certificates currently held.
	Records int `json:"records"`
	// Segments is the shard count.
	Segments int `json:"segments"`
	// DiskBytes is the total size of the durable segment data.
	DiskBytes int64 `json:"disk_bytes"`
	// Pending counts records buffered but not yet flushed.
	Pending int `json:"pending"`
	// Appended counts records appended by this session.
	Appended int64 `json:"appended"`
	// FlushedBytes counts segment bytes made durable by this session's
	// flushes — the sidecar's flush-throughput counter.
	FlushedBytes int64 `json:"flushed_bytes,omitempty"`
	// RecoveredBytes counts bytes truncated from torn segment tails at
	// Open — non-zero after recovering from a crash.
	RecoveredBytes int64 `json:"recovered_bytes,omitempty"`
	// DuplicateFrames counts on-disk frames superseded by a later frame
	// for the same key, observed at Open; Compact removes them.
	DuplicateFrames int `json:"duplicate_frames,omitempty"`
	// SkippedVerdictFrames counts frames of the retired per-α verdict
	// kind skipped at Open; Compact removes them.
	SkippedVerdictFrames int `json:"skipped_verdict_frames,omitempty"`
	// FlushFailures counts failed flushes and LastFlushError holds the
	// most recent one — non-zero means pending records are stuck in
	// memory (e.g. a full disk) and durability is degraded. Surfaced via
	// /healthz so the background flusher cannot fail silently.
	FlushFailures  int64  `json:"flush_failures,omitempty"`
	LastFlushError string `json:"last_flush_error,omitempty"`
}

type segment struct {
	path    string
	f       WriteSyncer
	size    int64  // durable bytes (including magic)
	records int    // frames folded from disk plus frames appended this session
	pending []byte // encoded frames awaiting flush
	dirty   bool   // written since last fsync
}

// Store is an open certificate store. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    []*segment
	certs   map[CertKey]eq.AlphaSet
	meta    meta     // as on disk; Version lazily bumps to 2 (see bumpMetaLocked)
	pending int      // buffered records across all segments
	lock    *os.File // flock-held single-writer lock (nil when read-only)
	stats   Stats
	closed  bool

	tick     *time.Ticker
	tickDone chan struct{}
}

type meta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// Open opens (creating if necessary) the store in dir and replays every
// durable record into memory. Torn segment tails — the signature of a
// crash mid-append — are truncated away and reported in Stats; Open fails
// only on I/O errors, format-version mismatches, or a live concurrent
// writer holding the store's lock.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.Shards > 256 {
		return nil, fmt.Errorf("store: %d shards exceed the 256 maximum", opts.Shards)
	}
	if opts.FlushEvery <= 0 {
		opts.FlushEvery = 128
	}
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	m, err := loadOrCreateMeta(dir, opts.Shards, opts.ReadOnly)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		certs: make(map[CertKey]eq.AlphaSet),
		meta:  m,
	}
	if !opts.ReadOnly {
		lock, err := acquireLock(dir)
		if err != nil {
			return nil, err
		}
		s.lock = lock
	}
	s.stats.Segments = m.Shards
	for i := 0; i < m.Shards; i++ {
		seg, err := s.openSegment(filepath.Join(dir, fmt.Sprintf("seg-%02x.log", i)))
		if err != nil {
			s.closeFiles()
			s.releaseLock()
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	if opts.FlushInterval > 0 {
		s.tick = time.NewTicker(opts.FlushInterval)
		s.tickDone = make(chan struct{})
		go func() {
			for {
				select {
				case <-s.tick.C:
					_ = s.Flush()
				case <-s.tickDone:
					return
				}
			}
		}()
	}
	return s, nil
}

func loadOrCreateMeta(dir string, shards int, readOnly bool) (meta, error) {
	path := filepath.Join(dir, "META.json")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if readOnly {
			return meta{}, fmt.Errorf("store: no store in %s", dir)
		}
		m := meta{Version: 1, Shards: shards}
		enc, _ := json.Marshal(m)
		return m, writeFileSync(path, append(enc, '\n'))
	}
	if err != nil {
		return meta{}, err
	}
	var m meta
	if err := json.Unmarshal(data, &m); err != nil {
		return meta{}, fmt.Errorf("store: corrupt META.json: %w", err)
	}
	if m.Version != 1 && m.Version != 2 {
		return meta{}, fmt.Errorf("store: unsupported format version %d", m.Version)
	}
	if m.Shards < 1 || m.Shards > 256 {
		return meta{}, fmt.Errorf("store: META.json declares %d shards", m.Shards)
	}
	return m, nil
}

// acquireLock takes the single-writer lock: an flock(2) on the LOCK
// file, held open for the store's lifetime. The kernel owns the lock, so
// a crashed writer's lock evaporates with its process — no stale-lock
// heuristics and no steal race. The pid written into the file is for
// operators only.
func acquireLock(dir string) (*os.File, error) {
	path := filepath.Join(dir, "LOCK")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		holder, _ := os.ReadFile(path)
		f.Close()
		return nil, fmt.Errorf("store: %s locked by live pid %s", dir, strings.TrimSpace(string(holder)))
	}
	_ = f.Truncate(0)
	_, _ = f.WriteAt([]byte(fmt.Sprintf("%d\n", os.Getpid())), 0)
	return f, nil
}

// openSegment opens one shard file, replays its records into s.certs, and
// truncates any torn tail so the file ends on a frame boundary (under
// Options.ReadOnly the tail is only reported, never repaired, and no
// write handle is opened).
func (s *Store) openSegment(path string) (*segment, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if s.opts.ReadOnly {
			return &segment{path: path}, nil
		}
		if err := writeFileSync(path, []byte(segMagic)); err != nil {
			return nil, err
		}
		data = []byte(segMagic)
	} else if err != nil {
		return nil, err
	}
	valid, frames := 0, 0
	if len(data) >= len(segMagic) && string(data[:len(segMagic)]) == segMagic {
		valid = len(segMagic)
		for valid < len(data) {
			n, fr, ok := decodeFrame(data[valid:])
			if !ok {
				break
			}
			if err := s.foldFrame(fr, path); err != nil {
				return nil, err
			}
			valid += n
			frames++
		}
	} else if len(data) > 0 && len(data) < len(segMagic) && segMagic[:len(data)] == string(data) {
		// Torn write of the magic itself: rewrite it whole.
		valid = 0
	} else if len(data) > 0 {
		return nil, fmt.Errorf("store: %s: bad segment magic", path)
	}
	if valid < len(data) {
		s.stats.RecoveredBytes += int64(len(data) - valid)
		if s.opts.ReadOnly {
			// Report the damage, repair nothing: a live writer may own
			// this tail.
			return &segment{path: path, size: int64(valid), records: frames}, nil
		}
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, err
		}
	}
	if s.opts.ReadOnly {
		return &segment{path: path, size: int64(valid), records: frames}, nil
	}
	if valid == 0 {
		if err := writeFileSync(path, []byte(segMagic)); err != nil {
			return nil, err
		}
		valid = len(segMagic)
	}
	f, err := s.openWriter(path)
	if err != nil {
		return nil, err
	}
	return &segment{path: path, f: f, size: int64(valid), records: frames}, nil
}

// openWriter opens the append handle of one segment, applying the
// fault-injection wrapper when configured.
func (s *Store) openWriter(path string) (WriteSyncer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if s.opts.WrapSegmentWriter != nil {
		return s.opts.WrapSegmentWriter(f), nil
	}
	return f, nil
}

// foldFrame merges one decoded frame into the in-memory map, enforcing
// the purity invariant: a repeated frame with equal content is counted as
// a duplicate, but two durable frames disagreeing on a pure function of
// their key is corruption (or a buggy writer) — refuse to serve wrong
// answers from it. Verdict frames are only counted. Callers have
// exclusive access at Open.
func (s *Store) foldFrame(fr frame, path string) error {
	if fr.verdict {
		s.stats.SkippedVerdictFrames++
		return nil
	}
	if prev, seen := s.certs[fr.cert.Key()]; seen {
		if !prev.Equal(fr.cert.Set) {
			return fmt.Errorf("store: %s: conflicting persisted certificates for %v", path, fr.cert.Key())
		}
		s.stats.DuplicateFrames++
	}
	s.certs[fr.cert.Key()] = fr.cert.Set
	return nil
}

// frame is one decoded segment frame: a certificate, or a well-formed
// frame of the retired verdict kind (verdict set, cert zero), which the
// store skips.
type frame struct {
	cert    CertRecord
	verdict bool
}

// decodeFrame decodes one frame from the head of b, returning the frame
// size and its content. ok is false on a short, oversized, CRC-failing or
// undecodable frame — the truncation point during recovery.
func decodeFrame(b []byte) (n int, fr frame, ok bool) {
	if len(b) < frameHeader {
		return 0, frame{}, false
	}
	// Bounds-check the untrusted length as uint64: a corrupt prefix must
	// not wrap negative through int on 32-bit platforms.
	plen64 := uint64(binary.LittleEndian.Uint32(b))
	if plen64 == 0 || plen64 > maxFrameBytes || plen64 > uint64(len(b)-frameHeader) {
		return 0, frame{}, false
	}
	plen := int(plen64)
	payload := b[frameHeader : frameHeader+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, frame{}, false
	}
	fr, ok = decodePayload(payload)
	if !ok {
		return 0, frame{}, false
	}
	return frameHeader + plen, fr, true
}

// decodePayload decodes one non-empty frame payload, discriminated by its
// leading byte: certKind selects a certificate, anything else the retired
// verdict kind.
func decodePayload(p []byte) (frame, bool) {
	if p[0] != certKind {
		return frame{verdict: true}, isVerdictPayload(p)
	}
	variant := ""
	if len(p) >= 2 && p[1] == extMagic {
		// Extended (variant-tagged) frame: an unextended certificate's
		// second byte is its non-zero canonical-key length, so the
		// 0x00 0x00 prefix is unambiguous.
		var kind byte
		var err error
		if variant, kind, p, err = decodeExtended(p); err != nil {
			return frame{}, false
		}
		if kind == extVerdict {
			return frame{verdict: true}, isVerdictPayload(p)
		}
	}
	cert, err := decodeCertRecord(p)
	cert.Variant = variant
	return frame{cert: cert}, err == nil
}

func frameOf(payload []byte) []byte {
	buf := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

func encodeCertFrame(rec CertRecord) []byte { return frameOf(encodeCertRecord(rec)) }

// shardIndex is the single definition of the shard-assignment rule; the
// append path and Compact must agree on it or compaction would move
// records between segments.
func (s *Store) shardIndex(canon string) int {
	h := fnv.New32a()
	h.Write([]byte(canon))
	return int(h.Sum32()) % len(s.segs)
}

func (s *Store) shardOf(canon string) *segment { return s.segs[s.shardIndex(canon)] }

// Flush writes and fsyncs every pending record. After a successful Flush
// the records survive a crash of process and machine.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	var sp *obs.Span
	records, bytes0 := s.pending, s.stats.FlushedBytes
	if s.opts.Trace != nil && s.pending > 0 {
		sp = s.opts.Trace.Start("store_flush")
	}
	err := s.writePendingLocked()
	if err != nil {
		s.stats.FlushFailures++
		s.stats.LastFlushError = err.Error()
	}
	if sp != nil {
		attrs := obs.Attrs{"records": records - s.pending, "bytes": s.stats.FlushedBytes - bytes0}
		if err != nil {
			attrs["error"] = err.Error()
		}
		sp.End(attrs)
	}
	return err
}

func (s *Store) writePendingLocked() error {
	for _, seg := range s.segs {
		if len(seg.pending) == 0 {
			continue
		}
		if _, err := seg.f.Write(seg.pending); err != nil {
			// Roll a short write back to the last frame boundary: the
			// pending buffer is retained for retry, and without the
			// truncate a retry would append full frames after the torn
			// one — recovery would then silently drop them all.
			_ = seg.f.Truncate(seg.size)
			return err
		}
		seg.size += int64(len(seg.pending))
		s.stats.FlushedBytes += int64(len(seg.pending))
		s.pending -= countFrames(seg.pending)
		seg.pending = seg.pending[:0]
		seg.dirty = true
	}
	for _, seg := range s.segs {
		if !seg.dirty {
			continue
		}
		if err := seg.f.Sync(); err != nil {
			return err
		}
		seg.dirty = false
	}
	return nil
}

func countFrames(b []byte) int {
	n := 0
	for len(b) >= frameHeader {
		plen := int(binary.LittleEndian.Uint32(b))
		b = b[frameHeader+plen:]
		n++
	}
	return n
}

// PutCert appends a certificate record. A Put of an already-held key with
// the same interval set is a no-op; a conflicting set for a held key is
// rejected — certificates are pure functions of their key, so a conflict
// means a corrupted store or a buggy writer, never legitimate data.
func (s *Store) PutCert(rec CertRecord) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed || s.opts.ReadOnly {
		s.mu.Unlock()
		return fmt.Errorf("store: PutCert on a closed or read-only store")
	}
	if prev, ok := s.certs[rec.Key()]; ok {
		s.mu.Unlock()
		if !prev.Equal(rec.Set) {
			return fmt.Errorf("store: conflicting certificate for %v", rec.Key())
		}
		return nil
	}
	if rec.Variant != "" {
		if err := s.bumpMetaLocked(); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.certs[rec.Key()] = rec.Set
	s.stats.Appended++
	seg := s.shardOf(rec.Canon)
	seg.pending = append(seg.pending, encodeCertFrame(rec)...)
	seg.records++
	s.pending++
	flushNow := s.pending >= s.opts.FlushEvery
	if !flushNow {
		s.mu.Unlock()
		return nil
	}
	err := s.flushLocked()
	s.mu.Unlock()
	return err
}

// bumpMetaLocked records the codec-v2 requirement in META.json, durably,
// before the first variant-tagged frame is appended. Ordering matters: a
// pre-variant binary opening a store whose segments hold extended frames
// would mistake them for a torn tail and truncate every later frame away;
// bumping the version first makes it refuse the store at Open instead.
// Callers hold s.mu.
func (s *Store) bumpMetaLocked() error {
	if s.meta.Version >= 2 {
		return nil
	}
	m := s.meta
	m.Version = 2
	enc, _ := json.Marshal(m)
	if err := writeFileSync(filepath.Join(s.dir, "META.json"), append(enc, '\n')); err != nil {
		return fmt.Errorf("store: recording format version 2 for variant records: %w", err)
	}
	s.meta = m
	return nil
}

// GetCert returns the persisted certificate for k, if present.
func (s *Store) GetCert(k CertKey) (CertRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.certs[k]
	if !ok {
		return CertRecord{}, false
	}
	return CertRecord{Canon: k.Canon, Concept: k.Concept, Variant: k.Variant, Set: set}, true
}

// RangeCerts calls f for every certificate record (pending and durable
// alike) until f returns false. Iteration order is unspecified. The
// store's lock is not held during calls to f.
func (s *Store) RangeCerts(f func(CertRecord) bool) {
	s.mu.Lock()
	recs := make([]CertRecord, 0, len(s.certs))
	for k, set := range s.certs {
		recs = append(recs, CertRecord{Canon: k.Canon, Concept: k.Concept, Variant: k.Variant, Set: set})
	}
	s.mu.Unlock()
	for _, rec := range recs {
		if !f(rec) {
			return
		}
	}
}

// Len returns the number of distinct certificates held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.certs)
}

// Stats returns an observability snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.certs)
	st.Pending = s.pending
	st.DiskBytes = 0
	for _, seg := range s.segs {
		st.DiskBytes += seg.size
	}
	return st
}

// SegmentStat is one segment's share of a store — the skew-visibility
// breakdown behind `bncg store stats`: a fleet whose shards hash unevenly
// shows up as one segment's bytes dwarfing its siblings'.
type SegmentStat struct {
	// Name is the segment's file name within the store directory.
	Name string `json:"name"`
	// Bytes is the segment's durable size, including the magic header.
	Bytes int64 `json:"bytes"`
	// Records counts the segment's frames: those replayed from disk at
	// Open plus those appended (pending included) this session. Duplicate
	// frames count individually until Compact folds them.
	Records int `json:"records"`
}

// SegmentStats returns the per-segment byte and frame-count breakdown, in
// segment order.
func (s *Store) SegmentStats() []SegmentStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentStat, len(s.segs))
	for i, seg := range s.segs {
		out[i] = SegmentStat{
			Name:    filepath.Base(seg.path),
			Bytes:   seg.size + int64(len(seg.pending)),
			Records: seg.records,
		}
	}
	return out
}

// Compact rewrites every segment from the in-memory certificate set in
// deterministic key order, dropping duplicate frames and skipped verdict
// frames and reclaiming the space of truncated tails. Each segment is
// rebuilt in a temporary file, fsynced, and atomically renamed into place.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.opts.ReadOnly {
		return fmt.Errorf("store: Compact on a closed or read-only store")
	}
	diskBytes := func() int64 {
		var n int64
		for _, seg := range s.segs {
			n += seg.size
		}
		return n
	}
	sp := s.opts.Trace.Start("store_compact")
	before := diskBytes()
	defer func() {
		sp.End(obs.Attrs{"bytes_before": before, "bytes_after": diskBytes()})
	}()
	if err := s.flushLocked(); err != nil {
		return err
	}
	certKeys := make([]CertKey, 0, len(s.certs))
	for k := range s.certs {
		certKeys = append(certKeys, k)
	}
	sort.Slice(certKeys, func(i, j int) bool { return certKeys[i].less(certKeys[j]) })
	bufs := make([][]byte, len(s.segs))
	for i := range bufs {
		bufs[i] = []byte(segMagic)
	}
	counts := make([]int, len(s.segs))
	for _, k := range certKeys {
		rec := CertRecord{Canon: k.Canon, Concept: k.Concept, Variant: k.Variant, Set: s.certs[k]}
		idx := s.shardIndex(k.Canon)
		bufs[idx] = append(bufs[idx], encodeCertFrame(rec)...)
		counts[idx]++
	}
	for i, seg := range s.segs {
		tmp := seg.path + ".tmp"
		if err := writeFileSync(tmp, bufs[i]); err != nil {
			return err
		}
		if err := seg.f.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp, seg.path); err != nil {
			return err
		}
		f, err := s.openWriter(seg.path)
		if err != nil {
			return err
		}
		seg.f, seg.size, seg.dirty = f, int64(len(bufs[i])), false
		seg.records = counts[i]
	}
	s.stats.DuplicateFrames, s.stats.SkippedVerdictFrames = 0, 0
	return syncDir(s.dir)
}

// Close flushes pending records, fsyncs, releases the lock and closes the
// store. Further PutCerts fail.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.flushLocked()
	s.closed = true
	tick, tickDone := s.tick, s.tickDone
	s.mu.Unlock()
	if tick != nil {
		tick.Stop()
		close(tickDone)
	}
	s.closeFiles()
	s.releaseLock()
	return err
}

// releaseLock drops the flock by closing its file descriptor. The LOCK
// file itself stays behind (removing it would race a waiter holding the
// old inode open).
func (s *Store) releaseLock() {
	if s.lock != nil {
		_ = s.lock.Close()
		s.lock = nil
	}
}

func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		if seg.f != nil {
			_ = seg.f.Close()
		}
	}
}

// writeFileSync writes data to path and fsyncs the file, so the content is
// durable before the caller proceeds.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is best-effort: some filesystems refuse it.
	_ = d.Sync()
	return d.Close()
}
