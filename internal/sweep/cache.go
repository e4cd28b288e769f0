package sweep

import (
	"sync"
	"sync/atomic"

	"repro/internal/eq"
)

// Key identifies one memoized stability verdict: the canonical form of the
// graph, the exact (reduced) edge price, and the solution concept.
//
// Stability is an isomorphism invariant — the cost function depends only on
// degrees and distances — so one verdict per canonical form is sound. The
// two canonical encodings in use cannot collide with each other: CanonicalKey
// strings are over the bytes {0x00, 0x01} and FreeTreeKey strings over
// "()". Witness moves, by contrast, are label-dependent and therefore never
// cached; cached verdicts carry the stability bit only.
//
// Variant is the game variant's canonical descriptor (game.Variant.Key();
// "" for the paper's default model): the same class and price can be
// stable in one variant and unstable in another, so verdicts of distinct
// variants are distinct entries.
type Key struct {
	Canon    string
	Num, Den int64
	Concept  eq.Concept
	Variant  string
}

// CertKey identifies one memoized stability certificate: the canonical
// form, the concept and the game variant (as its canonical descriptor, ""
// for the default). A certificate answers every α at once, so the price
// is not part of the key — that is the whole economy of the parametric
// engine: one cache entry (and one persisted record) replaces a per-α row
// of verdicts.
type CertKey struct {
	Canon   string
	Concept eq.Concept
	Variant string
}

// CacheStats is an observability snapshot of a Cache.
type CacheStats struct {
	// Entries counts the memoized entries: per-α verdicts plus
	// certificates.
	Entries int `json:"entries"`
	// Verdicts and Certificates break Entries down by kind.
	Verdicts     int `json:"verdicts"`
	Certificates int `json:"certificates"`
	// Hits and Misses count verdicts served from memory and verdicts that
	// fell through to a checker or certification, across the cache's
	// lifetime (surviving individual sweeps, unlike Result.Hits/Misses
	// which cover one run). A certificate hit counts once per α it
	// answered.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Cache memoizes per-concept stability verdicts and parametric stability
// certificates across sweeps. It is safe for concurrent use by any number
// of sweep workers.
type Cache struct {
	mu       sync.RWMutex
	m        map[Key]bool
	certs    map[CertKey]eq.AlphaSet
	sink     func(Key, bool)
	sinkCert func(CertKey, eq.AlphaSet)

	hits, misses atomic.Int64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: make(map[Key]bool), certs: make(map[CertKey]eq.AlphaSet)}
}

// Get returns the memoized verdict for k, if present, counting the lookup
// in Stats.
func (c *Cache) Get(k Key) (stable, ok bool) {
	c.mu.RLock()
	stable, ok = c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return stable, ok
}

// Put memoizes a verdict (and forwards it to the persistence sink, when
// one is attached).
func (c *Cache) Put(k Key, stable bool) {
	c.mu.Lock()
	_, seen := c.m[k]
	c.m[k] = stable
	sink := c.sink
	c.mu.Unlock()
	if !seen && sink != nil {
		sink(k, stable)
	}
}

// Len returns the number of memoized entries (verdicts plus certificates).
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m) + len(c.certs)
}

// Stats returns the entry counts and lifetime hit/miss counters.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	verdicts, certs := len(c.m), len(c.certs)
	c.mu.RUnlock()
	return CacheStats{
		Entries:      verdicts + certs,
		Verdicts:     verdicts,
		Certificates: certs,
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
	}
}

// GetCert returns the memoized certificate for k, if present. It does not
// touch the hit/miss counters: the sweep engine counts per answered
// verdict, not per certificate (see lookupCert).
func (c *Cache) GetCert(k CertKey) (eq.AlphaSet, bool) {
	c.mu.RLock()
	set, ok := c.certs[k]
	c.mu.RUnlock()
	return set, ok
}

// CountHit credits one cache hit without performing a lookup. The
// serving daemon uses it when /v1/check answers from a certificate:
// GetCert itself stays uncounted so the sweep engine can keep its
// per-grid-price accounting (lookupCert), but a certificate-served
// request is a cache hit in serving terms and must move the daemon's
// exposed hit ratio.
func (c *Cache) CountHit() { c.hits.Add(1) }

// PutCert memoizes a certificate (and forwards it to the persistence
// sink, when one is attached). Certificates are pure functions of their
// key, so a repeat Put is a no-op.
func (c *Cache) PutCert(k CertKey, set eq.AlphaSet) {
	c.mu.Lock()
	_, seen := c.certs[k]
	if !seen {
		c.certs[k] = set
	}
	sink := c.sinkCert
	c.mu.Unlock()
	if !seen && sink != nil {
		sink(k, set)
	}
}

// RangeCerts calls f for every memoized certificate until f returns
// false, without holding the cache lock during calls.
func (c *Cache) RangeCerts(f func(CertKey, eq.AlphaSet) bool) {
	type entry struct {
		k   CertKey
		set eq.AlphaSet
	}
	c.mu.RLock()
	entries := make([]entry, 0, len(c.certs))
	for k, set := range c.certs {
		entries = append(entries, entry{k, set})
	}
	c.mu.RUnlock()
	for _, e := range entries {
		if !f(e.k, e.set) {
			return
		}
	}
}

// lookupCert is the sweep engine's certificate fetch: a hit counts once
// per grid price it is about to answer, so Result.Hits/Misses and the
// lifetime counters stay in verdict units across engine generations.
func (c *Cache) lookupCert(k CertKey, alphas int) (eq.AlphaSet, bool) {
	set, ok := c.GetCert(k)
	if ok {
		c.hits.Add(int64(alphas))
	} else {
		c.misses.Add(int64(alphas))
	}
	return set, ok
}

// insertCert adds a certificate without touching the sink or the counters
// — the warm-start path, where entries come from the sink's own backing.
func (c *Cache) insertCert(k CertKey, set eq.AlphaSet) {
	c.mu.Lock()
	c.certs[k] = set
	c.mu.Unlock()
}

// Range calls f for every memoized verdict until f returns false, without
// holding the cache lock during calls. Iteration order is unspecified.
func (c *Cache) Range(f func(Key, bool) bool) {
	c.mu.RLock()
	type entry struct {
		k      Key
		stable bool
	}
	entries := make([]entry, 0, len(c.m))
	for k, stable := range c.m {
		entries = append(entries, entry{k, stable})
	}
	c.mu.RUnlock()
	for _, e := range entries {
		if !f(e.k, e.stable) {
			return
		}
	}
}

// insert adds a verdict without touching the sink or the counters — the
// warm-start path, where the entries come from the sink's own backing.
func (c *Cache) insert(k Key, stable bool) {
	c.mu.Lock()
	c.m[k] = stable
	c.mu.Unlock()
}
