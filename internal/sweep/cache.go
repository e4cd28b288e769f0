package sweep

import (
	"sync"
	"sync/atomic"

	"repro/internal/eq"
	"repro/internal/store"
)

// CacheStats is an observability snapshot of a Cache.
type CacheStats struct {
	// Entries counts the memoized certificates.
	Entries int `json:"entries"`
	// Hits and Misses count verdicts answered from a certificate and
	// verdicts that fell through to a checker or certification, across
	// the cache's lifetime (surviving individual sweeps, unlike
	// Result.Hits/Misses which cover one run). A certificate hit counts
	// once per α it answered.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Cache memoizes parametric stability certificates across sweeps, keyed
// by store.CertKey — the key the store files them under. It is safe for
// concurrent use by any number of sweep workers.
type Cache struct {
	mu    sync.RWMutex
	certs map[store.CertKey]eq.AlphaSet
	sink  func(store.CertKey, eq.AlphaSet)

	hits, misses atomic.Int64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{certs: make(map[store.CertKey]eq.AlphaSet)}
}

// Len returns the number of memoized certificates.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.certs)
}

// Stats returns the entry count and lifetime hit/miss counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Entries: c.Len(),
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
	}
}

// GetCert returns the memoized certificate for k, if present. It does not
// touch the hit/miss counters: the sweep engine counts per answered
// verdict, not per certificate (see lookupCert).
func (c *Cache) GetCert(k store.CertKey) (eq.AlphaSet, bool) {
	c.mu.RLock()
	set, ok := c.certs[k]
	c.mu.RUnlock()
	return set, ok
}

// CountLookup credits one verdict to the hit counter (answered from a
// certificate) or the miss counter (computed by a checker) without
// performing a lookup. The serving daemon uses it for /v1/check: GetCert
// itself stays uncounted so the sweep engine can keep its per-grid-price
// accounting (lookupCert), but every served verdict must move the
// daemon's exposed hit ratio.
func (c *Cache) CountLookup(hit bool) { c.count(hit, 1) }

func (c *Cache) count(hit bool, verdicts int64) {
	if hit {
		c.hits.Add(verdicts)
	} else {
		c.misses.Add(verdicts)
	}
}

// PutCert memoizes a certificate (and forwards it to the persistence
// sink, when one is attached). Certificates are pure functions of their
// key, so a repeat Put is a no-op.
func (c *Cache) PutCert(k store.CertKey, set eq.AlphaSet) {
	c.mu.Lock()
	_, seen := c.certs[k]
	if !seen {
		c.certs[k] = set
	}
	sink := c.sink
	c.mu.Unlock()
	if !seen && sink != nil {
		sink(k, set)
	}
}

// RangeCerts calls f for every memoized certificate until f returns
// false, without holding the cache lock during calls.
func (c *Cache) RangeCerts(f func(store.CertKey, eq.AlphaSet) bool) {
	type entry struct {
		k   store.CertKey
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
func (c *Cache) lookupCert(k store.CertKey, alphas int) (eq.AlphaSet, bool) {
	set, ok := c.GetCert(k)
	c.count(ok, int64(alphas))
	return set, ok
}

// insertCert adds a certificate without touching the sink or the counters
// — the warm-start path, where entries come from the sink's own backing.
func (c *Cache) insertCert(k store.CertKey, set eq.AlphaSet) {
	c.mu.Lock()
	c.certs[k] = set
	c.mu.Unlock()
}
