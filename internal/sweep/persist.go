package sweep

import (
	"repro/internal/eq"
	"repro/internal/store"
)

// This file attaches the in-memory certificate cache to the on-disk store
// of repro/internal/store: WarmStart replays persisted certificates into a
// cache at open, and Persist registers the store as the cache's
// write-behind sink. An interrupted sweep is continued by re-running it
// against the same store: every certificate it persisted comes back as a
// hit. Store and cache share the key type store.CertKey and hold the same
// immutable eq.AlphaSet values, so nothing is converted in either
// direction.

// WarmStart loads every certificate persisted in st into c and returns
// the number loaded. Loaded entries do not re-enter the store when
// Persist is also attached, and they count neither as hits nor misses.
func (c *Cache) WarmStart(st *store.Store) int {
	n := 0
	st.RangeCerts(func(r store.CertRecord) bool {
		c.insertCert(r.Key(), r.Set)
		n++
		return true
	})
	return n
}

// Persist registers st as c's write-behind sink: every certificate newly
// computed into the cache — by sweeps, PoA searches, or direct PutCerts —
// is appended to the store, which batches and fsyncs on its own schedule.
// Call WarmStart first; entries already persisted are never re-appended
// because the cache forwards only keys it had not seen. Persist(nil)
// detaches the sink.
func (c *Cache) Persist(st *store.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st == nil {
		c.sink = nil
		return
	}
	// PutCert can only fail on I/O or a conflicting entry; the cache has
	// no error channel, so persistence degrades to best-effort and the
	// authoritative copy stays in memory.
	c.sink = func(k store.CertKey, set eq.AlphaSet) {
		_ = st.PutCert(store.CertRecord{Canon: k.Canon, Concept: k.Concept, Variant: k.Variant, Set: set})
	}
}
