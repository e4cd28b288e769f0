package sweep

import (
	"fmt"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/store"
)

// This file attaches the in-memory certificate cache to the on-disk store
// of repro/internal/store: WarmStart replays persisted certificates into a
// cache at open, Persist registers the store as the cache's write-behind
// sink, and Checkpoint round-trips a sweep's grid spec through the store
// so an interrupted run can be resumed. Store and cache share the key type
// store.CertKey and hold the same immutable eq.AlphaSet values, so nothing
// is converted in either direction.

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

// CheckpointVersion is the current schema generation of the checkpoint
// JSON. Generation history:
//
//	0 — (absent field) the unversioned checkpoints of PR 3–6; accepted on
//	    load and upgraded to the current generation on the next save.
//	2 — the first versioned generation. The version field exists because
//	    the fleet lease table embeds a Checkpoint as its grid spec and
//	    shares the checkpoint.json slot's atomic-write discipline: the two
//	    documents (and any future schema change to either) must be
//	    distinguishable on disk, not by guessing at field shapes.
//	3 — adds the game-variant descriptor. Version-2 documents load as the
//	    default variant (the field is omitted there); version-3 documents
//	    are rejected by older binaries, which cannot evaluate the variant
//	    they describe.
//
// Loading rejects generations newer than this binary understands, so an
// old worker cannot silently misread a future coordinator's table.
const CheckpointVersion = 3

// Checkpoint is the durable description of a sweep grid plus its progress,
// saved alongside the certificate segments (store.SaveCheckpoint) so `bncg
// sweep -resume` can rebuild the exact Options of an interrupted run. The
// α and concept grids are stored as their exact string forms.
type Checkpoint struct {
	Version   int      `json:"version,omitempty"`
	N         int      `json:"n"`
	Source    string   `json:"source"`
	Alphas    []string `json:"alphas"`
	Concepts  []string `json:"concepts"`
	Variant   string   `json:"variant,omitempty"`
	Rho       bool     `json:"rho"`
	Total     int      `json:"total"`
	Completed int      `json:"completed"`
}

// NewCheckpoint captures the grid of opts with completed of total tasks
// done.
func NewCheckpoint(opts Options, total, completed int) Checkpoint {
	cp := Checkpoint{
		Version:   CheckpointVersion,
		N:         opts.N,
		Source:    opts.Source.String(),
		Variant:   opts.Variant.Key(),
		Rho:       opts.Rho,
		Total:     total,
		Completed: completed,
	}
	for _, a := range opts.Alphas {
		cp.Alphas = append(cp.Alphas, a.String())
	}
	for _, c := range opts.Concepts {
		cp.Concepts = append(cp.Concepts, c.String())
	}
	return cp
}

// Options rebuilds the sweep options the checkpoint describes. Worker
// count, cache and hooks are execution details, not grid spec, and are
// left zero for the caller to fill in. Unversioned checkpoints (the
// pre-fleet generation, Version 0) load unchanged — the field set is a
// strict superset of theirs — while generations newer than this binary's
// CheckpointVersion are rejected rather than misread.
func (cp Checkpoint) Options() (Options, error) {
	if cp.Version > CheckpointVersion {
		return Options{}, fmt.Errorf("sweep: checkpoint schema version %d is newer than this binary's %d", cp.Version, CheckpointVersion)
	}
	opts := Options{N: cp.N, Rho: cp.Rho}
	if cp.Variant != "" {
		v, err := game.ParseVariant(cp.Variant)
		if err != nil {
			return Options{}, fmt.Errorf("sweep: checkpoint variant: %w", err)
		}
		opts.Variant = v
	}
	switch cp.Source {
	case Graphs.String():
		opts.Source = Graphs
	case Trees.String():
		opts.Source = Trees
	default:
		return Options{}, fmt.Errorf("sweep: checkpoint with unknown source %q", cp.Source)
	}
	for _, s := range cp.Alphas {
		a, err := game.ParseAlpha(s)
		if err != nil {
			return Options{}, fmt.Errorf("sweep: checkpoint alpha: %w", err)
		}
		opts.Alphas = append(opts.Alphas, a)
	}
	for _, s := range cp.Concepts {
		c, err := eq.ParseConcept(s)
		if err != nil {
			return Options{}, fmt.Errorf("sweep: checkpoint concept: %w", err)
		}
		opts.Concepts = append(opts.Concepts, c)
	}
	return opts, nil
}
