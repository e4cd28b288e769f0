package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/sweep"
)

// Identical in-flight requests are deduplicated (singleflight): the first
// request for a key starts the computation, later ones attach to it, and
// the computation's context is cancelled as soon as the last subscriber
// disconnects — so abandoned work drains its workers instead of burning
// CPU for nobody. Two shapes are provided: flightGroup fans a streaming
// sweep out to any number of subscribers item by item, and callGroup
// deduplicates request/response computations such as the PoA search.

// flightGroup deduplicates streaming sweeps by normalized request key.
type flightGroup struct {
	mu      sync.Mutex
	m       map[string]*flight
	started int64 // computations ever started (observability)
}

func newFlightGroup() *flightGroup { return &flightGroup{m: make(map[string]*flight)} }

// live counts the sweeps currently in flight.
func (g *flightGroup) live() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

// startedCount counts the sweep computations ever started — requests
// served minus this is the singleflight dedup win.
func (g *flightGroup) startedCount() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.started
}

// hasFlight reports whether a flight for key is live — used only to label
// responses as shared; join remains the authoritative (atomic) attach.
func (g *flightGroup) hasFlight(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.m[key] != nil
}

// flight is one shared sweep computation. Subscribers read items by index
// under mu, sleeping on cond until the coordinator publishes more; the
// publisher is the sweep's own OnItem hook, so items arrive in the
// deterministic α-major stream order.
type flight struct {
	g   *flightGroup
	key string

	mu    sync.Mutex
	cond  *sync.Cond
	items []sweep.Item
	done  bool
	res   *sweep.Result
	err   error
	refs  int

	cancel context.CancelFunc
}

// join attaches to the flight for key, starting the computation via run
// when no flight is live. run is executed on a fresh goroutine with a
// context bounded by timeout and cancelled when the last subscriber
// leaves; it must call the returned flight's publish for every item and
// finish exactly once.
func (g *flightGroup) join(key string, timeout time.Duration, run func(ctx context.Context, fl *flight)) *flight {
	g.mu.Lock()
	defer g.mu.Unlock()
	fl := g.m[key]
	if fl == nil {
		g.started++
		fl = &flight{g: g, key: key}
		fl.cond = sync.NewCond(&fl.mu)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		fl.cancel = cancel
		g.m[key] = fl
		go func() {
			defer cancel()
			run(ctx, fl)
			g.remove(fl)
		}()
	}
	fl.mu.Lock()
	fl.refs++
	fl.mu.Unlock()
	return fl
}

// remove unmaps fl so later requests start fresh (typically served almost
// entirely from the certificate cache the finished flight just filled).
func (g *flightGroup) remove(fl *flight) {
	g.mu.Lock()
	if g.m[fl.key] == fl {
		delete(g.m, fl.key)
	}
	g.mu.Unlock()
}

// leave detaches a subscriber. The last leaver cancels the computation and
// unmaps the flight, so a fully abandoned sweep drains instead of running
// to completion for nobody. The decision is made under the group lock —
// the same lock join holds while attaching — so a departing last
// subscriber cannot cancel a flight a new request just joined.
func (fl *flight) leave() {
	fl.g.mu.Lock()
	fl.mu.Lock()
	fl.refs--
	last := fl.refs == 0 && !fl.done
	fl.mu.Unlock()
	if last && fl.g.m[fl.key] == fl {
		delete(fl.g.m, fl.key)
	}
	fl.g.mu.Unlock()
	if last {
		fl.cancel()
	}
}

// publish appends one item and wakes every subscriber.
func (fl *flight) publish(it sweep.Item) {
	fl.mu.Lock()
	fl.items = append(fl.items, it)
	fl.cond.Broadcast()
	fl.mu.Unlock()
}

// finish records the outcome and wakes every subscriber one last time.
func (fl *flight) finish(res *sweep.Result, err error) {
	fl.mu.Lock()
	fl.done = true
	fl.res, fl.err = res, err
	fl.cond.Broadcast()
	fl.mu.Unlock()
}

// next blocks until item i exists, the flight finished without producing
// it, or ctx is cancelled. The caller must have joined the flight and must
// arrange for cond.Broadcast on ctx cancellation (see watch).
func (fl *flight) next(ctx context.Context, i int) (it sweep.Item, ok bool) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for len(fl.items) <= i && !fl.done && ctx.Err() == nil {
		fl.cond.Wait()
	}
	if ctx.Err() != nil || len(fl.items) <= i {
		return sweep.Item{}, false
	}
	return fl.items[i], true
}

// outcome returns the final result; valid only after next returned false
// with a live context.
func (fl *flight) outcome() (*sweep.Result, error) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.res, fl.err
}

// watch wakes fl's subscribers when ctx is cancelled, so a disconnected
// client's handler never sleeps forever in next. The returned stop
// function releases the watcher.
func (fl *flight) watch(ctx context.Context) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		fl.mu.Lock()
		fl.cond.Broadcast()
		fl.mu.Unlock()
	})
}

// callGroup deduplicates non-streaming computations by key.
type callGroup struct {
	mu sync.Mutex
	m  map[string]*call
}

func newCallGroup() *callGroup { return &callGroup{m: make(map[string]*call)} }

type call struct {
	done   chan struct{}
	val    any
	err    error
	refs   int
	cancel context.CancelFunc
}

// Do returns the result of fn for key, computing it at most once across
// concurrent callers. The computation runs detached from any single
// caller, bounded by timeout; if every caller abandons it (ctx cancelled),
// it is cancelled too. shared reports whether the result was joined rather
// than started.
func (g *callGroup) Do(ctx context.Context, key string, timeout time.Duration, fn func(context.Context) (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	c := g.m[key]
	shared = c != nil
	if c == nil {
		cctx, cancel := context.WithTimeout(context.Background(), timeout)
		c = &call{done: make(chan struct{}), cancel: cancel}
		g.m[key] = c
		go func() {
			defer cancel()
			c.val, c.err = fn(cctx)
			g.mu.Lock()
			if g.m[key] == c {
				delete(g.m, key)
			}
			g.mu.Unlock()
			close(c.done)
		}()
	}
	c.refs++
	g.mu.Unlock()

	select {
	case <-c.done:
		g.mu.Lock()
		c.refs--
		g.mu.Unlock()
		return c.val, c.err, shared
	case <-ctx.Done():
		g.mu.Lock()
		c.refs--
		if c.refs == 0 {
			c.cancel()
			if g.m[key] == c {
				delete(g.m, key)
			}
		}
		g.mu.Unlock()
		return nil, ctx.Err(), shared
	}
}
