package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// grid is the α grid of both sweep workloads.
var grid = []game.Alpha{game.AFrac(1, 2), game.A(1), game.A(2), game.A(4)}

// nonCoalition are the six concepts without a coalition scan.
var nonCoalition = []eq.Concept{eq.RE, eq.BAE, eq.PS, eq.BSwE, eq.BGE, eq.BNE}

// certifyN6Reference holds the certificate of every connected n=6 class
// under every concept, one "key<TAB>concept<TAB>certificate" line each,
// with the canonical key written as '0'/'1' characters. It was generated
// with `go test -run TestReference -update` and cross-checked against
// eq.Check at the grid prices by TestReferenceAgreesWithCheck.
//
//go:embed reference/certify-n6.tsv
var certifyN6Reference string

// criticalDigestN7 is the SHA-256 of Result.CriticalReport() for the
// sweep-n7 op: all 853 connected n=7 classes under the six non-coalition
// concepts.
const criticalDigestN7 = "9c7354686cf69cd287e6d5b8b6457c3be0fabb93b83ac4a04e36cf1801c06899"

// sweepBench runs one sweep.Run per op: a one-class range of the n=6
// stream (certify-n6) or the whole n=7 stream (sweep-n7).
type sweepBench struct {
	n        int
	concepts []eq.Concept
	perClass bool

	// certify-n6: the class stream's canonical keys, the reference
	// certificates, and the pass order over class positions.
	keys  []string
	ref   map[string]string // refKey(key, concept) → certificate
	rng   *rand.Rand
	order []int
	edges []int

	// sweep-n7: the pinned CriticalReport digest.
	digest string

	tally sweepTally
}

// sweepTally sums the sweep's own spans over the traced ops.
type sweepTally struct {
	opNS                                 int64
	enumerateUS, classUS, certifyTotalUS int64
	certifyUS                            map[eq.Concept]int64
	classes                              int
}

func refKey(key string, c eq.Concept) string { return key + "/" + c.String() }

// bitKey renders a canonical key (bytes 0x00/0x01) as '0'/'1' characters.
func bitKey(key string) string {
	b := []byte(key)
	for i := range b {
		b[i] += '0'
	}
	return string(b)
}

// parseReference reads the certify-n6 reference table.
func parseReference(text string) (map[string]string, error) {
	ref := make(map[string]string)
	for i, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("reference line %d: want 3 tab-separated fields, got %d", i+1, len(parts))
		}
		c, err := eq.ParseConcept(parts[1])
		if err != nil {
			return nil, fmt.Errorf("reference line %d: %w", i+1, err)
		}
		ref[refKey(parts[0], c)] = parts[2]
	}
	return ref, nil
}

func newCertifyN6(cfg config) (instance, error) {
	ref, err := parseReference(certifyN6Reference)
	if err != nil {
		return nil, err
	}
	b := &sweepBench{n: 6, concepts: eq.Concepts(), perClass: true, ref: ref, rng: rand.New(rand.NewSource(cfg.seed))}
	for g, cl := range graph.AllClasses(6, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
		key := bitKey(cl.Key)
		for _, c := range b.concepts {
			if _, ok := ref[refKey(key, c)]; !ok {
				return nil, fmt.Errorf("reference has no %s certificate for class %d", c, len(b.keys))
			}
		}
		b.keys = append(b.keys, key)
		b.edges = append(b.edges, g.M())
	}
	if len(b.keys) != 112 {
		return nil, fmt.Errorf("enumerated %d connected n=6 classes, want 112", len(b.keys))
	}
	// Warm up on the first classes of the stream; fixed, so set-up time
	// does not depend on the seed.
	for cls := 0; cls < 4; cls++ {
		if _, err := sweep.Run(context.Background(), b.classOptions(cls, nil)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

func newSweepN7(cfg config) (instance, error) {
	b := &sweepBench{n: 7, concepts: nonCoalition, digest: criticalDigestN7}
	// Warm up on the n=6 stream: the same code path at a tenth of the
	// cost. The workload has no random input; the seed is unused.
	if _, err := sweep.Run(context.Background(), sweep.Options{
		N: 6, Alphas: grid, Concepts: b.concepts, Workers: 1, Cache: sweep.NewCache(),
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// nextClass returns the class position of the next certify-n6 op. Each
// pass visits every class once in a fresh seeded order, stratified by edge
// count: the classes are split into strata of similar density, and every
// round of the pass takes one class from each stratum. A run that stops
// mid-pass has therefore seen the sparse and dense classes in proportion.
func (b *sweepBench) nextClass() int {
	if len(b.order) == 0 {
		b.order = stratifiedOrder(b.edges, 8, b.rng)
	}
	cls := b.order[0]
	b.order = b.order[1:]
	return cls
}

// stratifiedOrder returns a permutation of 0..len(weights)-1: positions
// sorted by weight are cut into strata of the given size, each stratum is
// shuffled, and rounds take one element from every stratum in a shuffled
// stratum order.
func stratifiedOrder(weights []int, size int, rng *rand.Rand) []int {
	idx := make([]int, len(weights))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return weights[idx[a]] < weights[idx[b]] })
	var strata [][]int
	for lo := 0; lo < len(idx); lo += size {
		s := append([]int(nil), idx[lo:min(lo+size, len(idx))]...)
		rng.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		strata = append(strata, s)
	}
	order := make([]int, 0, len(idx))
	for round := 0; round < size; round++ {
		perm := rng.Perm(len(strata))
		for _, si := range perm {
			if round < len(strata[si]) {
				order = append(order, strata[si][round])
			}
		}
	}
	return order
}

func (b *sweepBench) begin(traced bool) {
	if traced {
		b.tally = sweepTally{certifyUS: make(map[eq.Concept]int64)}
	}
}

func (b *sweepBench) end() error { return nil }

func (b *sweepBench) close() error { return nil }

func (b *sweepBench) op(_ int, traced bool) (time.Duration, error) {
	var buf *bytes.Buffer
	var tr *obs.Tracer
	if traced {
		buf = new(bytes.Buffer)
		tr = obs.NewTracer(buf, obs.TracerOptions{Source: "benchmark"})
	}
	var d time.Duration
	var err error
	if b.perClass {
		d, err = b.certifyClass(b.nextClass(), tr)
	} else {
		d, err = b.sweepAll(tr)
	}
	if traced {
		b.tally.opNS += d.Nanoseconds()
		if terr := b.tally.add(tr, buf); terr != nil && err == nil {
			err = terr
		}
	}
	return d, err
}

// classOptions are the certify-n6 op's options for class position cls:
// all nine concepts, a fresh cache, one worker.
func (b *sweepBench) classOptions(cls int, tr *obs.Tracer) sweep.Options {
	return sweep.Options{
		N: 6, Alphas: grid, Concepts: b.concepts, Workers: 1, Cache: sweep.NewCache(),
		ClassStart: cls, ClassEnd: cls + 1, Trace: tr,
	}
}

// certifyClass runs the certify-n6 op on class position cls and checks
// every certificate against the reference.
func (b *sweepBench) certifyClass(cls int, tr *obs.Tracer) (time.Duration, error) {
	t0 := time.Now()
	res, err := sweep.Run(context.Background(), b.classOptions(cls, tr))
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if res.Graphs != 1 {
		return d, fmt.Errorf("class %d: sweep returned %d classes", cls, res.Graphs)
	}
	key := bitKey(res.Items[0].Graph.CanonicalKey())
	if key != b.keys[cls] {
		return d, fmt.Errorf("class %d: sweep certified a different class", cls)
	}
	for ci, c := range b.concepts {
		if got, want := res.Cert(0, ci).String(), b.ref[refKey(key, c)]; got != want {
			return d, fmt.Errorf("class %d %s: certificate %s, reference %s", cls, c, got, want)
		}
	}
	return d, nil
}

// sweepAll runs the sweep-n7 op and checks its critical report against the
// pinned digest.
func (b *sweepBench) sweepAll(tr *obs.Tracer) (time.Duration, error) {
	t0 := time.Now()
	res, err := sweep.Run(context.Background(), sweep.Options{
		N: b.n, Alphas: grid, Concepts: b.concepts, Workers: 1, Cache: sweep.NewCache(), Trace: tr,
	})
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	sum := sha256.Sum256([]byte(res.CriticalReport()))
	if got := hex.EncodeToString(sum[:]); got != b.digest {
		return d, fmt.Errorf("critical report digest %s, pinned %s", got, b.digest)
	}
	return d, nil
}

// add folds one traced op's spans into the tally: the "enumerate" span,
// the per-class "class" spans, and the "certify" spans nested in them.
func (t *sweepTally) add(tr *obs.Tracer, buf *bytes.Buffer) error {
	if err := tr.Flush(); err != nil {
		return err
	}
	parsed, err := obs.ReadTrace(buf, "op")
	if err != nil {
		return err
	}
	for _, sp := range parsed.Spans {
		switch sp.Name {
		case "enumerate":
			t.enumerateUS += sp.DurUS
			if n, ok := sp.Attrs["classes"].(float64); ok {
				t.classes += int(n)
			}
		case "class":
			t.classUS += sp.DurUS
		case "certify":
			c, err := eq.ParseConcept(fmt.Sprint(sp.Attrs["concept"]))
			if err != nil {
				return fmt.Errorf("certify span: %w", err)
			}
			t.certifyUS[c] += sp.DurUS
			t.certifyTotalUS += sp.DurUS
		}
	}
	return nil
}

func (b *sweepBench) layers(ops int) map[string]float64 {
	t := b.tally
	perOp := func(us int64) float64 { return float64(us) / 1000 / float64(ops) }
	m := map[string]float64{
		"graph.enumerate_ms": perOp(t.enumerateUS),
		"graph.classes":      float64(t.classes) / float64(ops),
		"layer.graph_ms":     perOp(t.enumerateUS),
		"layer.eq_ms":        perOp(t.certifyTotalUS),
		// The class span's own time: cache writes, reading the verdicts
		// off the α grid, assembling the items.
		"layer.sweep_ms": perOp(t.classUS - t.certifyTotalUS),
		// Everything in the op besides enumeration and certification: the
		// class spans' own time plus what runs outside any span (worker
		// start, hand-off, the critical-price report).
		"sweep.overhead_ms": float64(t.opNS)/1e6/float64(ops) - perOp(t.enumerateUS+t.certifyTotalUS),
		"eq.bse_share":      float64(t.certifyUS[eq.BSE]) * 1000 / float64(t.opNS),
	}
	for _, c := range eq.Concepts() {
		m["eq.certify_ms."+c.String()] = perOp(t.certifyUS[c])
	}
	return m
}
