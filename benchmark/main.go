// Command benchmark is the repository's end-to-end benchmark. It runs one
// of four workloads in one process, through the packages' exported
// functions, and checks every op's answer:
//
//	certify-n6     one sweep.Run per n=6 class, all nine concepts
//	sweep-n7       one sweep.Run over all 853 n=7 classes, six concepts
//	serve-check    POST /v1/check on a loopback daemon backed by a store
//	simulate-n128  one sim.Run batch of n=128 trajectories
//
// Usage, from the repository root (benchmark/run.sh builds and runs it):
//
//	bncgbench --workload certify-n6 --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) first repeats the untraced measurement, then measures again
// with per-layer timing and prints the per-layer metrics. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// README.md explains each workload, each metric and the measured spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its workload. setup_s is the
// median, so one slow build (cold page cache, first heap growth) does not
// set the figure.
const setupReps = 3

// untracedProcs is how many child processes an untraced run is split
// over; see runUntraced.
const untracedProcs = 5

// maxLoggedErrors bounds the failure messages one run prints to stderr.
const maxLoggedErrors = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

// instance is one set-up workload.
type instance interface {
	// begin starts a measurement phase.
	begin(traced bool)
	// op runs op i, counted from 0 across the run's phases, and returns the
	// time spent in the call into the system. Building the input and
	// checking the answer happen outside that time. A non-nil error means
	// the call failed or its answer was wrong.
	op(i int, traced bool) (time.Duration, error)
	// end closes a phase and reports a broken workload invariant, such as a
	// cache hit ratio that drifted from its design.
	end() error
	// layers returns the per-layer metrics of the traced phase, which ran
	// the given number of ops. Every "layer.*_ms" value is that layer's own
	// time per op, so that they and unattributed_ms add up to op_mean_ms.
	layers(ops int) map[string]float64
	// close releases the instance and stops everything it started.
	close() error
}

// workloads maps a workload name to its set-up function.
var workloads = map[string]func(config) (instance, error){
	"certify-n6":    newCertifyN6,
	"sweep-n7":      newSweepN7,
	"serve-check":   newServeCheck,
	"simulate-n128": newSimulateN128,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run, with their units. Every
// workload reports all of them; a layer the workload does not use reads 0.
var perLayer = []struct{ name, unit string }{
	{"op_mean_ms", "ms"},
	{"op_samples", "count"},
	{"op_tail_pct", "%"},
	{"error_share", "ratio"},
	{"trace.overhead", "ratio"},
	{"unattributed_ms", "ms"},
	{"layer.graph_ms", "ms"},
	{"layer.eq_ms", "ms"},
	{"layer.sweep_ms", "ms"},
	{"layer.store_ms", "ms"},
	{"layer.server_ms", "ms"},
	{"layer.dynamics_ms", "ms"},
	{"layer.sim_ms", "ms"},
	{"graph.enumerate_ms", "ms"},
	{"graph.classes", "count"},
	{"graph.canonical_key_us", "us"},
	{"graph.incdist_build_ms", "ms"},
	{"eq.certify_ms.RE", "ms"},
	{"eq.certify_ms.BAE", "ms"},
	{"eq.certify_ms.PS", "ms"},
	{"eq.certify_ms.BSwE", "ms"},
	{"eq.certify_ms.BGE", "ms"},
	{"eq.certify_ms.BNE", "ms"},
	{"eq.certify_ms.2-BSE", "ms"},
	{"eq.certify_ms.3-BSE", "ms"},
	{"eq.certify_ms.BSE", "ms"},
	{"eq.bse_share", "ratio"},
	{"eq.check_miss_us", "us"},
	{"sweep.overhead_ms", "ms"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"store.warmstart_ms", "ms"},
	{"store.appended", "count"},
	{"store.flushes", "count"},
	{"server.hit_p50_ms", "ms"},
	{"server.hit_tail_ms", "ms"},
	{"server.miss_p50_ms", "ms"},
	{"server.miss_tail_ms", "ms"},
	{"server.handler_hit_us", "us"},
	{"server.handler_miss_us", "us"},
	{"server.handler_allocs_per_req", "count"},
	{"server.transport_us", "us"},
	{"dynamics.steps_per_op", "count"},
	{"dynamics.converged_share", "ratio"},
	{"dynamics.step_us", "us"},
	{"sim.overhead_ms", "ms"},
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory for stores")
	child := flag.Bool("child", false, "measure untraced in this process and print the raw measurement (how an untraced run runs its children)")
	flag.Parse()
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if cfg.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	var res any
	var err error
	switch {
	case *child:
		res, err = measureUntraced(cfg)
	case cfg.trace:
		res, err = runTraced(cfg)
	default:
		res, err = runUntraced(cfg, untracedProcs)
	}
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// session is one process's set-up workload.
type session struct {
	cfg        config
	inst       instance
	setups     []float64 // seconds
	invariants int       // broken workload invariants
	logged     int
}

// phase is one timed stretch of ops.
type phase struct {
	lat    []time.Duration
	failed int
}

// open sets the workload up setupReps times and keeps the last instance.
func open(cfg config) (*session, error) {
	newInstance, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	s := &session{cfg: cfg, setups: make([]float64, 0, setupReps)}
	for rep := 0; rep < setupReps; rep++ {
		if s.inst != nil {
			if err := s.inst.close(); err != nil {
				return nil, err
			}
			s.inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		s.inst, err = newInstance(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
	}
	return s, nil
}

// measure runs ops, numbered from first, for cfg.seconds.
func (s *session) measure(first int, traced bool) *phase {
	p := &phase{}
	s.inst.begin(traced)
	deadline := time.Now().Add(time.Duration(s.cfg.seconds * float64(time.Second)))
	for i := first; time.Now().Before(deadline); i++ {
		d, err := s.inst.op(i, traced)
		p.lat = append(p.lat, d)
		if err != nil {
			p.failed++
			if s.logged < maxLoggedErrors {
				fmt.Fprintf(os.Stderr, "benchmark: %s op %d: %v\n", s.cfg.workload, i, err)
				s.logged++
			}
		}
	}
	if err := s.inst.end(); err != nil {
		s.invariants++
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.cfg.workload, err)
	}
	return p
}

// measurement is one process's untraced run before it is reduced to
// metrics.
type measurement struct {
	Lat        []time.Duration `json:"lat"` // in op order
	Failed     int             `json:"failed"`
	Invariants int             `json:"invariants"`
	Setups     []float64       `json:"setups"`
	PeakRSSMB  float64         `json:"peak_rss_mb"`
}

// measureUntraced sets the workload up, measures it untraced and closes it.
func measureUntraced(cfg config) (*measurement, error) {
	s, err := open(cfg)
	if err != nil {
		return nil, err
	}
	p := s.measure(0, false)
	if err := s.inst.close(); err != nil {
		return nil, err
	}
	return &measurement{Lat: p.lat, Failed: p.failed, Invariants: s.invariants, Setups: s.setups, PeakRSSMB: peakRSSMB()}, nil
}

// runUntraced measures the workload in procs child processes of this
// program, one after another, each set up afresh and measuring
// seconds/procs, and reduces their ops together to the end-to-end
// metrics. The machine settles a process into one of several speeds that
// lasts its lifetime (see README.md), so the figures of one process are
// one draw of that speed; several processes average it out.
func runUntraced(cfg config, procs int) (*result, error) {
	if procs == 1 {
		m, err := measureUntraced(cfg)
		if err != nil {
			return nil, err
		}
		return endToEndResult(cfg, []*measurement{m})
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ms := make([]*measurement, 0, procs)
	for i := 0; i < procs; i++ {
		cmd := exec.Command(exe, "--child", "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds/float64(procs), 'g', -1, 64), "--workdir", cfg.workdir)
		cmd.Stderr = os.Stderr
		// The child dies with this process, however this process ends.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("child %d: %w", i, err)
		}
		m := &measurement{}
		if err := json.Unmarshal(out, m); err != nil {
			return nil, fmt.Errorf("child %d: %w", i, err)
		}
		ms = append(ms, m)
	}
	return endToEndResult(cfg, ms)
}

// endToEndResult reduces the measurements of one or more processes to the
// end-to-end metrics: ops_per_s, op_p50_ms and op_tail_ms over all their
// ops in order (see windowStats), setup_s the median of all their set-ups,
// peak_rss_mb the median of their peaks.
func endToEndResult(cfg config, ms []*measurement) (*result, error) {
	var lat []time.Duration
	var setups, rss []float64
	res := &result{}
	invariants := 0
	for _, m := range ms {
		lat = append(lat, m.Lat...)
		setups = append(setups, m.Setups...)
		rss = append(rss, m.PeakRSSMB)
		res.Failed += m.Failed
		invariants += m.Invariants
	}
	res.Attempted = len(lat)
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed", cfg.workload)
	}
	res.Correct = res.Failed == 0 && invariants == 0
	sorted := sortedMs(lat)
	st := windowStats(lat)
	fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d: %d ops in %d processes, p50 %.4g ms, p90 %.4g ms, p99 %.4g ms, p99.9 %.4g ms; median of %d windows: %.5g ops/s, p50 %.4g ms, tail p%.5g %.4g ms; setup %.4g s (median of %d), %d failed\n",
		cfg.workload, cfg.seed, len(sorted), len(ms), median(sorted), quantile(sorted, 0.9), quantile(sorted, 0.99), quantile(sorted, 0.999),
		st.windows, st.opsPerS, st.p50Ms, st.tailPct, st.tailMs, median(setups), len(setups), res.Failed)
	values := map[string]float64{
		"ops_per_s":   st.opsPerS,
		"op_p50_ms":   st.p50Ms,
		"op_tail_ms":  st.tailMs,
		"setup_s":     median(setups),
		"peak_rss_mb": median(rss),
	}
	res.Metrics = make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}

// runTraced measures the workload untraced and then traced, in this
// process, and reports the per-layer metrics.
func runTraced(cfg config) (*result, error) {
	s, err := open(cfg)
	if err != nil {
		return nil, err
	}
	plain := s.measure(0, false)
	traced := s.measure(len(plain.lat), true)
	layers := s.inst.layers(len(traced.lat))
	if err := s.inst.close(); err != nil {
		return nil, err
	}

	res := &result{Attempted: len(plain.lat) + len(traced.lat), Failed: plain.failed + traced.failed}
	if len(plain.lat) == 0 || len(traced.lat) == 0 {
		return nil, fmt.Errorf("%s: no op completed in a phase", cfg.workload)
	}
	res.Correct = res.Failed == 0 && s.invariants == 0

	sorted := sortedMs(plain.lat)
	tracedMs := sortedMs(traced.lat)
	layers["op_mean_ms"] = sum(tracedMs) / float64(len(tracedMs))
	layers["op_samples"] = float64(len(sorted))
	layers["op_tail_pct"] = windowStats(plain.lat).tailPct
	layers["error_share"] = float64(res.Failed) / float64(res.Attempted)
	layers["trace.overhead"] = median(tracedMs) / median(sorted)
	attributed := 0.0
	for name, v := range layers {
		if strings.HasPrefix(name, "layer.") {
			attributed += v
		}
	}
	layers["unattributed_ms"] = layers["op_mean_ms"] - attributed
	res.Metrics = make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		delete(layers, m.name)
	}
	for name := range layers {
		return nil, fmt.Errorf("%s reports unlisted per-layer metric %q", cfg.workload, name)
	}
	return res, nil
}

// maxWindows and minWindowOps set how a phase is cut into windows: as many
// consecutive stretches of equal op count as fit, up to maxWindows, each
// holding at least minWindowOps ops, so that every window still has 10
// samples beyond its p99.
const (
	maxWindows   = 10
	minWindowOps = 1000
)

// opStats holds the untraced phase's op metrics.
type opStats struct {
	windows                         int
	opsPerS, p50Ms, tailMs, tailPct float64
}

// windowStats takes throughput, median and tail (see tail) over each window
// of lat, which is in op order, and returns the median of each across the
// windows. A disturbance of the machine that covers fewer than half of the
// windows then moves none of the three. A phase of fewer than
// 2*minWindowOps ops is one window.
func windowStats(lat []time.Duration) opStats {
	k := min(maxWindows, max(1, len(lat)/minWindowOps))
	var rates, p50s, tails, pcts []float64
	for w := 0; w < k; w++ {
		s := sortedMs(lat[w*len(lat)/k : (w+1)*len(lat)/k])
		rates = append(rates, float64(len(s))/(sum(s)/1000))
		p50s = append(p50s, median(s))
		t, pct := tail(s)
		tails = append(tails, t)
		pcts = append(pcts, pct)
	}
	return opStats{windows: k, opsPerS: median(rates), p50Ms: median(p50s), tailMs: median(tails), tailPct: median(pcts)}
}

func sortedMs(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the median of xs, sorting a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// tail returns the highest percentile of sorted that has at least 10
// samples beyond it, capped at p99, and which percentile that is: the
// value with max(10, n/100) samples above it. The cap keeps the figure off
// the last tenths of a percent of a quarter-million-request run, where
// store fsyncs sit and whose latency is the disk's, not the program's.
// Below 11 samples it returns the largest value.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n < 11 {
		return sorted[n-1], 100
	}
	beyond := max(10, n/100)
	return sorted[n-beyond-1], 100 * float64(n-beyond) / float64(n)
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
