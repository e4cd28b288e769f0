// Package experiments contains one runner per table row and figure of the
// paper. Each runner produces a Report: formatted result rows plus named
// pass/fail checks asserting the paper's qualitative claims (the "shape"
// of each result). The bench harness in the repository root and the
// `bncg experiment` CLI subcommand both dispatch into this package.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sweep"
)

// Scale selects how much work a runner does.
type Scale int

// Quick keeps every runner in CI-friendly time; Full extends sweeps for
// the recorded EXPERIMENTS.md numbers.
const (
	Quick Scale = iota + 1
	Full
)

// Check is a named assertion about an experiment's outcome.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is the outcome of one experiment. SchemaVersion stamps the JSON
// form with the public payload generation (the legacy fields keep their
// historical capitalized keys).
type Report struct {
	SchemaVersion int `json:"schema_version"`
	ID            string
	Title         string
	Lines         []string
	Checks        []Check
}

func (r *Report) addLinef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) addCheck(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// AllPass reports whether every check passed.
func (r *Report) AllPass() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s: %s\n", status, c.Name, c.Detail)
	}
	return b.String()
}

// MarshalJSON implements a stable JSON encoding of the report: snake_case
// keys in fixed order, with an aggregate "all_pass" so consumers need not
// re-derive it.
func (r *Report) MarshalJSON() ([]byte, error) {
	type checkJSON struct {
		Name   string `json:"name"`
		Pass   bool   `json:"pass"`
		Detail string `json:"detail"`
	}
	out := struct {
		SchemaVersion int         `json:"schema_version"`
		ID            string      `json:"id"`
		Title         string      `json:"title"`
		Lines         []string    `json:"lines"`
		Checks        []checkJSON `json:"checks"`
		AllPass       bool        `json:"all_pass"`
	}{
		SchemaVersion: r.SchemaVersion,
		ID:            r.ID,
		Title:         r.Title,
		Lines:         r.Lines,
		Checks:        make([]checkJSON, len(r.Checks)),
		AllPass:       r.AllPass(),
	}
	if out.Lines == nil {
		out.Lines = []string{}
	}
	for i, c := range r.Checks {
		out.Checks[i] = checkJSON{Name: c.Name, Pass: c.Pass, Detail: c.Detail}
	}
	return json.Marshal(out)
}

// Runner executes an experiment at a scale. Runners observe ctx through
// the engines they drive (sweeps, PoA searches, dynamics) and return a
// partial report when it is cancelled.
type Runner func(context.Context, Scale) *Report

// registry maps experiment IDs to runners; populated by init functions in
// the per-experiment files.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate experiment id %q", id))
	}
	registry[id] = r
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given ID. Cancelling ctx stops the
// experiment at the granularity of its underlying sweeps and searches; the
// partial report produced so far is returned together with ctx.Err().
func Run(ctx context.Context, id string, s Scale) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	rep := r(ctx, s)
	if rep != nil {
		rep.SchemaVersion = sweep.SchemaVersion
	}
	return rep, ctx.Err()
}
