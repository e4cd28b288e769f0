package sweep

import (
	"encoding/json"

	"repro/internal/graph"
)

// SchemaVersion is the generation stamp every public JSON payload carries
// as "schema_version" — sweep results, /v1/* response bodies and the
// CLI's -json outputs alike. Generation history:
//
//	1 — the GameVariant redesign: payloads gain "schema_version" itself
//	    and a "variant" field (omitted for the paper's default model);
//	    every pre-existing field is unchanged, which the compatibility
//	    tests pin field by field.
//
// Consumers should ignore fields they do not know and reject versions
// newer than they understand.
const SchemaVersion = 1

// The JSON schema of a sweep result is part of the v2 API surface: field
// names and order are stable, α values and concepts render as their exact
// string forms, and each isomorphism class is encoded once in "graph_list"
// (in enumeration order) rather than per item. Consumers rejoin an item to
// its graph via "graph_index".
type resultJSON struct {
	SchemaVersion int               `json:"schema_version"`
	N             int               `json:"n"`
	Source        string            `json:"source"`
	Variant       string            `json:"variant,omitempty"`
	Alphas        []string          `json:"alphas"`
	Concepts      []string          `json:"concepts"`
	Workers       int               `json:"workers"`
	Graphs        int               `json:"graphs"`
	Completed     int               `json:"completed"`
	CacheHits     int64             `json:"cache_hits"`
	CacheMisses   int64             `json:"cache_misses"`
	Certified     int64             `json:"certified"`
	Critical      []ConceptCritical `json:"critical,omitempty"`
	GraphList     []string          `json:"graph_list"`
	Items         []itemJSON        `json:"items"`
}

// MarshalJSON renders one critical row as the stable schema every
// surface shares — `{"concept":"PS","alphas":["1","2"]}`, the concept's
// paper name and the breakpoints as exact rational strings, never floats.
// The sweep JSON, /v1/critical and `bncg critical -json` all serialize
// through this single definition.
func (c ConceptCritical) MarshalJSON() ([]byte, error) {
	alphas := make([]string, len(c.Alphas))
	for i, a := range c.Alphas {
		alphas[i] = a.String()
	}
	return json.Marshal(struct {
		Concept string   `json:"concept"`
		Alphas  []string `json:"alphas"`
	}{c.Concept.String(), alphas})
}

// CriticalPayload is the JSON form of a critical-α analysis, shared by
// `bncg critical -json` and /v1/critical; Report and Shared are set by
// the daemon only.
type CriticalPayload struct {
	SchemaVersion int               `json:"schema_version"`
	N             int               `json:"n"`
	Source        string            `json:"source"`
	Variant       string            `json:"variant,omitempty"`
	Classes       int               `json:"classes"`
	Critical      []ConceptCritical `json:"critical"`
	Report        string            `json:"report,omitempty"`
	Shared        bool              `json:"shared,omitempty"` // joined an in-flight computation
}

// CriticalPayload returns the critical-α analysis of a finished sweep.
func (r *Result) CriticalPayload() CriticalPayload {
	return CriticalPayload{
		SchemaVersion: SchemaVersion,
		N:             r.N,
		Source:        r.Source.String(),
		Variant:       r.Variant.Key(),
		Classes:       r.Graphs,
		Critical:      r.Critical,
	}
}

type itemJSON struct {
	AlphaIndex int     `json:"alpha_index"`
	GraphIndex int     `json:"graph_index"`
	Vector     uint16  `json:"vector"`
	Rho        float64 `json:"rho,omitempty"`
	FromCache  bool    `json:"from_cache,omitempty"`
	Done       bool    `json:"done"`
}

// MarshalJSON implements a stable JSON encoding of the sweep outcome. On a
// cancelled sweep, unfinished items carry "done": false and zero verdicts.
func (r *Result) MarshalJSON() ([]byte, error) {
	out := resultJSON{
		SchemaVersion: SchemaVersion,
		N:             r.N,
		Source:        r.Source.String(),
		Variant:       r.Variant.Key(),
		Alphas:        make([]string, len(r.Alphas)),
		Concepts:      make([]string, len(r.Concepts)),
		Workers:       r.Workers,
		Graphs:        r.Graphs,
		Completed:     r.Completed,
		CacheHits:     r.Hits,
		CacheMisses:   r.Misses,
		Certified:     r.Certified,
		GraphList:     make([]string, 0, r.Graphs),
		Items:         make([]itemJSON, len(r.Items)),
		Critical:      r.Critical,
	}
	for i, a := range r.Alphas {
		out.Alphas[i] = a.String()
	}
	for i, c := range r.Concepts {
		out.Concepts[i] = c.String()
	}
	complete := r.Completed == len(r.Items)
	for gi := 0; gi < r.Graphs; gi++ {
		if g := r.Items[gi].Graph; g != nil {
			out.GraphList = append(out.GraphList, graph.Encode(g))
		} else {
			// The α=0 row may be incomplete on a cancelled sweep; recover
			// the representative from any completed row.
			enc := ""
			for ai := 1; ai < len(r.Alphas); ai++ {
				if g := r.Items[ai*r.Graphs+gi].Graph; g != nil {
					enc = graph.Encode(g)
					break
				}
			}
			out.GraphList = append(out.GraphList, enc)
		}
	}
	for i, it := range r.Items {
		out.Items[i] = itemJSON{
			AlphaIndex: it.AlphaIndex,
			GraphIndex: it.GraphIndex,
			Vector:     uint16(it.Vector),
			Rho:        it.Rho,
			FromCache:  it.FromCache,
			Done:       complete || it.Graph != nil,
		}
		if !complete && it.Graph == nil {
			// Zero-value entry of a cancelled sweep: make the indices
			// self-describing anyway.
			out.Items[i].AlphaIndex = i / r.Graphs
			out.Items[i].GraphIndex = i % r.Graphs
		}
	}
	return json.Marshal(out)
}
