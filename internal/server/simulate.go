package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/dynamics"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// ndjsonEncoder couples the JSON encoder with the response flusher so
// every streamed line reaches the client as it is produced.
type ndjsonEncoder struct {
	enc *json.Encoder
	fl  http.Flusher
}

func newNDJSONEncoder(w http.ResponseWriter) *ndjsonEncoder {
	fl, _ := w.(http.Flusher)
	return &ndjsonEncoder{enc: json.NewEncoder(w), fl: fl}
}

func (e *ndjsonEncoder) encode(v any) error {
	if err := e.enc.Encode(v); err != nil {
		return err
	}
	if e.fl != nil {
		e.fl.Flush()
	}
	return nil
}

// GET /v1/simulate — the sampled-dynamics workload: a batch of
// improving-response trajectories on the incremental-distance engine,
// streamed as NDJSON in deterministic index order. Unlike /v1/sweep there
// is no singleflight group: the seed parameterizes every batch, and each
// trajectory line streams as soon as its index is next, so requests
// compute inline under the normal admission control and request timeout.

// simHeader is the first NDJSON line: the batch parameters echoed back,
// so a saved stream is self-describing and replayable.
type simHeader struct {
	Type          string `json:"type"` // "header"
	SchemaVersion int    `json:"schema_version"`
	sim.Params
}

// simItemLine wraps one finished trajectory with the NDJSON line type.
type simItemLine struct {
	Type string `json:"type"` // "item"
	sim.Trajectory
}

// simSummary is the trailer: per-α aggregates plus completion state.
type simSummary struct {
	Type      string             `json:"type"` // "summary"
	Completed bool               `json:"completed"`
	Delivered int                `json:"delivered"`
	Summaries []sim.AlphaSummary `json:"summaries"`
	Error     string             `json:"error,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n, err := strconv.Atoi(q.Get("n"))
	if err != nil || n < 2 {
		writeError(w, badRequest("bad n %q", q.Get("n")))
		return
	}
	if n > s.cfg.MaxSimN {
		writeError(w, overLimit("n=%d exceeds the server limit %d", n, s.cfg.MaxSimN))
		return
	}
	alphas, err := s.parseAlphas(q)
	if err != nil {
		writeError(w, err)
		return
	}
	trajectories := 10
	if t := q.Get("trajectories"); t != "" {
		trajectories, err = strconv.Atoi(t)
		if err != nil || trajectories < 1 {
			writeError(w, badRequest("bad trajectories %q", t))
			return
		}
	}
	// Compare by division: the product alphas × trajectories can overflow.
	if trajectories > s.cfg.MaxTrajectories/len(alphas) {
		writeError(w, overLimit("%d alphas × %d trajectories exceed the server limit of %d trajectories",
			len(alphas), trajectories, s.cfg.MaxTrajectories))
		return
	}
	inits, err := sim.ParseInits(q.Get("init"))
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	kinds, err := dynamics.ParseMoves(q.Get("moves"))
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	sched, ok := dynamics.ParseScheduler(q.Get("scheduler"))
	if !ok {
		writeError(w, badRequest("unknown scheduler %q", q.Get("scheduler")))
		return
	}
	var seed uint64
	if v := q.Get("seed"); v != "" {
		seed, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, badRequest("bad seed %q", v))
			return
		}
	}
	var edgeProb float64
	if v := q.Get("p"); v != "" {
		edgeProb, err = strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, badRequest("bad edge probability %q", v))
			return
		}
	}
	maxSteps := 0
	if v := q.Get("max-steps"); v != "" {
		maxSteps, err = strconv.Atoi(v)
		if err != nil {
			writeError(w, badRequest("bad max-steps %q", v))
			return
		}
	}
	variant, err := s.parseVariant(q)
	if err != nil {
		writeError(w, err)
		return
	}
	opts, err := sim.Options{
		N:            n,
		Alphas:       alphas,
		Trajectories: trajectories,
		Inits:        inits,
		Kinds:        kinds,
		Scheduler:    sched,
		MaxSteps:     maxSteps,
		Seed:         seed,
		EdgeProb:     edgeProb,
		Workers:      s.cfg.Workers,
		Variant:      variant,
	}.Resolve()
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	enc := newNDJSONEncoder(w)
	header := simHeader{Type: "header", SchemaVersion: sweep.SchemaVersion, Params: opts.Params()}
	if enc.encode(header) != nil {
		return
	}

	clientGone := false
	opts.OnTrajectory = func(tr sim.Trajectory) {
		if clientGone {
			return
		}
		if enc.encode(simItemLine{Type: "item", Trajectory: tr}) != nil {
			clientGone = true
			cancel() // no reader left; stop the workers
		}
	}

	res, runErr := sim.Run(ctx, opts)
	if clientGone {
		return
	}
	summary := simSummary{
		Type:      "summary",
		Completed: res.Completed,
		Delivered: len(res.Items),
		Summaries: res.Summaries,
	}
	if runErr != nil {
		summary.Error = runErr.Error()
	}
	enc.encode(summary)
}
