package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"snowbma/internal/obs"
)

// Handler returns the engine's HTTP API:
//
//	POST   /jobs            submit a JobSpec → 202 Status
//	                        (400 invalid spec, 413 body over MaxSpecBytes,
//	                        429 queue full or tenant over quota, 503
//	                        shutting down)
//	GET    /jobs            list job statuses
//	GET    /jobs/{id}       one job's status
//	GET    /jobs/{id}/result terminal job's result (409 while queued/running)
//	GET    /jobs/{id}/trace  terminal job's NDJSON telemetry trace
//	DELETE /jobs/{id}       cancel (idempotent; 202 with the new status)
//	GET    /jobs/{id}/events one job's live SSE event stream (replays the
//	                        ring from the start of the job, then follows
//	                        live until the job goes terminal)
//	GET    /events          firehose SSE stream of every bus event
//	                        (live-only unless Last-Event-ID resumes)
//	GET    /healthz         liveness + queue occupancy (503 when draining)
//	GET    /metrics         Prometheus text format (engine + process registries)
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", e.handleSubmit)
	mux.HandleFunc("GET /jobs", e.handleList)
	mux.HandleFunc("GET /jobs/{id}", e.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", e.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", e.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/events", e.handleJobEvents)
	mux.HandleFunc("DELETE /jobs/{id}", e.handleCancel)
	mux.HandleFunc("GET /events", e.handleEvents)
	mux.HandleFunc("GET /healthz", e.handleHealthz)
	mux.HandleFunc("GET /metrics", e.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

type errorBody struct {
	Error string `json:"error"`
}

// httpError maps the engine's typed errors onto status codes.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrQuotaExceeded):
		// Same 429 as a full queue, but the body names the tenant's
		// quota so clients can tell "service busy" from "over my share".
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrNotFinished):
		code = http.StatusConflict
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// MaxSpecBytes caps a POST /jobs body on the engine and on the fleet
// coordinator. A JobSpec carries no bitstream, so 1 MiB is ample.
const MaxSpecBytes = 1 << 20

// Caps on a JobSpec's size fields. A spec of a few dozen bytes must not
// be able to ask for a billion scenarios, designs or goroutines: each of
// those is allocated or started before the job can fail. Validate, the
// one gate for engine submits, the fleet coordinator and WAL recovery,
// rejects any value above its cap with ErrSpec.
const (
	// MaxSpecRuns caps campaign.runs.
	MaxSpecRuns = 1 << 14
	// MaxSpecDesigns caps corpus.designs and the length of corpus.indices.
	MaxSpecDesigns = 1 << 14
	// MaxSpecWorkers caps every worker-count field: parallel,
	// campaign.parallel, corpus.parallel and corpus.workers.
	MaxSpecWorkers = 256
	// MaxSpecPadFrames caps victim.pad_frames. Each pad frame adds
	// bitstream.FrameBytes (404) to the image, so the cap adds at most
	// 53 MB and a padded victim stays under bitstream.MaxImageBytes.
	MaxSpecPadFrames = 1 << 17
)

// DecodeSpec reads one JobSpec from r's body, capped at MaxSpecBytes and
// rejecting unknown fields. Decode failures take the same typed-error
// path as validation failures: every one wraps ErrSpec, so clients (and
// errors.Is in tests) see one envelope for every malformed spec. An
// oversized body also wraps *http.MaxBytesError (answered with 413).
func DecodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("%w: %w", ErrSpec, err)
	}
	return spec, nil
}

func (e *Engine) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(w, r)
	if err != nil {
		httpError(w, err)
		return
	}
	st, err := e.Submit(spec)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (e *Engine) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: e.List()})
}

func (e *Engine) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := e.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (e *Engine) handleResult(w http.ResponseWriter, r *http.Request) {
	result, st, err := e.Result(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status Status `json:"status"`
		Result any    `json:"result,omitempty"`
	}{Status: st, Result: result})
}

func (e *Engine) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Probe the job first so errors are JSON, not half-written NDJSON.
	e.mu.Lock()
	j, ok := e.jobs[id]
	terminal := ok && j.terminal()
	e.mu.Unlock()
	if !ok {
		httpError(w, ErrNotFound)
		return
	}
	if !terminal {
		httpError(w, ErrNotFinished)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Disposition", "attachment; filename=\""+id+".ndjson\"")
	e.WriteTrace(w, id) //nolint:errcheck // headers are committed; nothing to signal
}

func (e *Engine) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := e.Cancel(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (e *Engine) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	e.mu.Lock()
	queued := e.queuedLocked()
	running := 0
	for _, j := range e.jobs {
		if j.state == StateRunning {
			running++
		}
	}
	total := len(e.jobs)
	closed := e.closed
	e.mu.Unlock()
	hits, misses, evictions := e.CacheStats()
	body := struct {
		Status  string `json:"status"`
		Queued  int    `json:"queued"`
		Running int    `json:"running"`
		Jobs    int    `json:"jobs"`
		Cache   struct {
			Hits      int `json:"hits"`
			Misses    int `json:"misses"`
			Evictions int `json:"evictions"`
		} `json:"victim_cache"`
	}{Status: "ok", Queued: queued, Running: running, Jobs: total}
	body.Cache.Hits, body.Cache.Misses, body.Cache.Evictions = hits, misses, evictions
	code := http.StatusOK
	if closed {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (e *Engine) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteMetricsText(w, e.tel.Metrics, obs.Default()) //nolint:errcheck
}

// terminalStateName reports whether a job-event name is a terminal
// lifecycle state.
func terminalStateName(name string) bool {
	switch name {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// handleEvents is the firehose: every bus event, live-only by default
// (a reconnecting client resumes from its Last-Event-ID). The stream
// runs until the client disconnects or the engine shuts down.
func (e *Engine) handleEvents(w http.ResponseWriter, r *http.Request) {
	e.serveSSE(w, r, obs.SSEOptions{After: obs.SSEFromNow})
}

// handleJobEvents streams one job's events: ring replay from the start
// of the job (so a mid-job subscriber catches up), then live until the
// terminal job event. For a job whose terminal event has already been
// evicted from the ring, a synthetic terminal event closes the stream
// instead of leaving the client waiting on history that will never
// replay.
func (e *Engine) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := e.Get(id); err != nil {
		httpError(w, err)
		return
	}
	e.serveSSE(w, r, obs.SSEOptions{
		Filter: func(ev obs.BusEvent) bool { return ev.Job == id },
		Done: func(ev obs.BusEvent) bool {
			return ev.Type == obs.EventJob && terminalStateName(ev.Name)
		},
		Epilogue: func() *obs.BusEvent {
			st, err := e.Get(id)
			if err != nil || !terminalStateName(st.State) {
				return nil // still live (or pruned): follow the bus
			}
			ev := obs.BusEvent{Type: obs.EventJob, Job: id, Name: st.State}
			if st.Error != "" {
				ev.Attrs = map[string]any{"error": st.Error}
			}
			return &ev
		},
	})
}

func (e *Engine) serveSSE(w http.ResponseWriter, r *http.Request, opt obs.SSEOptions) {
	e.tel.Counter("service.sse_streams").Inc()
	obs.ServeSSE(w, r, e.bus, opt) //nolint:errcheck // stream is committed; nothing to signal
}
