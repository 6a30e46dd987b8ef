package fleet

import (
	"encoding/json"
	"errors"
	"net/http"

	"snowbma/internal/obs"
	"snowbma/internal/service"
)

// Handler returns the coordinator's HTTP API — deliberately shaped like
// the worker API so clients move between a single serve process and a
// fleet by changing the base URL:
//
//	POST   /jobs             submit a JobSpec → 202 Status
//	                         (worker rejections pass through: 400/429;
//	                         413 body over service.MaxSpecBytes; 503 no
//	                         live workers or shutting down)
//	GET    /jobs             list fleet job statuses
//	GET    /jobs/{id}        one fleet job's status
//	GET    /jobs/{id}/result terminal job's result (409 while running)
//	GET    /workers          fleet membership + per-worker assignments
//	POST   /workers          join a worker {"name": ..., "url": ...}
//	DELETE /workers/{name}   depart a worker (its jobs are redispatched)
//	GET    /events           SSE stream of fleet + job lifecycle events
//	GET    /healthz          liveness + live/total worker counts
//	GET    /metrics          Prometheus text format
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", c.handleSubmit)
	mux.HandleFunc("GET /jobs", c.handleList)
	mux.HandleFunc("GET /jobs/{id}", c.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", c.handleResult)
	mux.HandleFunc("GET /workers", c.handleWorkers)
	mux.HandleFunc("POST /workers", c.handleAddWorker)
	mux.HandleFunc("DELETE /workers/{name}", c.handleRemoveWorker)
	mux.HandleFunc("GET /events", c.handleEvents)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
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

// httpError maps coordinator errors onto status codes. A workerError
// passes its original status through, so a tenant over quota sees the
// same 429 from the fleet as from a single worker; a spec rejected by
// coordinator-side validation carries the same typed ErrSpec — and so
// the same 400 envelope — the worker engine would have produced.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var wErr *workerError
	switch {
	case errors.As(err, &wErr):
		code = wErr.code
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
	case errors.As(err, new(*http.MaxBytesError)):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, service.ErrSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNoWorkers), errors.Is(err, ErrShuttingDown):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrNotFinished):
		code = http.StatusConflict
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := service.DecodeSpec(w, r)
	if err != nil {
		httpError(w, err)
		return
	}
	st, err := c.Submit(spec)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (c *Coordinator) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: c.List()})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := c.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	result, st, err := c.Result(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status Status          `json:"status"`
		Result json.RawMessage `json:"result,omitempty"`
	}{Status: st, Result: result})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Workers []WorkerInfo `json:"workers"`
	}{Workers: c.Workers()})
}

func (c *Coordinator) handleAddWorker(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Name string `json:"name"`
		URL  string `json:"url"`
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, service.MaxSpecBytes)).Decode(&body)
	if errors.As(err, new(*http.MaxBytesError)) {
		httpError(w, err) // 413
		return
	}
	if err != nil || body.Name == "" || body.URL == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "want {\"name\": ..., \"url\": ...}"})
		return
	}
	c.AddWorker(body.Name, body.URL)
	writeJSON(w, http.StatusOK, struct {
		Workers []WorkerInfo `json:"workers"`
	}{Workers: c.Workers()})
}

func (c *Coordinator) handleRemoveWorker(w http.ResponseWriter, r *http.Request) {
	c.RemoveWorker(r.PathValue("name"))
	writeJSON(w, http.StatusOK, struct {
		Workers []WorkerInfo `json:"workers"`
	}{Workers: c.Workers()})
}

func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	c.tel.Counter("fleet.sse_streams").Inc()
	obs.ServeSSE(w, r, c.bus, obs.SSEOptions{After: obs.SSEFromNow}) //nolint:errcheck
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	workers := c.Workers()
	live := 0
	for _, wi := range workers {
		if wi.Live {
			live++
		}
	}
	c.mu.Lock()
	jobs := len(c.jobs)
	pending := 0
	for _, j := range c.jobs {
		if !j.terminal() {
			pending++
		}
	}
	closed := c.closed
	c.mu.Unlock()
	body := struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Live    int    `json:"live"`
		Jobs    int    `json:"jobs"`
		Pending int    `json:"pending"`
	}{Status: "ok", Workers: len(workers), Live: live, Jobs: jobs, Pending: pending}
	code := http.StatusOK
	switch {
	case closed:
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	case live == 0:
		body.Status = "no live workers"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteMetricsText(w, c.tel.Metrics, obs.Default()) //nolint:errcheck
}
