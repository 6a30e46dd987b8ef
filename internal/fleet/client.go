package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"snowbma/internal/service"
)

// errRemoteNotFound: the worker answered but does not know the job —
// it restarted without (or with a different) durable store. The
// coordinator reclaims and redispatches on this, distinct from a
// transport failure (which counts against the worker's lease instead).
var errRemoteNotFound = errors.New("fleet: job unknown to worker")

// workerError is a worker-side HTTP rejection: the worker is alive and
// said no (invalid spec, full queue, tenant over quota). Dispatch
// propagates it to the submitter instead of walking the ring.
type workerError struct {
	code int
	msg  string
}

func (e *workerError) Error() string {
	return fmt.Sprintf("worker HTTP %d: %s", e.code, e.msg)
}

// client is the coordinator's HTTP client over the workers' existing
// service API — no fleet-specific wire protocol.
type client struct {
	hc *http.Client
}

// requestTimeout bounds each HTTP call to a worker.
const requestTimeout = 10 * time.Second

func newClient() *client {
	return &client{hc: &http.Client{Timeout: requestTimeout}}
}

// decodeError extracts the service API's {"error": ...} body.
func decodeError(resp *http.Response) *workerError {
	var body struct {
		Error string `json:"error"`
	}
	json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body) //nolint:errcheck
	return &workerError{code: resp.StatusCode, msg: body.Error}
}

// submit POSTs a spec to the worker; a non-202 answer is a workerError.
func (c *client) submit(baseURL string, spec service.JobSpec) (service.Status, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return service.Status{}, err
	}
	resp, err := c.hc.Post(baseURL+"/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		return service.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return service.Status{}, decodeError(resp)
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.Status{}, err
	}
	return st, nil
}

// statusAll fetches every job status the worker holds in one request,
// keyed by the worker's job id. One list per worker per monitor tick
// replaces a GET per in-flight job.
func (c *client) statusAll(baseURL string) (map[string]service.Status, error) {
	resp, err := c.hc.Get(baseURL + "/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var body struct {
		Jobs []service.Status `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	out := make(map[string]service.Status, len(body.Jobs))
	for _, st := range body.Jobs {
		out[st.ID] = st
	}
	return out, nil
}

// result fetches a terminal job's result JSON alongside its status.
func (c *client) result(baseURL, id string) (json.RawMessage, service.Status, error) {
	resp, err := c.hc.Get(baseURL + "/jobs/" + id + "/result")
	if err != nil {
		return nil, service.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, service.Status{}, errRemoteNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return nil, service.Status{}, decodeError(resp)
	}
	var body struct {
		Status service.Status  `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, service.Status{}, err
	}
	return body.Result, body.Status, nil
}

// healthz reports process liveness: any HTTP answer counts (a draining
// worker returns 503 but still finishes its jobs); only transport
// failure is death.
func (c *client) healthz(baseURL string) bool {
	resp, err := c.hc.Get(baseURL + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12)) //nolint:errcheck
	resp.Body.Close()
	return true
}
