package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func httpJSON(t *testing.T, method, url string, body any, out any) (int, http.Header) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func TestHTTPLifecycle(t *testing.T) {
	fn, release := gate()
	e := newStubEngine(1, 1, fn)
	defer e.Shutdown(context.Background())
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	// Invalid specs are 400.
	var eb errorBody
	if code, _ := httpJSON(t, "POST", srv.URL+"/jobs", JobSpec{Kind: "nope"}, &eb); code != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", code)
	}
	if code, _ := httpJSON(t, "POST", srv.URL+"/jobs", map[string]any{"kind": "attack", "bogus": 1}, &eb); code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", code)
	}

	// Submit: 202 with a Location header.
	var st Status
	code, hdr := httpJSON(t, "POST", srv.URL+"/jobs", JobSpec{Kind: KindAttack}, &st)
	if code != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit = %d %+v", code, st)
	}
	if loc := hdr.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}
	waitState(t, e, st.ID, StateRunning)

	// Fill the queue, then overflow: 429 with Retry-After.
	var queued Status
	if code, _ := httpJSON(t, "POST", srv.URL+"/jobs", JobSpec{Kind: KindAttack}, &queued); code != http.StatusAccepted {
		t.Fatalf("queue slot = %d, want 202", code)
	}
	code, hdr = httpJSON(t, "POST", srv.URL+"/jobs", JobSpec{Kind: KindAttack}, &eb)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Status and result endpoints.
	var got Status
	if code, _ := httpJSON(t, "GET", srv.URL+"/jobs/"+st.ID, nil, &got); code != http.StatusOK || got.State != StateRunning {
		t.Fatalf("status = %d %+v", code, got)
	}
	if code, _ := httpJSON(t, "GET", srv.URL+"/jobs/job-9999", nil, &eb); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}
	if code, _ := httpJSON(t, "GET", srv.URL+"/jobs/"+st.ID+"/result", nil, &eb); code != http.StatusConflict {
		t.Fatalf("result while running = %d, want 409", code)
	}
	if code, _ := httpJSON(t, "GET", srv.URL+"/jobs/"+st.ID+"/trace", nil, &eb); code != http.StatusConflict {
		t.Fatalf("trace while running = %d, want 409", code)
	}

	// Cancel the queued job over HTTP.
	var cancelled Status
	if code, _ := httpJSON(t, "DELETE", srv.URL+"/jobs/"+queued.ID, nil, &cancelled); code != http.StatusAccepted || cancelled.State != StateCancelled {
		t.Fatalf("cancel = %d %+v", code, cancelled)
	}

	release()
	waitState(t, e, st.ID, StateDone)
	var res struct {
		Status Status `json:"status"`
		Result any    `json:"result"`
	}
	if code, _ := httpJSON(t, "GET", srv.URL+"/jobs/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if res.Status.State != StateDone || res.Result != "ok" {
		t.Fatalf("result body = %+v", res)
	}

	// List shows both accepted jobs in submission order — the 429'd
	// submission was never registered.
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if code, _ := httpJSON(t, "GET", srv.URL+"/jobs", nil, &list); code != http.StatusOK || len(list.Jobs) != 2 {
		t.Fatalf("list = %d, %d jobs", code, len(list.Jobs))
	}
	if list.Jobs[0].ID != st.ID {
		t.Fatalf("list order: first is %s, want %s", list.Jobs[0].ID, st.ID)
	}

	// Trace: NDJSON with a meta line and the service.job span.
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 || !strings.Contains(lines[0], `"meta"`) {
		t.Fatalf("trace does not start with a meta line: %q", lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "service.job") {
		t.Fatal("trace is missing the service.job span")
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	e := newStubEngine(1, 1, instant)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	st, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, st.ID, StateDone)

	var hz struct {
		Status string `json:"status"`
		Jobs   int    `json:"jobs"`
	}
	if code, _ := httpJSON(t, "GET", srv.URL+"/healthz", nil, &hz); code != http.StatusOK || hz.Status != "ok" || hz.Jobs != 1 {
		t.Fatalf("healthz = %d %+v", code, hz)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"service_jobs_submitted_total 1",
		"service_jobs_done_total 1",
		"# TYPE service_workers gauge",
		// Duration bucket histograms: queue wait and run time, full
		// Prometheus histogram exposition with a +Inf bucket.
		"# TYPE service_job_queue_wait_ms histogram",
		"# TYPE service_job_run_ms histogram",
		`service_job_queue_wait_ms_bucket{le="+Inf"} 1`,
		`service_job_run_ms_bucket{le="+Inf"} 1`,
		`service_job_run_ms_bucket{le="1"} `,
		"service_job_run_ms_count 1",
		"service_job_queue_wait_ms_count 1",
		// Runtime profiling gauges from the background poller.
		"# TYPE runtime_goroutines gauge",
		"# TYPE runtime_heap_alloc_bytes gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// Draining: healthz flips to 503.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := httpJSON(t, "GET", srv.URL+"/healthz", nil, &hz); code != http.StatusServiceUnavailable || hz.Status != "draining" {
		t.Fatalf("healthz during drain = %d %+v", code, hz)
	}
	if code, _ := httpJSON(t, "POST", srv.URL+"/jobs", JobSpec{Kind: KindAttack}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", code)
	}
}

// TestHTTPSubmitErrorShapes pins the contract that every way a submit
// can fail produces the same typed-error shape through httpError: the
// status code matches the error class and the body's error string
// carries the sentinel's prefix, whether the failure happened during
// JSON decoding or during spec validation.
func TestHTTPSubmitErrorShapes(t *testing.T) {
	fn, release := gate()
	defer release()
	e := newStubEngine(1, 1, fn)
	defer e.Shutdown(context.Background())
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	cases := []struct {
		name     string
		body     string
		code     int
		sentinel error
	}{
		{"malformed-json", `{"kind": `, http.StatusBadRequest, ErrSpec},
		{"wrong-type", `{"kind": 7}`, http.StatusBadRequest, ErrSpec},
		{"unknown-field", `{"kind": "attack", "bogus": 1}`, http.StatusBadRequest, ErrSpec},
		{"unknown-kind", `{"kind": "nope"}`, http.StatusBadRequest, ErrSpec},
		{"findlut-missing-expr", `{"kind": "findlut"}`, http.StatusBadRequest, ErrSpec},
		{"campaign-missing-runs", `{"kind": "campaign"}`, http.StatusBadRequest, ErrSpec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.code)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if !strings.HasPrefix(eb.Error, tc.sentinel.Error()) {
				t.Fatalf("error %q does not carry the %q shape", eb.Error, tc.sentinel.Error())
			}
		})
	}
}
