package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"snowbma/internal/service"
)

// fakeDoneWorker is a worker that accepts every job, lists all of them
// as done, and answers each /result with the status code resultCode
// returns for that call (200 carries the result {"ok":true}).
func fakeDoneWorker(t *testing.T, resultCode func(call int64) int) (url string, posts, results *atomic.Int64) {
	posts, results = new(atomic.Int64), new(atomic.Int64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/jobs":
			n := posts.Add(1)
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(service.Status{ID: "w-" + strconv.FormatInt(n, 10), State: service.StateQueued}) //nolint:errcheck
		case r.URL.Path == "/jobs":
			var jobs []service.Status
			for i := int64(1); i <= posts.Load(); i++ {
				jobs = append(jobs, service.Status{ID: "w-" + strconv.FormatInt(i, 10), State: service.StateDone})
			}
			json.NewEncoder(w).Encode(map[string]any{"jobs": jobs}) //nolint:errcheck
		case r.URL.Path == "/healthz":
			w.Write([]byte("{}")) //nolint:errcheck
		default: // /jobs/<id>/result
			code := resultCode(results.Add(1))
			w.WriteHeader(code)
			if code != http.StatusOK {
				json.NewEncoder(w).Encode(map[string]string{"error": "boom"}) //nolint:errcheck
				return
			}
			w.Write([]byte(`{"status":{"state":"done"},"result":{"ok":true}}`)) //nolint:errcheck
		}
	}))
	t.Cleanup(srv.Close)
	return srv.URL, posts, results
}

// TestDoneJobWaitsForItsResult: a worker reports a job done but the
// first result fetch fails. The coordinator must not finalize the job
// with a null result (Result would then return nil for good); it keeps
// the job owned and fetches the result on the next poll.
func TestDoneJobWaitsForItsResult(t *testing.T) {
	url, posts, results := fakeDoneWorker(t, func(call int64) int {
		if call == 1 {
			return http.StatusInternalServerError
		}
		return http.StatusOK
	})
	c := New(Config{Workers: map[string]string{"w1": url}, HealthInterval: time.Hour})
	defer c.Shutdown(context.Background()) //nolint:errcheck
	st, err := c.Submit(attackSpec(1))
	if err != nil {
		t.Fatal(err)
	}

	c.pollJobs()
	if got, _ := c.Get(st.ID); service.Terminal(got.State) {
		t.Fatalf("after a failed result fetch the job is %s, want it still open", got.State)
	}
	c.pollJobs()
	res, got, err := c.Result(st.ID)
	if err != nil || got.State != service.StateDone {
		t.Fatalf("Result = %s, %v; want done", got.State, err)
	}
	if string(res) != `{"ok":true}` {
		t.Fatalf("result = %q, want the worker's {\"ok\":true}", res)
	}
	if n := results.Load(); n != 2 {
		t.Fatalf("%d result calls, want 2 (one failed, one retried)", n)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("%d dispatches, want 1: a failed fetch is no reason to rerun the job", n)
	}
}

// TestDoneJobWithLostResultIsRedispatched: a worker that lists a job as
// done but answers its /result with 404 has lost it; the coordinator
// reruns the job elsewhere instead of finalizing it empty.
func TestDoneJobWithLostResultIsRedispatched(t *testing.T) {
	url, posts, _ := fakeDoneWorker(t, func(call int64) int {
		if call == 1 {
			return http.StatusNotFound
		}
		return http.StatusOK
	})
	c := New(Config{Workers: map[string]string{"w1": url}, HealthInterval: time.Hour})
	defer c.Shutdown(context.Background()) //nolint:errcheck
	st, err := c.Submit(attackSpec(1))
	if err != nil {
		t.Fatal(err)
	}

	c.pollJobs()
	got, _ := c.Get(st.ID)
	if service.Terminal(got.State) || posts.Load() != 2 || got.RemoteID != "w-2" {
		t.Fatalf("after a 404 result: state %s, %d dispatches, remote %q; want open, 2, w-2",
			got.State, posts.Load(), got.RemoteID)
	}
	c.pollJobs()
	if res, got, err := c.Result(st.ID); err != nil || string(res) != `{"ok":true}` {
		t.Fatalf("Result = %q, %s, %v; want the rerun's result", res, got.State, err)
	}
}
