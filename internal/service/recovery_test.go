package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"snowbma/internal/store"
)

// crashLog authors a WAL exactly as a crashed engine would have left
// it: two finished jobs, one job killed mid-run, one killed while still
// queued. Returning the directory lets the test Open a fresh engine
// over the wreckage.
func crashLog(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	w, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(tenant string) json.RawMessage {
		b, err := json.Marshal(JobSpec{Kind: KindAttack, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	recs := []store.Record{
		{Job: "job-0001", State: StateQueued, Kind: KindAttack, Spec: spec("")},
		{Job: "job-0001", State: StateRunning},
		{Job: "job-0001", State: StateDone, Result: json.RawMessage(`{"verified":true,"loads":3}`)},
		{Job: "job-0002", State: StateQueued, Kind: KindAttack, Spec: spec("acme")},
		{Job: "job-0002", State: StateRunning},
		{Job: "job-0002", State: StateFailed, Error: "device wedged"},
		{Job: "job-0003", State: StateQueued, Kind: KindAttack, Spec: spec("acme")},
		{Job: "job-0003", State: StateRunning}, // crashed mid-run
		{Job: "job-0004", State: StateQueued, Kind: KindAttack, Spec: spec("")},
		// job-0004 never started: crashed while queued.
	}
	for _, r := range recs {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoveryReplaysLog is the core durability contract in one pass:
// finished jobs come back queryable with their results and errors,
// incomplete jobs re-run exactly once under their original ids, the id
// sequence resumes past the replayed ids, and after shutdown the log
// holds exactly one terminal record per job.
func TestRecoveryReplaysLog(t *testing.T) {
	dir := crashLog(t)
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var ran []string
	e, err := Open(Config{
		Workers:    1,
		QueueDepth: 8,
		Store:      st,
		execOverride: func(ctx context.Context, j *job) (any, error) {
			mu.Lock()
			ran = append(ran, j.id)
			mu.Unlock()
			return "redone", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Terminal jobs restored verbatim.
	s1 := waitState(t, e, "job-0001", StateDone)
	if s1.Recovered {
		t.Fatal("finished job marked recovered; only re-enqueued jobs should be")
	}
	res, _, err := e.Result("job-0001")
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := res.(json.RawMessage)
	if !ok {
		t.Fatalf("restored result is %T, want json.RawMessage", res)
	}
	var parsed struct {
		Verified bool `json:"verified"`
		Loads    int  `json:"loads"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil || !parsed.Verified || parsed.Loads != 3 {
		t.Fatalf("restored result %s did not round-trip (err %v)", raw, err)
	}
	s2, err := e.Get("job-0002")
	if err != nil {
		t.Fatal(err)
	}
	if s2.State != StateFailed || s2.Error != "device wedged" || s2.Tenant != "acme" {
		t.Fatalf("job-0002 restored as %+v, want failed/device wedged/acme", s2)
	}

	// Incomplete jobs re-ran exactly once, flagged as recovered.
	for _, id := range []string{"job-0003", "job-0004"} {
		st := waitState(t, e, id, StateDone)
		if !st.Recovered {
			t.Fatalf("%s not marked recovered", id)
		}
	}
	mu.Lock()
	counts := map[string]int{}
	for _, id := range ran {
		counts[id]++
	}
	mu.Unlock()
	if len(counts) != 2 || counts["job-0003"] != 1 || counts["job-0004"] != 1 {
		t.Fatalf("executions after recovery = %v, want job-0003 and job-0004 exactly once", counts)
	}

	// The sequence resumes past every replayed id.
	s5, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	if s5.ID != "job-0005" {
		t.Fatalf("post-recovery submit got id %s, want job-0005", s5.ID)
	}
	waitState(t, e, s5.ID, StateDone)
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The log after shutdown: exactly one terminal record per job, and
	// recovery's compaction kept it near the snapshot size rather than
	// the full replayed history.
	w, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	terminals := map[string]int{}
	for _, r := range recs {
		switch r.State {
		case StateDone, StateFailed, StateCancelled:
			terminals[r.Job]++
		}
	}
	for job := 1; job <= 5; job++ {
		id := fmt.Sprintf("job-%04d", job)
		if terminals[id] != 1 {
			t.Fatalf("log holds %d terminal records for %s, want exactly 1 (log: %d records)",
				terminals[id], id, len(recs))
		}
	}
	if len(recs) > 11 {
		t.Fatalf("post-recovery log holds %d records; compaction should have folded the replayed history", len(recs))
	}
}

// TestRecoveryDoubleRestart: recovering twice in a row must not
// duplicate anything — the second engine sees only terminal records and
// re-runs nothing.
func TestRecoveryDoubleRestart(t *testing.T) {
	dir := crashLog(t)
	for round := 0; round < 2; round++ {
		st, err := store.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		ran := 0
		e, err := Open(Config{
			Workers: 1,
			Store:   st,
			execOverride: func(ctx context.Context, j *job) (any, error) {
				mu.Lock()
				ran++
				mu.Unlock()
				return "redone", nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"job-0001", "job-0002", "job-0003", "job-0004"} {
			deadline := time.Now().Add(10 * time.Second)
			for {
				s, err := e.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if s.State == StateDone || s.State == StateFailed {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("round %d: %s stuck in %s", round, id, s.State)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		if err := e.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := ran
		mu.Unlock()
		want := 2 // job-0003 and job-0004, first round only
		if round == 1 {
			want = 0
		}
		if got != want {
			t.Fatalf("round %d re-ran %d jobs, want %d", round, got, want)
		}
	}
}

// TestRecoveryCorruptSpec: an incomplete record whose spec no longer
// validates becomes a failed job — visible, typed, and never silently
// dropped or retried forever.
func TestRecoveryCorruptSpec(t *testing.T) {
	dir := t.TempDir()
	w, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(store.Record{
		Job: "job-0001", State: StateQueued, Kind: "attack",
		Spec: json.RawMessage(`{"kind":"no-such-kind"}`),
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(Config{Workers: 1, Store: st, execOverride: instant})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown(context.Background())
	s, err := e.Get("job-0001")
	if err != nil {
		t.Fatal(err)
	}
	if s.State != StateFailed || !strings.Contains(s.Error, "recovery") {
		t.Fatalf("corrupt-spec job restored as %+v, want failed with a recovery error", s)
	}
}

// TestRecoveryRunsRetiredLanesSpec: queued jobs logged with a retired
// field by an older build replay and run — an attack with "lanes":128
// (the sweep width never changed a result) and a corpus census with
// "no_dedup":true (the window memo never changed one either). Recovery
// decodes leniently, unlike POST /jobs, so the retired field is ignored
// rather than failing the job. Each runs exactly once across two
// restarts.
func TestRecoveryRunsRetiredLanesSpec(t *testing.T) {
	dir := t.TempDir()
	w, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	retired := []store.Record{
		{Job: "job-0001", State: StateQueued, Kind: KindAttack,
			Spec: json.RawMessage(`{"kind":"attack","victim":{"seed":5},"lanes":128}`)},
		{Job: "job-0002", State: StateQueued, Kind: KindCorpus,
			Spec: json.RawMessage(`{"kind":"corpus","corpus":{"designs":4,"no_dedup":true}}`)},
	}
	for _, r := range retired {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	runs := map[string]int{}
	count := func(_ context.Context, j *job) (any, error) {
		mu.Lock()
		runs[j.id]++
		mu.Unlock()
		return "ran", nil
	}
	for round := 0; round < 2; round++ {
		st, err := store.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Open(Config{Workers: 1, Store: st, execOverride: count})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range retired {
			s := waitState(t, e, r.Job, StateDone)
			if s.Error != "" || (round == 0 && !s.Recovered) {
				t.Fatalf("round %d: retired-field %s job restored as %+v, want done and recovered", round, r.Kind, s)
			}
		}
		if err := e.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, r := range retired {
		if n := runs[r.Job]; n != 1 {
			t.Fatalf("retired-field %s job executed %d times, want 1", r.Kind, n)
		}
	}
}

// TestDurableSubmitPersistsBeforeReturn: a job visible to the client is
// on the log — killing the engine without any shutdown still recovers
// it. Uses the Mem store to inspect records without filesystem timing.
func TestDurableSubmitPersistsBeforeReturn(t *testing.T) {
	mem := store.NewMem()
	fn, release := gate()
	e, err := Open(Config{Workers: 1, QueueDepth: 4, Store: mem, execOverride: fn})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Submit(JobSpec{Kind: KindAttack, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := mem.Load()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Job == st.ID && r.State == StateQueued {
			if r.Tenant != "acme" || r.Spec == nil {
				t.Fatalf("queued record incomplete: %+v", r)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no queued record for %s on the log at Submit return (log %+v)", st.ID, recs)
	}
	release()
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
