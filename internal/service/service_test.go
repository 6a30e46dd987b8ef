package service

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// New starts a non-durable engine (Open fails only on a store's
// replay, so a store-less Config cannot panic).
func New(cfg Config) *Engine {
	e, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// newStubEngine builds an engine whose job bodies run fn instead of
// real attacks, so queue and lifecycle behavior is deterministic.
func newStubEngine(workers, depth int, fn func(ctx context.Context, j *job) (any, error)) *Engine {
	e := New(Config{Workers: workers, QueueDepth: depth})
	e.execFn = fn
	return e
}

// instant is a job body that finishes immediately.
func instant(context.Context, *job) (any, error) { return "ok", nil }

// gate returns a job body that blocks until released (or the job is
// cancelled), plus the release function.
func gate() (func(ctx context.Context, j *job) (any, error), func()) {
	ch := make(chan struct{})
	fn := func(ctx context.Context, j *job) (any, error) {
		select {
		case <-ch:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return fn, func() { close(ch) }
}

func waitState(t *testing.T, e *Engine, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := e.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := e.Get(id)
	t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
	return Status{}
}

func TestSubmitValidation(t *testing.T) {
	bad := []JobSpec{
		{Kind: "exfiltrate"},
		{Kind: KindFindLUT},
		{Kind: KindCampaign},
		{Kind: KindCampaign, Campaign: &CampaignSpec{Runs: 0}},
		{Kind: KindAttack, TimeoutMS: -1},
		// Size fields over their caps: each would allocate or start
		// that many scenarios, designs or goroutines once run.
		{Kind: KindCampaign, Campaign: &CampaignSpec{Runs: 1 << 30}},
		{Kind: KindCampaign, Campaign: &CampaignSpec{Runs: MaxSpecRuns + 1}},
		{Kind: KindCampaign, Campaign: &CampaignSpec{Runs: 1, Parallel: 1 << 30}},
		{Kind: KindCampaign, Campaign: &CampaignSpec{Runs: 1, Parallel: -1}},
		{Kind: KindCorpus, Corpus: &CorpusSpec{Designs: 1e9}},
		{Kind: KindCorpus, Corpus: &CorpusSpec{Designs: MaxSpecDesigns + 1}},
		{Kind: KindCorpus, Corpus: &CorpusSpec{Indices: make([]int, MaxSpecDesigns+1)}},
		{Kind: KindCorpus, Corpus: &CorpusSpec{Designs: 4, Parallel: MaxSpecWorkers + 1}},
		{Kind: KindCorpus, Corpus: &CorpusSpec{Designs: 4, Workers: 1 << 30}},
		{Kind: KindFindLUT, Expr: "a1^a2", Parallel: MaxSpecWorkers + 1},
		{Kind: KindFindLUT, Expr: "a1^a2", Parallel: -1},
		// A section the kind never reads is held to the same caps.
		{Kind: KindAttack, Campaign: &CampaignSpec{Runs: 1 << 30}},
		// A negative pad panicked victim.Build's placement; a huge one
		// sized the image at pad × FrameBytes.
		{Kind: KindAttack, Victim: VictimSpec{PadFrames: -1000}},
		{Kind: KindAttack, Victim: VictimSpec{PadFrames: MaxSpecPadFrames + 1}},
		{Kind: KindFindLUT, Expr: "a1^a2", Victim: VictimSpec{PadFrames: 1 << 40}},
	}
	// A queue slot per row, so a spec that slips past validation is
	// reported as accepted rather than masked by ErrQueueFull.
	e := newStubEngine(1, len(bad), instant)
	defer e.Shutdown(context.Background())
	for _, spec := range bad {
		if _, err := e.Submit(spec); !errors.Is(err, ErrSpec) {
			t.Errorf("Submit(%s) = %v, want ErrSpec", specString(spec), err)
		}
	}
	// Every size field at exactly its cap is accepted.
	atCap := []JobSpec{
		{Kind: KindCampaign, Campaign: &CampaignSpec{Runs: MaxSpecRuns, Parallel: MaxSpecWorkers}},
		{Kind: KindCorpus, Corpus: &CorpusSpec{Designs: MaxSpecDesigns, Parallel: MaxSpecWorkers, Workers: MaxSpecWorkers}},
		{Kind: KindCorpus, Corpus: &CorpusSpec{Indices: make([]int, MaxSpecDesigns)}},
		{Kind: KindFindLUT, Expr: "a1^a2", Parallel: MaxSpecWorkers},
		{Kind: KindAttack, Victim: VictimSpec{PadFrames: MaxSpecPadFrames}},
	}
	for _, spec := range atCap {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", specString(spec), err)
		}
	}
}

// specString renders a spec for a failure message without printing a
// 16k-entry index list.
func specString(s JobSpec) string {
	b, _ := json.Marshal(s)
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

func TestQueueBackpressure(t *testing.T) {
	fn, release := gate()
	e := newStubEngine(1, 1, fn)
	defer e.Shutdown(context.Background())

	first, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, first.ID, StateRunning)
	second, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatalf("second submit (queue slot free) = %v", err)
	}
	if _, err := e.Submit(JobSpec{Kind: KindAttack}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	release()
	waitState(t, e, first.ID, StateDone)
	waitState(t, e, second.ID, StateDone)
	// Capacity is back: the next submission is accepted.
	third, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatalf("submit after drain = %v", err)
	}
	waitState(t, e, third.ID, StateDone)
}

func TestCancelQueuedJob(t *testing.T) {
	fn, release := gate()
	e := newStubEngine(1, 1, fn)
	defer e.Shutdown(context.Background())
	running, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, running.ID, StateRunning)
	queued, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("cancelled queued job state %q, want %q immediately", st.State, StateCancelled)
	}
	release()
	waitState(t, e, running.ID, StateDone)
	// The worker must skip the cancelled job, not resurrect it.
	if st, _ := e.Get(queued.ID); st.State != StateCancelled {
		t.Fatalf("queued job resurrected into %q", st.State)
	}
}

func TestCancelRunningJob(t *testing.T) {
	fn, release := gate()
	defer release()
	e := newStubEngine(1, 1, fn)
	defer e.Shutdown(context.Background())
	st, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, st.ID, StateRunning)
	if _, err := e.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, e, st.ID, StateCancelled)
	if final.Error == "" {
		t.Fatal("cancelled job carries no error text")
	}
	// Cancelling a finished job stays a no-op.
	again, err := e.Cancel(st.ID)
	if err != nil || again.State != StateCancelled {
		t.Fatalf("re-cancel = (%+v, %v)", again, err)
	}
}

func TestJobTimeout(t *testing.T) {
	fn, release := gate()
	defer release()
	e := newStubEngine(1, 1, fn)
	defer e.Shutdown(context.Background())
	st, err := e.Submit(JobSpec{Kind: KindAttack, TimeoutMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, st.ID, StateCancelled)
}

// TimeoutMS bounds execution only: a job may wait in the queue longer
// than its timeout and still run to completion once a worker frees up.
func TestTimeoutExcludesQueueWait(t *testing.T) {
	gateCh := make(chan struct{})
	e := newStubEngine(1, 1, func(ctx context.Context, j *job) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err // started with an already-expired budget
		}
		select {
		case <-gateCh:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	defer e.Shutdown(context.Background())
	blocker, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, blocker.ID, StateRunning)
	short, err := e.Submit(JobSpec{Kind: KindAttack, TimeoutMS: 25})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the job queued well past its nominal timeout, then let the
	// worker go: the budget arms at StateRunning, so it finishes Done.
	time.Sleep(80 * time.Millisecond)
	close(gateCh)
	waitState(t, e, blocker.ID, StateDone)
	waitState(t, e, short.ID, StateDone)
}

func TestTerminalJobsPruned(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8, RetainJobs: 3})
	e.execFn = instant
	defer e.Shutdown(context.Background())
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := e.Submit(JobSpec{Kind: KindAttack})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, e, st.ID, StateDone)
		ids = append(ids, st.ID)
	}
	// The two oldest finished jobs fell out of the retention window...
	for _, id := range ids[:2] {
		if _, err := e.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("pruned job %s still queryable (err=%v)", id, err)
		}
	}
	// ...and the newest three remain listable in submission order.
	list := e.List()
	if len(list) != 3 {
		t.Fatalf("List kept %d jobs, want 3", len(list))
	}
	for i, st := range list {
		if st.ID != ids[2+i] {
			t.Fatalf("List[%d] = %s, want %s", i, st.ID, ids[2+i])
		}
	}
}

func TestResultLifecycle(t *testing.T) {
	fn, release := gate()
	e := newStubEngine(1, 1, fn)
	defer e.Shutdown(context.Background())
	st, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Result(st.ID); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("Result before finish = %v, want ErrNotFinished", err)
	}
	if _, _, err := e.Result("job-9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Result of unknown job = %v, want ErrNotFound", err)
	}
	release()
	waitState(t, e, st.ID, StateDone)
	v, final, err := e.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v != "ok" || final.State != StateDone {
		t.Fatalf("Result = (%v, %+v)", v, final)
	}
	if final.DurationMS < 0 {
		t.Fatal("negative job duration")
	}
}

func TestJobPanicBecomesFailure(t *testing.T) {
	e := newStubEngine(1, 1, func(context.Context, *job) (any, error) {
		panic("boom")
	})
	defer e.Shutdown(context.Background())
	st, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, e, st.ID, StateFailed)
	if final.Error == "" {
		t.Fatal("panicking job recorded no error")
	}
	// The worker survived: the engine still executes jobs.
	st2, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, st2.ID, StateFailed)
}

func TestShutdownDrains(t *testing.T) {
	fn, release := gate()
	e := newStubEngine(2, 4, fn)
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := e.Submit(JobSpec{Kind: KindAttack})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	for _, id := range ids {
		if st, _ := e.Get(id); st.State != StateDone {
			t.Fatalf("job %s ended %q after drain, want done", id, st.State)
		}
	}
	if _, err := e.Submit(JobSpec{Kind: KindAttack}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after shutdown = %v, want ErrShuttingDown", err)
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	fn, release := gate()
	defer release()
	e := newStubEngine(1, 2, fn)
	running, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, running.ID, StateRunning)
	queued, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, ErrDrainDeadline) {
		t.Fatalf("Shutdown past deadline = %v, want ErrDrainDeadline", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st, _ := e.Get(id); st.State != StateCancelled {
			t.Fatalf("job %s ended %q after forced drain, want cancelled", id, st.State)
		}
	}
}

func TestWait(t *testing.T) {
	fn, release := gate()
	e := newStubEngine(1, 1, fn)
	defer e.Shutdown(context.Background())
	st, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.Wait(short, st.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on blocked job = %v, want deadline", err)
	}
	release()
	final, err := e.Wait(context.Background(), st.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("Wait = (%+v, %v)", final, err)
	}
}
