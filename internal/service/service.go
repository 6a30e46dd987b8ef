// Package service is the attack-as-a-service job engine: long-running
// attack work (full attacks, census attacks, FINDLUT scans, randomized
// campaigns) submitted as jobs onto a bounded worker pool with a
// bounded queue, with per-job cancellation, NDJSON trace capture, and a
// graceful shutdown that drains in-flight work against a deadline.
//
// Backpressure is typed, never buffered away: when the queue is full,
// Submit fails immediately with ErrQueueFull (HTTP 429 at the API
// layer) — the engine holds at most QueueDepth queued jobs plus Workers
// running ones, whatever the submission rate.
//
// Victim synthesis is the dominant per-job cost for repeated specs, so
// the engine builds victims through a victim.Cache: identical victim
// configs synthesize once and every job programs its own fresh device
// from the cached image (no shared fabric state between jobs).
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"snowbma/internal/core"
	"snowbma/internal/obs"
	"snowbma/internal/store"
	"snowbma/internal/victim"
)

// Typed submission and lifecycle errors.
var (
	// ErrQueueFull: the bounded queue is at capacity; retry later.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown: the engine no longer accepts jobs.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrNotFound: no job with that id.
	ErrNotFound = errors.New("service: job not found")
	// ErrNotFinished: the job has not reached a terminal state yet.
	ErrNotFinished = errors.New("service: job not finished")
	// ErrDrainDeadline: shutdown hit its deadline and had to cancel
	// in-flight jobs instead of letting them finish.
	ErrDrainDeadline = errors.New("service: shutdown deadline exceeded, in-flight jobs cancelled")
)

// DefaultRetainJobs is the finished-job retention cap a
// zero-configured Engine uses; without it a long-running server would
// accumulate every result and trace ever produced.
const DefaultRetainJobs = 256

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds the number of concurrently running jobs
	// (0 = NumCPU, capped at 4 — attack jobs are CPU-heavy).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (0 = 16). Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// RetainJobs bounds how many finished jobs (results, errors,
	// telemetry traces) stay queryable (0 = DefaultRetainJobs). When a
	// job reaches a terminal state and the cap is exceeded, the
	// oldest-finished jobs are pruned; their status/result/trace
	// lookups then return ErrNotFound.
	RetainJobs int
	// CacheSize bounds the victim build cache (0 = victim.DefaultCacheSize).
	CacheSize int
	// Store, when non-nil, makes the engine durable: every job
	// lifecycle transition is appended to it, and Open replays it on
	// startup — finished jobs stay queryable, incomplete jobs are
	// re-enqueued. The engine owns the store from Open on and closes
	// it during Shutdown. Engines with a Store must be built with
	// Open, not New.
	Store store.JobStore
	// Tenants maps tenant names to their scheduling contracts
	// (weights, quotas, priority classes). Tenants not listed, the
	// anonymous "" tenant included, get DefaultTenantConfig.
	Tenants map[string]TenantConfig
	// RigLatency models the per-job occupancy of one physical attack
	// rig (bitstream programming + keystream capture on real hardware
	// is device-bound, not CPU-bound). When nonzero, every job holds a
	// worker slot for at least this long; fleet capacity benchmarks
	// use it to measure scheduling overlap the way a hardware fleet
	// would. 0 (the default) disables it.
	RigLatency time.Duration
	// Tel receives engine-level metrics and spans (nil = fresh handle).
	Tel *obs.Telemetry
	// Logf receives human-readable engine logs (nil = silent).
	Logf func(string, ...any)

	// execOverride substitutes the job body before workers start —
	// the in-package recovery and fairness tests need it installed
	// before the first recovered job can be dispatched.
	execOverride func(ctx context.Context, j *job) (any, error)
	// eventBuffer and runtimePoll override the event bus ring capacity
	// (obs.DefaultEventBuffer) and the runtime-profiling cadence
	// (obs.DefaultRuntimePoll) for tests that need a tiny ring or a
	// fast poll.
	eventBuffer int
	runtimePoll time.Duration
}

// tenantConfig resolves one tenant's scheduling contract.
func (cfg Config) tenantConfig(tenant string) TenantConfig {
	if tc, ok := cfg.Tenants[tenant]; ok {
		return tc
	}
	return DefaultTenantConfig
}

// Engine is the job engine. Create with New, stop with Shutdown.
type Engine struct {
	cfg   Config
	tel   *obs.Telemetry
	logf  func(string, ...any)
	cache *victim.Cache

	// Live observability plane: every job lifecycle transition, span and
	// flushed metric lands on bus; SSE endpoints subscribe to it. The
	// background pollers (engine metric flusher, runtime profiler) stop
	// and the bus closes when Shutdown's drain completes.
	bus         *obs.EventBus
	stopFlush   func()
	stopRuntime func()
	obsOnce     sync.Once

	sched *sched
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	finished []string // terminal job ids, oldest first, for pruning
	seq      int
	closed   bool
	// storeAppends counts records written since the last compaction;
	// maybeCompactLocked folds the log back down when history outgrows
	// the live job table.
	storeAppends int

	// execFn runs one job body; tests substitute it to make queue and
	// lifecycle behavior deterministic without synthesizing victims.
	execFn func(ctx context.Context, j *job) (any, error)
}

// Open starts an engine. When cfg.Store is set, the store's record log
// is replayed first: finished jobs come back queryable, incomplete
// (queued or running at crash time) jobs are re-enqueued exactly once
// under their original ids, and the log is compacted to the folded
// snapshot. Workers start only after recovery completes, so a replayed
// job can never race its own re-admission.
func Open(cfg Config) (*Engine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = min(runtime.NumCPU(), 4)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = victim.DefaultCacheSize
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = DefaultRetainJobs
	}
	tel := cfg.Tel
	if tel == nil {
		tel = obs.New()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	e := &Engine{
		cfg:   cfg,
		tel:   tel,
		logf:  logf,
		cache: victim.NewCache(cfg.CacheSize),
		jobs:  map[string]*job{},
	}
	e.sched = newSched(cfg.QueueDepth, cfg.tenantConfig)
	e.cache.Tel = tel
	e.execFn = e.exec
	if cfg.execOverride != nil {
		e.execFn = cfg.execOverride
	}
	tel.Gauge("service.workers").Set(float64(cfg.Workers))
	tel.Gauge("service.queue_depth").Set(float64(cfg.QueueDepth))
	// Pre-register the duration histograms so their (empty) families show
	// up on the very first /metrics scrape.
	tel.BucketHistogram("service.job_queue_wait_ms", obs.DurationBucketsMS)
	tel.BucketHistogram("service.job_run_ms", obs.DurationBucketsMS)

	e.bus = obs.NewEventBus(cfg.eventBuffer)
	e.stopFlush = obs.NewMetricsStreamer(tel.Metrics, e.bus, "").Start(obs.DefaultFlushInterval)
	e.stopRuntime = obs.StartRuntimeMetrics(tel.Metrics, cfg.runtimePoll, e.sampleEngineGauges)

	if cfg.Store != nil {
		if err := e.recover(); err != nil {
			e.closeObs()
			return nil, err
		}
	}

	for w := 0; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// sampleEngineGauges folds app-level gauges that need active sampling
// into the runtime poller's cadence: queue occupancy, victim-cache
// size/hit counters and the bus-wide event drop total.
func (e *Engine) sampleEngineGauges(reg *obs.Registry) {
	e.mu.Lock()
	queued := e.queuedLocked()
	e.mu.Unlock()
	reg.Gauge("service.jobs_queued").Set(float64(queued))
	// Hit/miss/eviction counters stream live from the cache itself
	// (victim.cache.*); only the current size needs polling.
	reg.Gauge("victim.cache.size").Set(float64(e.cache.Len()))
	reg.Counter("obs.events_dropped").Set(e.bus.Dropped())
}

// publishJob emits a job lifecycle transition onto the event bus.
func (e *Engine) publishJob(j *job, state string, attrs ...obs.Attr) {
	ev := obs.BusEvent{Type: obs.EventJob, Job: j.id, Name: state}
	for _, a := range attrs {
		if ev.Attrs == nil {
			ev.Attrs = map[string]any{}
		}
		ev.Attrs[a.Key] = a.Value
	}
	e.bus.Publish(ev)
}

// closeObs tears the observability plane down exactly once: the pollers
// stop (the flusher's stop performs a final flush so terminal counter
// values reach the stream), a service shutdown event is published, and
// the bus closes — which ends every SSE stream.
func (e *Engine) closeObs() {
	e.obsOnce.Do(func() {
		e.stopFlush()
		e.stopRuntime()
		e.bus.Publish(obs.BusEvent{Type: obs.EventService, Name: "shutdown"})
		e.bus.Close()
	})
}

// Submit validates the spec and enqueues a job. It never blocks: a full
// queue is ErrQueueFull, an over-quota (or zero-weight) tenant is
// ErrQuotaExceeded, a closed engine ErrShuttingDown. On a durable
// engine the queued record is persisted before the job id is exposed.
func (e *Engine) Submit(spec JobSpec) (Status, error) {
	if err := spec.Validate(); err != nil {
		e.tel.Counter("service.jobs_invalid").Inc()
		return Status{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		e.tel.Counter("service.jobs_rejected_shutdown").Inc()
		return Status{}, ErrShuttingDown
	}
	e.seq++
	// The queued phase gets a plain cancel context; TimeoutMS is armed
	// in run() when the job starts, so queue wait never consumes the
	// job's execution budget.
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        fmt.Sprintf("job-%04d", e.seq),
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		cancel:    cancel,
		done:      make(chan struct{}),
		tel:       obs.New(),
	}
	j.ctx = ctx
	if err := e.sched.push(j); err != nil {
		cancel()
		e.seq-- // the id was never exposed; reuse it
		if errors.Is(err, ErrQuotaExceeded) {
			e.tel.Counter("service.jobs_rejected_quota").Inc()
		} else {
			e.tel.Counter("service.jobs_rejected_full").Inc()
		}
		return Status{}, err
	}
	// Durability before visibility: the queued record (spec included)
	// must be on the log before the id escapes, or a crash between
	// Submit returning and the first transition would lose the job. A
	// worker may already have popped j, but run() serializes on e.mu,
	// so the record lands first either way.
	if err := e.persistLocked(j, StateQueued); err != nil {
		// The job is already in the fair queue; make it terminal so
		// the worker that pops it skips execution.
		j.state = StateCancelled
		j.err = "store append failed: " + err.Error()
		j.finished = time.Now()
		j.cancel()
		close(j.done)
		e.tel.Counter("service.store_errors").Inc()
		return Status{}, fmt.Errorf("service: persist queued job: %w", err)
	}
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	// The job's own telemetry streams onto the engine bus tagged with the
	// job id: spans live as they open/close, metrics at the flush cadence.
	j.tel.AttachBus(e.bus, j.id)
	e.tel.Counter("service.jobs_submitted").Inc()
	if spec.Tenant != "" {
		e.tel.Counter("service.tenant." + spec.Tenant + ".submitted").Inc()
	}
	e.tel.Gauge("service.jobs_queued").Set(float64(e.queuedLocked()))
	queuedAttrs := []obs.Attr{obs.KV("kind", spec.Kind)}
	if spec.Tenant != "" {
		queuedAttrs = append(queuedAttrs, obs.KV("tenant", spec.Tenant))
	}
	e.publishJob(j, StateQueued, queuedAttrs...)
	e.logf("service: %s submitted (%s, tenant %q)", j.id, spec.Kind, spec.Tenant)
	return j.status(), nil
}

// queuedLocked counts jobs still in StateQueued (engine mutex held).
func (e *Engine) queuedLocked() int {
	n := 0
	for _, j := range e.jobs {
		if j.state == StateQueued {
			n++
		}
	}
	return n
}

// worker consumes jobs until the queue is closed and drained.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		j, ok := e.sched.pop()
		if !ok {
			return
		}
		e.run(j)
	}
}

// run executes one job and records its terminal state.
func (e *Engine) run(j *job) {
	e.mu.Lock()
	if Terminal(j.state) {
		// Cancelled while still queued: nothing to run.
		e.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	if j.spec.TimeoutMS > 0 {
		// Arm the execution timeout now that the job is actually
		// running (JobSpec.TimeoutMS excludes queue wait). Chain the
		// derived CancelFunc so the terminal j.cancel() releases the
		// timer too; Cancel/Shutdown cancelling the base context still
		// propagates to the derived one.
		var cancelTimeout context.CancelFunc
		j.ctx, cancelTimeout = context.WithTimeout(j.ctx, time.Duration(j.spec.TimeoutMS)*time.Millisecond)
		base := j.cancel
		j.cancel = func() { cancelTimeout(); base() }
	}
	e.tel.Gauge("service.jobs_queued").Set(float64(e.queuedLocked()))
	queueWaitMS := float64(j.started.Sub(j.submitted).Nanoseconds()) / 1e6
	if err := e.persistLocked(j, StateRunning); err != nil {
		e.tel.Counter("service.store_errors").Inc()
		e.logf("service: %s running-record append failed: %v", j.id, err)
	}
	e.mu.Unlock()
	e.tel.BucketHistogram("service.job_queue_wait_ms", obs.DurationBucketsMS).Observe(queueWaitMS)
	e.publishJob(j, StateRunning, obs.KV("queue_wait_ms", queueWaitMS))

	if e.cfg.RigLatency > 0 {
		// Model the physical rig occupancy: the slot is held for the
		// programming/capture latency even though the simulator needs
		// none. Cancellation still cuts the wait short.
		t := time.NewTimer(e.cfg.RigLatency)
		select {
		case <-t.C:
		case <-j.ctx.Done():
			t.Stop()
		}
	}

	// Stream the job registry's counter/gauge movement while it runs;
	// the stop below performs a final flush so terminal values land on
	// the bus before the terminal job event does.
	stopFlush := obs.NewMetricsStreamer(j.tel.Metrics, e.bus, j.id).Start(obs.DefaultFlushInterval)

	span := j.tel.StartSpan("service.job",
		obs.KV("id", j.id), obs.KV("kind", j.spec.Kind))
	result, err := e.runSafe(j)
	span.End()
	stopFlush()

	e.mu.Lock()
	defer e.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
		e.tel.Counter("service.jobs_done").Inc()
	case errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCancelled
		j.err = err.Error()
		e.tel.Counter("service.jobs_cancelled").Inc()
	default:
		j.state = StateFailed
		j.err = err.Error()
		e.tel.Counter("service.jobs_failed").Inc()
	}
	runMS := float64(j.finished.Sub(j.started).Nanoseconds()) / 1e6
	e.tel.BucketHistogram("service.job_run_ms", obs.DurationBucketsMS).Observe(runMS)
	if j.spec.Tenant != "" {
		e.tel.Counter("service.tenant." + j.spec.Tenant + "." + j.state).Inc()
	}
	if err := e.persistLocked(j, j.state); err != nil {
		e.tel.Counter("service.store_errors").Inc()
		e.logf("service: %s terminal-record append failed: %v", j.id, err)
	}
	j.cancel() // release the context's resources
	close(j.done)
	e.markFinishedLocked(j)
	terminalAttrs := []obs.Attr{obs.KV("run_ms", runMS)}
	if j.err != "" {
		terminalAttrs = append(terminalAttrs, obs.KV("error", j.err))
	}
	e.publishJob(j, j.state, terminalAttrs...)
	e.logf("service: %s finished: %s", j.id, j.state)
}

// markFinishedLocked records a terminal job for retention accounting
// and prunes the oldest-finished jobs past the RetainJobs cap, so a
// long-running server does not accumulate results and traces without
// bound. Called with the engine mutex held.
func (e *Engine) markFinishedLocked(j *job) {
	e.finished = append(e.finished, j.id)
	for len(e.finished) > e.cfg.RetainJobs {
		id := e.finished[0]
		e.finished = e.finished[1:]
		delete(e.jobs, id)
		for i, o := range e.order {
			if o == id {
				e.order = append(e.order[:i], e.order[i+1:]...)
				break
			}
		}
		e.tel.Counter("service.jobs_pruned").Inc()
	}
	e.maybeCompactLocked()
}

// runSafe converts a job panic into a failed job instead of killing the
// worker goroutine.
func (e *Engine) runSafe(j *job) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job panic: %v", r)
		}
	}()
	return e.execFn(j.ctx, j)
}

// Get returns a job's status.
func (e *Engine) Get(id string) (Status, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.status(), nil
}

// List returns every job's status in submission order.
func (e *Engine) List() []Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.jobs[id].status())
	}
	return out
}

// Result returns a finished job's result value (nil for failed and
// cancelled jobs) alongside its status. A job that is still queued or
// running is ErrNotFinished.
func (e *Engine) Result(id string) (any, Status, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !Terminal(j.state) {
		return nil, j.status(), fmt.Errorf("%w: %s is %s", ErrNotFinished, id, j.state)
	}
	return j.result, j.status(), nil
}

// Cancel requests cancellation: a queued job goes terminal immediately,
// a running job stops at its next attack checkpoint (within one sweep
// chunk). Cancelling a finished job is a no-op.
func (e *Engine) Cancel(id string) (Status, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.err = "cancelled while queued"
		j.finished = time.Now()
		j.cancel()
		close(j.done)
		if err := e.persistLocked(j, StateCancelled); err != nil {
			e.tel.Counter("service.store_errors").Inc()
			e.logf("service: %s cancel-record append failed: %v", id, err)
		}
		e.markFinishedLocked(j)
		e.tel.Counter("service.jobs_cancelled").Inc()
		e.tel.Gauge("service.jobs_queued").Set(float64(e.queuedLocked()))
		e.publishJob(j, StateCancelled, obs.KV("error", j.err))
		e.logf("service: %s cancelled while queued", id)
	case StateRunning:
		j.cancel()
		e.logf("service: %s cancellation requested", id)
	}
	return j.status(), nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (e *Engine) Wait(ctx context.Context, id string) (Status, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	select {
	case <-j.done:
		return e.Get(id)
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// WriteTrace streams a finished job's telemetry (span tree + metrics)
// as NDJSON.
func (e *Engine) WriteTrace(w io.Writer, id string) error {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !Terminal(j.state) {
		e.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrNotFinished, id, j.state)
	}
	tel := j.tel
	e.mu.Unlock()
	return obs.WriteNDJSON(w, tel.Tracer, tel.Metrics)
}

// CacheStats exposes the victim build cache counters.
func (e *Engine) CacheStats() (hits, misses, evictions int) {
	return e.cache.Stats()
}

// Shutdown stops accepting jobs and drains the queue: every queued and
// running job is given until ctx expires to finish. On deadline the
// remaining jobs' contexts are cancelled, the engine waits for them to
// stop at their next checkpoint, and Shutdown returns ErrDrainDeadline.
// Shutdown is idempotent; concurrent calls all wait for the drain.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		e.sched.close()
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		e.closeObs()
		e.closeStore()
		e.logf("service: shutdown drained cleanly")
		return nil
	case <-ctx.Done():
	}
	// Deadline: cancel everything still live and wait for the workers to
	// observe it (attack checkpoints fire within one sweep chunk).
	e.mu.Lock()
	for _, j := range e.jobs {
		if !Terminal(j.state) {
			j.cancel()
		}
	}
	e.mu.Unlock()
	<-drained
	e.closeObs()
	e.closeStore()
	e.logf("service: shutdown cancelled in-flight jobs at deadline")
	return ErrDrainDeadline
}

// closeStore syncs and closes the durable store once the drain is over
// (every terminal record has been appended by then).
func (e *Engine) closeStore() {
	if e.cfg.Store == nil {
		return
	}
	if err := e.cfg.Store.Close(); err != nil {
		e.logf("service: store close: %v", err)
	}
}
