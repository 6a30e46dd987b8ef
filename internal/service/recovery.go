package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"snowbma/internal/obs"
	"snowbma/internal/store"
)

// Durability wiring: every lifecycle transition appends one
// store.Record (persistLocked), recovery replays the log into the job
// table (recover), and compaction folds history back down to one
// record per retained job (compactLocked). All of it is a no-op on a
// store-less engine.

// persistLocked appends the job's current transition to the durable
// store. Called with the engine mutex held, which serializes records
// in true transition order. Queued records carry the full spec (it is
// everything recovery needs to re-run the job); terminal records carry
// the error and the marshaled result.
func (e *Engine) persistLocked(j *job, state string) error {
	if e.cfg.Store == nil {
		return nil
	}
	r := store.Record{
		Job:    j.id,
		State:  state,
		Kind:   j.spec.Kind,
		Tenant: j.spec.Tenant,
		TimeUS: time.Now().UnixMicro(),
	}
	switch state {
	case StateQueued:
		spec, err := json.Marshal(j.spec)
		if err != nil {
			return fmt.Errorf("marshal spec: %w", err)
		}
		r.Spec = spec
		r.Recovered = j.recovered
	case StateDone:
		if j.result != nil {
			res, err := json.Marshal(j.result)
			if err != nil {
				// The result type failed to serialize; persist the
				// terminal state anyway — better a done job with a
				// lost result than a job that re-runs forever.
				e.logf("service: %s result marshal: %v", j.id, err)
			} else {
				r.Result = res
			}
		}
	case StateFailed, StateCancelled:
		r.Error = j.err
	}
	if _, err := e.cfg.Store.Append(r); err != nil {
		return err
	}
	e.storeAppends++
	return nil
}

// recover replays the durable store into the engine: terminal jobs
// come back queryable (status, error, result), incomplete jobs are
// re-enqueued exactly once under their original ids, the id sequence
// resumes past every replayed id, and the log is compacted down to the
// folded snapshot. Runs before the workers start, under no lock (the
// engine is not yet shared).
func (e *Engine) recover() error {
	recs, err := e.cfg.Store.Load()
	if err != nil {
		return fmt.Errorf("service: store load: %w", err)
	}
	folded := store.FoldLatest(recs)
	now := time.Now()
	requeued, restored := 0, 0
	for _, r := range folded {
		if r.Job == "" || r.State == "" {
			continue // defensively skip malformed snapshot rows
		}
		var n int
		if _, serr := fmt.Sscanf(r.Job, "job-%d", &n); serr == nil && n > e.seq {
			e.seq = n
		}
		if _, dup := e.jobs[r.Job]; dup {
			continue // FoldLatest yields unique jobs; belt and braces
		}
		switch r.State {
		case StateDone, StateFailed, StateCancelled:
			e.restoreTerminal(r, now)
			restored++
		case StateQueued, StateRunning:
			if e.requeueRecovered(r, now) {
				requeued++
			}
		}
		// Unknown states (a future version's log) are dropped from the
		// table rather than guessed at; compaction below removes them.
	}
	// Retention applies across restarts too: prune the oldest restored
	// terminal jobs past the cap before compacting, so the log cannot
	// grow without bound through crash loops.
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
	}
	if err := e.compactLocked(); err != nil {
		e.logf("service: post-recovery compaction: %v", err)
	}
	e.tel.Counter("service.jobs_recovered").Set(int64(requeued))
	e.bus.Publish(obs.BusEvent{Type: obs.EventService, Name: "recovered",
		Attrs: map[string]any{"requeued": requeued, "restored": restored}})
	if requeued+restored > 0 {
		e.logf("service: recovered %d finished jobs, re-enqueued %d incomplete", restored, requeued)
	}
	return nil
}

// restoreTerminal rebuilds a finished job from its folded record: the
// status, error and result stay queryable exactly as before the
// restart (the result is served back as its stored JSON).
func (e *Engine) restoreTerminal(r store.Record, now time.Time) {
	done := make(chan struct{})
	close(done)
	j := &job{
		id:        r.Job,
		state:     r.State,
		err:       r.Error,
		submitted: microTime(r.TimeUS, now),
		finished:  microTime(r.TimeUS, now),
		cancel:    func() {},
		done:      done,
		tel:       obs.New(),
	}
	if r.Spec != nil {
		// Best effort: the folded record usually carries the original
		// spec, which keeps Kind/Tenant on the status view.
		_ = json.Unmarshal(r.Spec, &j.spec)
	}
	if j.spec.Kind == "" {
		j.spec.Kind = r.Kind
	}
	if j.spec.Tenant == "" {
		j.spec.Tenant = r.Tenant
	}
	if r.Result != nil {
		j.result = json.RawMessage(r.Result)
	}
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	e.finished = append(e.finished, j.id)
}

// requeueRecovered re-admits a job that was queued or running when the
// previous process died. Quotas and the global depth bound do not
// apply on the way back in (the job was already admitted once); a spec
// that cannot be decoded, or that this version's validator rejects,
// turns into a failed job rather than silently vanishing or running.
// Unlike POST /jobs the decode ignores fields this build retired.
func (e *Engine) requeueRecovered(r store.Record, now time.Time) bool {
	var spec JobSpec
	reason := "job spec lost or corrupt in store"
	valid := r.Spec != nil && json.Unmarshal(r.Spec, &spec) == nil
	if valid {
		if err := spec.Validate(); err != nil {
			reason, valid = err.Error(), false
		}
	}
	if !valid {
		done := make(chan struct{})
		close(done)
		j := &job{
			id:        r.Job,
			spec:      JobSpec{Kind: r.Kind, Tenant: r.Tenant},
			state:     StateFailed,
			err:       "recovery: " + reason,
			submitted: microTime(r.TimeUS, now),
			finished:  now,
			cancel:    func() {},
			done:      done,
			tel:       obs.New(),
		}
		e.jobs[j.id] = j
		e.order = append(e.order, j.id)
		e.finished = append(e.finished, j.id)
		e.tel.Counter("service.jobs_recovery_failed").Inc()
		return false
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        r.Job,
		spec:      spec,
		state:     StateQueued,
		submitted: now, // queue-wait accounting restarts at recovery
		recovered: true,
		cancel:    cancel,
		done:      make(chan struct{}),
		tel:       obs.New(),
	}
	j.ctx = ctx
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	j.tel.AttachBus(e.bus, j.id)
	e.sched.pushRecovered(j)
	e.publishJob(j, StateQueued, obs.KV("kind", spec.Kind), obs.KV("recovered", true))
	return true
}

// snapshotLocked folds the in-memory job table into one record per
// job — exactly what a restarted engine needs. Incomplete (queued or
// running) jobs keep their spec; terminal jobs their error/result.
func (e *Engine) snapshotLocked() []store.Record {
	snap := make([]store.Record, 0, len(e.order))
	for _, id := range e.order {
		j := e.jobs[id]
		r := store.Record{
			Job:    j.id,
			State:  j.state,
			Kind:   j.spec.Kind,
			Tenant: j.spec.Tenant,
			TimeUS: j.submitted.UnixMicro(),
		}
		switch j.state {
		case StateDone:
			if j.result != nil {
				if res, err := json.Marshal(j.result); err == nil {
					r.Result = res
				}
			}
		case StateFailed, StateCancelled:
			r.Error = j.err
		default: // queued or running: keep everything needed to re-run
			if spec, err := json.Marshal(j.spec); err == nil {
				r.Spec = spec
			}
			r.Recovered = j.recovered
		}
		snap = append(snap, r)
	}
	return snap
}

// compactLocked rewrites the store to the current snapshot.
func (e *Engine) compactLocked() error {
	if e.cfg.Store == nil {
		return nil
	}
	if err := e.cfg.Store.Compact(e.snapshotLocked()); err != nil {
		return err
	}
	e.storeAppends = 0
	e.tel.Counter("service.store_compactions").Inc()
	return nil
}

// compactEvery is the append-count threshold behind automatic runtime
// compaction (checked as terminal jobs are pruned).
const compactEvery = 1024

// maybeCompactLocked compacts once appended history clearly outgrows
// the live table: a long-running durable engine's log stays
// O(retained jobs), not O(every job ever).
func (e *Engine) maybeCompactLocked() {
	if e.cfg.Store == nil {
		return
	}
	if e.storeAppends >= compactEvery && e.storeAppends > 4*len(e.jobs) {
		if err := e.compactLocked(); err != nil {
			e.tel.Counter("service.store_errors").Inc()
			e.logf("service: compaction failed: %v", err)
		}
	}
}

// microTime converts a stored microsecond timestamp, falling back to
// the recovery time for records that never carried one.
func microTime(us int64, fallback time.Time) time.Time {
	if us > 0 {
		return time.UnixMicro(us)
	}
	return fallback
}
