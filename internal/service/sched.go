package service

import (
	"errors"
	"fmt"
	"sync"
)

// ErrQuotaExceeded is the per-tenant backpressure signal: the tenant is
// barred outright (Weight 0) or its queued-job quota is full. It is
// deliberately distinct from ErrQueueFull (the global queue bound) so a
// client can tell "the service is busy" from "your tenant is over its
// share" — HTTP maps both onto 429 but with different bodies.
var ErrQuotaExceeded = errors.New("service: tenant quota exceeded")

// TenantConfig is one tenant's scheduling contract.
type TenantConfig struct {
	// Weight is the tenant's share of worker dispatch under contention:
	// a weight-10 tenant is dispatched ten jobs for every one of a
	// weight-1 tenant while both have work queued. Weight 0 bars the
	// tenant entirely (Submit fails with ErrQuotaExceeded) — an
	// explicit off switch, not silent starvation.
	Weight int `json:"weight"`
	// MaxQueued caps how many of the tenant's jobs may sit in the
	// queue at once (0 = no per-tenant cap; the global QueueDepth
	// still applies). The cap counts queued jobs only, not running
	// ones.
	MaxQueued int `json:"max_queued,omitempty"`
	// Priority is the tenant's dispatch class: any queued job of a
	// higher class is dispatched before every job of a lower class,
	// regardless of weights (weights arbitrate within a class).
	Priority int `json:"priority,omitempty"`
}

// DefaultTenantConfig is the contract applied to tenants absent from
// Config.Tenants.
var DefaultTenantConfig = TenantConfig{Weight: 1}

// tenantQ is one tenant's FIFO plus its stride-scheduling state.
type tenantQ struct {
	name string
	cfg  TenantConfig
	jobs []*job
	// pass is the tenant's virtual time: it advances by 1/Weight per
	// dispatched job, so under contention each tenant's dispatch count
	// is proportional to its weight. New (or newly busy) tenants join
	// at the scheduler's current virtual time rather than at zero, so
	// an idle tenant cannot bank credit and then monopolize the pool.
	pass float64
}

// sched is the multi-tenant fair queue that replaces the single global
// FIFO channel: per-tenant FIFOs, weighted stride dispatch within a
// priority class, strict ordering across classes, per-tenant quotas and
// the global depth bound. Workers block in pop until work arrives or
// the scheduler closes and drains.
type sched struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	size   int
	closed bool
	queues map[string]*tenantQ
	order  []string // tenant registration order, for deterministic ties
	vtime  float64  // pass of the most recent dispatch
	lookup func(tenant string) TenantConfig
}

func newSched(capacity int, lookup func(string) TenantConfig) *sched {
	s := &sched{cap: capacity, queues: map[string]*tenantQ{}, lookup: lookup}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// tenantLocked returns (creating if needed) the tenant's queue with its
// contract refreshed from the engine config.
func (s *sched) tenantLocked(name string) *tenantQ {
	q, ok := s.queues[name]
	if !ok {
		q = &tenantQ{name: name, pass: s.vtime}
		s.queues[name] = q
		s.order = append(s.order, name)
	}
	q.cfg = s.lookup(name)
	return q
}

// push enqueues a job, enforcing the tenant's quota and the global
// bound. Typed failures: ErrQuotaExceeded (weight 0 or per-tenant cap),
// ErrQueueFull (global capacity).
func (s *sched) push(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.tenantLocked(j.spec.Tenant)
	if q.cfg.Weight <= 0 {
		return fmt.Errorf("%w: tenant %q has zero weight", ErrQuotaExceeded, j.spec.Tenant)
	}
	if q.cfg.MaxQueued > 0 && len(q.jobs) >= q.cfg.MaxQueued {
		return fmt.Errorf("%w: tenant %q already has %d jobs queued (cap %d)",
			ErrQuotaExceeded, j.spec.Tenant, len(q.jobs), q.cfg.MaxQueued)
	}
	if s.size >= s.cap {
		return fmt.Errorf("%w (depth %d)", ErrQueueFull, s.cap)
	}
	q.jobs = append(q.jobs, j)
	s.size++
	s.cond.Signal()
	return nil
}

// pushRecovered re-admits a job replayed from the durable store. Jobs
// that were accepted before a crash are never bounced by quotas or the
// global bound on the way back in — recovery must not lose work — so
// only the weight-0 bar is impossible to land on (those jobs could not
// have been admitted in the first place; if the config changed across
// the restart, the job is still re-admitted and simply scheduled at
// weight 1).
func (s *sched) pushRecovered(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.tenantLocked(j.spec.Tenant)
	q.jobs = append(q.jobs, j)
	s.size++
	s.cond.Signal()
}

// pop blocks until a job is available (dispatching the fairest pick) or
// the scheduler is closed and fully drained (ok=false).
func (s *sched) pop() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if q := s.pickLocked(); q != nil {
			j := q.jobs[0]
			copy(q.jobs, q.jobs[1:])
			q.jobs[len(q.jobs)-1] = nil // release the dispatched job
			q.jobs = q.jobs[:len(q.jobs)-1]
			s.size--
			weight := q.cfg.Weight
			if weight <= 0 {
				weight = 1 // recovered job of a since-barred tenant
			}
			q.pass += 1.0 / float64(weight)
			s.vtime = q.pass
			return j, true
		}
		if s.closed {
			return nil, false
		}
		s.cond.Wait()
	}
}

// pickLocked selects the tenant to dispatch from: the highest priority
// class with queued work, then the lowest pass within it (registration
// order breaks exact ties). Returns nil when nothing is queued.
func (s *sched) pickLocked() *tenantQ {
	var best *tenantQ
	for _, name := range s.order {
		q := s.queues[name]
		if len(q.jobs) == 0 {
			continue
		}
		if best == nil ||
			q.cfg.Priority > best.cfg.Priority ||
			(q.cfg.Priority == best.cfg.Priority && q.pass < best.pass) {
			best = q
		}
	}
	return best
}

// close stops admission-side signaling: workers drain what is queued
// and then pop returns ok=false.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
