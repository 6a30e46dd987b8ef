package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"snowbma/internal/corpus"
	"snowbma/internal/obs"
	"snowbma/internal/service"
)

// Typed coordinator errors.
var (
	// ErrNoWorkers: no live worker could accept the job.
	ErrNoWorkers = errors.New("fleet: no live workers")
	// ErrNotFound: no fleet job with that id.
	ErrNotFound = errors.New("fleet: job not found")
	// ErrNotFinished: the job has not reached a terminal state yet.
	ErrNotFinished = errors.New("fleet: job not finished")
	// ErrShuttingDown: the coordinator no longer accepts jobs.
	ErrShuttingDown = errors.New("fleet: shutting down")
)

// Defaults for the health/lease protocol.
const (
	DefaultHealthInterval = 250 * time.Millisecond
	// DefaultLeaseFactor: a job lease (and a worker's liveness) expires
	// after this many missed health intervals.
	DefaultLeaseFactor = 4
)

// Config parameterizes a Coordinator.
type Config struct {
	// Workers seeds the fleet: name → base URL of a running
	// `snowbma serve` process. More can join later via AddWorker.
	Workers map[string]string
	// HealthInterval is the monitor cadence: health checks, job status
	// polls and lease renewal all run on it (0 = DefaultHealthInterval).
	HealthInterval time.Duration
	// LeaseTTL is how long a worker may go unheard-from before its jobs
	// are reassigned (0 = DefaultLeaseFactor * HealthInterval).
	LeaseTTL time.Duration
	// Tel receives coordinator metrics (nil = fresh handle).
	Tel *obs.Telemetry
	// Logf receives human-readable coordinator logs (nil = silent).
	Logf func(string, ...any)

	// eventBuffer overrides the event bus ring capacity
	// (obs.DefaultEventBuffer) for tests that need a larger ring.
	eventBuffer int
}

// WorkerInfo is the wire-format view of one fleet member.
type WorkerInfo struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	Live bool   `json:"live"`
	// Jobs counts this worker's outstanding (non-terminal) assignments.
	Jobs int `json:"jobs"`
}

// Status is the wire-format view of one fleet job.
type Status struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant,omitempty"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	// Worker is the current owner; RemoteID the job's id on it.
	Worker   string `json:"worker,omitempty"`
	RemoteID string `json:"remote_id,omitempty"`
	// Shard is the consistent-hash key the job was routed by.
	Shard string `json:"shard,omitempty"`
	// Reassigned counts how many times the job moved to a new worker.
	Reassigned int        `json:"reassigned,omitempty"`
	Submitted  time.Time  `json:"submitted"`
	Finished   *time.Time `json:"finished,omitempty"`
	// Shards counts the child jobs of a composite (fleet-sharded corpus)
	// submission; Parent names the composite a shard belongs to.
	Shards int    `json:"shards,omitempty"`
	Parent string `json:"parent,omitempty"`
}

// worker is one fleet member's coordinator-side state.
type worker struct {
	name     string
	url      string
	live     bool
	lastSeen time.Time
}

// fleetJob is one coordinated job. Mutable fields are guarded by the
// coordinator mutex; done closes exactly once at the terminal state —
// that single close is the fleet's exactly-once accounting point.
type fleetJob struct {
	id    string
	spec  service.JobSpec
	shard string

	state  string
	err    string
	result json.RawMessage

	owner      string // current worker name ("" = awaiting dispatch)
	remoteID   string
	lease      time.Time
	reassigned int

	// composite marks a fleet-sharded corpus parent: it never dispatches
	// itself; it settles when its children (by id) all reach terminal
	// states. Children carry the parent id back.
	composite bool
	children  []string
	parent    string

	submitted time.Time
	finished  time.Time
	done      chan struct{}
}

func (j *fleetJob) status() Status {
	st := Status{
		ID:         j.id,
		Kind:       j.spec.Kind,
		Tenant:     j.spec.Tenant,
		State:      j.state,
		Error:      j.err,
		Worker:     j.owner,
		RemoteID:   j.remoteID,
		Shard:      j.shard,
		Reassigned: j.reassigned,
		Submitted:  j.submitted,
		Shards:     len(j.children),
		Parent:     j.parent,
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Coordinator shards jobs across worker processes. Create with New,
// stop with Shutdown.
type Coordinator struct {
	cfg  Config
	tel  *obs.Telemetry
	logf func(string, ...any)
	bus  *obs.EventBus
	rpc  *client

	mu      sync.Mutex
	ring    *Ring
	workers map[string]*worker
	jobs    map[string]*fleetJob
	order   []string
	seq     int
	closed  bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New starts a coordinator over the configured workers and begins the
// health/lease monitor. Workers are assumed live until the first check
// says otherwise, so jobs can be submitted immediately.
func New(cfg Config) *Coordinator {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseFactor * cfg.HealthInterval
	}
	tel := cfg.Tel
	if tel == nil {
		tel = obs.New()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:     cfg,
		tel:     tel,
		logf:    logf,
		bus:     obs.NewEventBus(cfg.eventBuffer),
		rpc:     newClient(),
		ring:    NewRing(),
		workers: map[string]*worker{},
		jobs:    map[string]*fleetJob{},
		stop:    make(chan struct{}),
	}
	for name, url := range cfg.Workers {
		c.AddWorker(name, url)
	}
	c.wg.Add(1)
	go c.monitor()
	return c
}

// shardKey derives the consistent-hash key for a spec: jobs that build
// the same victim share a key (so one worker's victim.Cache serves all
// of them); campaign jobs key on their own parameters; a corpus shard
// keys on its first design's fingerprint (the coordinator already
// grouped the shard's indices by that routing — see submitCorpus).
func shardKey(spec service.JobSpec) string {
	if spec.Kind == service.KindCampaign && spec.Campaign != nil {
		return fmt.Sprintf("campaign|%d|%d|%t", spec.Campaign.Seed, spec.Campaign.Runs, spec.Campaign.Chaos)
	}
	if spec.Kind == service.KindCorpus && spec.Corpus != nil {
		cs := spec.Corpus
		if len(cs.Indices) > 0 {
			return corpus.SeededConfig(cs.Seed, cs.Indices[0]).Fingerprint()
		}
		return fmt.Sprintf("corpus|%d|%d", cs.Seed, cs.Designs)
	}
	return spec.Victim.Config().Fingerprint()
}

// AddWorker joins a worker to the fleet. Its ring points are a pure
// function of the name, so a worker that leaves and rejoins owns the
// same shards again.
func (c *Coordinator) AddWorker(name, url string) {
	c.mu.Lock()
	if w, ok := c.workers[name]; ok {
		// Rejoin (possibly at a new address after a restart).
		w.url = url
		w.live = true
		w.lastSeen = time.Now()
		c.mu.Unlock()
		c.publishFleet("worker_up", "", obs.KV("worker", name))
		return
	}
	c.workers[name] = &worker{name: name, url: url, live: true, lastSeen: time.Now()}
	c.ring.Add(name)
	c.tel.Gauge("fleet.workers").Set(float64(len(c.workers)))
	c.mu.Unlock()
	c.publishFleet("worker_up", "", obs.KV("worker", name))
	c.logf("fleet: worker %s joined at %s", name, url)
}

// RemoveWorker departs a worker gracefully: its outstanding jobs are
// released for redispatch to the surviving ring.
func (c *Coordinator) RemoveWorker(name string) {
	c.mu.Lock()
	if _, ok := c.workers[name]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.workers, name)
	c.ring.Remove(name)
	c.tel.Gauge("fleet.workers").Set(float64(len(c.workers)))
	released := c.releaseJobsLocked(name)
	c.mu.Unlock()
	c.publishFleet("worker_removed", "", obs.KV("worker", name), obs.KV("released", released))
	c.logf("fleet: worker %s removed, %d jobs released", name, released)
}

// releaseJobsLocked unassigns every non-terminal job owned by the named
// worker; the monitor redispatches them. Returns the release count.
func (c *Coordinator) releaseJobsLocked(name string) int {
	n := 0
	for _, j := range c.jobs {
		if j.owner == name && !service.Terminal(j.state) {
			j.owner = ""
			j.remoteID = ""
			n++
		}
	}
	return n
}

// Workers snapshots the fleet membership.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		info := WorkerInfo{Name: w.name, URL: w.url, Live: w.live}
		for _, j := range c.jobs {
			if j.owner == w.name && !service.Terminal(j.state) {
				info.Jobs++
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// Submit routes a job to the live worker owning its shard. A rejection
// by the worker (invalid spec, full queue, over quota) propagates to
// the caller unchanged; a dead worker is walked over on the ring. The
// spec is validated coordinator-side first — the mirror API rejects
// exactly what a worker engine would, with the same ErrSpec. A corpus
// submission without explicit indices is fleet-sharded: split across
// the live ring by design fingerprint and merged on completion.
func (c *Coordinator) Submit(spec service.JobSpec) (Status, error) {
	if err := spec.Validate(); err != nil {
		c.tel.Counter("fleet.jobs_rejected").Inc()
		return Status{}, err
	}
	if spec.Kind == service.KindCorpus && len(spec.Corpus.Indices) == 0 {
		return c.submitCorpus(spec)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Status{}, ErrShuttingDown
	}
	c.seq++
	j := &fleetJob{
		id:        fmt.Sprintf("fj-%04d", c.seq),
		spec:      spec,
		shard:     shardKey(spec),
		state:     service.StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	c.mu.Unlock()

	if err := c.dispatch(j); err != nil {
		// The id is not handed back: another Submit may already hold a
		// later one, and reusing this one would give two jobs one id.
		c.tel.Counter("fleet.jobs_rejected").Inc()
		return Status{}, err
	}
	c.mu.Lock()
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	st := j.status()
	c.mu.Unlock()
	c.tel.Counter("fleet.jobs_submitted").Inc()
	c.publishFleet("assigned", j.id,
		obs.KV("worker", st.Worker), obs.KV("shard", shortShard(j.shard)))
	c.publishJobState(j.id, service.StateQueued)
	return st, nil
}

// dispatch places the job on the live worker owning its shard, walking
// the ring past workers that are down or unreachable. Worker-side
// rejections (HTTP 4xx/5xx bodies) abort the dispatch — the worker is
// alive and said no — while transport errors mark the worker suspect
// and try the next one.
func (c *Coordinator) dispatch(j *fleetJob) error {
	tried := map[string]bool{}
	for {
		c.mu.Lock()
		name := c.ring.GetLive(j.shard, func(m string) bool {
			return !tried[m] && c.workers[m] != nil && c.workers[m].live
		})
		var url string
		if name != "" {
			url = c.workers[name].url
		}
		c.mu.Unlock()
		if name == "" {
			return ErrNoWorkers
		}
		tried[name] = true
		st, err := c.rpc.submit(url, j.spec)
		if err != nil {
			var wErr *workerError
			if errors.As(err, &wErr) {
				return fmt.Errorf("fleet: worker %s rejected job: %w", name, err)
			}
			// Transport failure: suspect the worker and walk on.
			c.markSuspect(name)
			continue
		}
		c.mu.Lock()
		j.owner = name
		j.remoteID = st.ID
		j.state = st.State
		j.lease = time.Now().Add(c.cfg.LeaseTTL)
		c.mu.Unlock()
		return nil
	}
}

// markSuspect flags a worker dead immediately after a transport failure
// (the monitor confirms or revives it on its next pass).
func (c *Coordinator) markSuspect(name string) {
	c.mu.Lock()
	w, ok := c.workers[name]
	wasLive := ok && w.live
	if ok {
		w.live = false
	}
	c.mu.Unlock()
	if wasLive {
		c.publishFleet("worker_down", "", obs.KV("worker", name), obs.KV("cause", "transport"))
		c.logf("fleet: worker %s unreachable", name)
	}
}

// Get returns one fleet job's status.
func (c *Coordinator) Get(id string) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.status(), nil
}

// List returns every fleet job's status in submission order.
func (c *Coordinator) List() []Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Status, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.jobs[id].status())
	}
	return out
}

// Result returns a finished job's result JSON (nil for failed and
// cancelled jobs) alongside its status.
func (c *Coordinator) Result(id string) (json.RawMessage, Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !service.Terminal(j.state) {
		return nil, j.status(), fmt.Errorf("%w: %s is %s", ErrNotFinished, id, j.state)
	}
	return j.result, j.status(), nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (c *Coordinator) Wait(ctx context.Context, id string) (Status, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	select {
	case <-j.done:
		return c.Get(id)
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// monitor is the coordinator's single background loop: worker health,
// job status polling, lease renewal, death detection and redispatch all
// run on one cadence, so there is exactly one writer of liveness state.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		c.checkWorkers()
		c.pollJobs()
	}
}

// checkWorkers probes every member's /healthz. Any HTTP response means
// the process is alive (a draining worker answers 503 but still
// finishes its jobs); only transport failure counts against the lease.
func (c *Coordinator) checkWorkers() {
	c.mu.Lock()
	type probe struct{ name, url string }
	probes := make([]probe, 0, len(c.workers))
	for _, w := range c.workers {
		probes = append(probes, probe{w.name, w.url})
	}
	ttl := c.cfg.LeaseTTL
	c.mu.Unlock()

	for _, p := range probes {
		alive := c.rpc.healthz(p.url)
		now := time.Now()
		c.mu.Lock()
		w, ok := c.workers[p.name]
		if !ok {
			c.mu.Unlock()
			continue
		}
		var event string
		if alive {
			w.lastSeen = now
			if !w.live {
				w.live = true
				event = "worker_up"
			}
		} else if w.live && now.Sub(w.lastSeen) > ttl {
			w.live = false
			event = "worker_down"
		}
		var released int
		if event == "worker_down" {
			released = c.releaseJobsLocked(p.name)
			c.tel.Counter("fleet.worker_deaths").Inc()
		}
		c.mu.Unlock()
		switch event {
		case "worker_up":
			c.publishFleet("worker_up", "", obs.KV("worker", p.name))
			c.logf("fleet: worker %s back", p.name)
		case "worker_down":
			c.publishFleet("worker_down", "",
				obs.KV("worker", p.name), obs.KV("released", released))
			c.logf("fleet: worker %s lease expired, released %d jobs", p.name, released)
		}
	}
}

// pollJobs advances every outstanding job: redispatches the unowned,
// refreshes status (renewing the lease) on the owned, and finalizes the
// terminal — exactly once, whatever duplicate completions a revived
// worker later reports. Status refresh is batched: one job-list request
// per owning worker per tick, so the poll load is O(workers), not
// O(in-flight jobs).
func (c *Coordinator) pollJobs() {
	type ref struct {
		j        *fleetJob
		remoteID string
		lease    time.Time
	}
	c.mu.Lock()
	byWorker := map[string][]ref{}
	urls := map[string]string{}
	unowned := make([]*fleetJob, 0)
	for _, id := range c.order {
		j := c.jobs[id]
		if service.Terminal(j.state) || j.composite {
			continue // composites never dispatch; settleComposites owns them
		}
		w, ok := c.workers[j.owner]
		if j.owner == "" || !ok {
			unowned = append(unowned, j)
			continue
		}
		byWorker[j.owner] = append(byWorker[j.owner], ref{j, j.remoteID, j.lease})
		urls[j.owner] = w.url
	}
	c.mu.Unlock()

	for _, j := range unowned {
		c.redispatch(j)
	}
	for owner, refs := range byWorker {
		url := urls[owner]
		remote, err := c.rpc.statusAll(url)
		if err != nil {
			// Transport failure: expired leases release their jobs; a
			// still-leased job rides out the glitch until the next tick.
			expired := make([]*fleetJob, 0)
			for _, r := range refs {
				if time.Now().After(r.lease) {
					expired = append(expired, r.j)
				}
			}
			if len(expired) > 0 {
				c.markSuspect(owner)
				for _, j := range expired {
					c.redispatch(j)
				}
			}
			continue
		}
		for _, r := range refs {
			j := r.j
			st, known := remote[r.remoteID]
			if !known {
				// The worker answered but does not have this job: it
				// restarted without (or with a different) durable store.
				// Reclaim and redispatch.
				c.logf("fleet: %s lost by %s, redispatching", j.id, owner)
				c.redispatch(j)
				continue
			}
			c.mu.Lock()
			j.lease = time.Now().Add(c.cfg.LeaseTTL)
			prev := j.state
			if !service.Terminal(j.state) && !service.Terminal(st.State) {
				j.state = st.State
			}
			c.mu.Unlock()
			if prev == service.StateQueued && st.State == service.StateRunning {
				c.publishJobState(j.id, service.StateRunning)
			}
			if service.Terminal(st.State) {
				var result json.RawMessage
				if st.State == service.StateDone {
					if res, _, rerr := c.rpc.result(url, r.remoteID); rerr == nil {
						result = res
					}
				}
				c.finalize(j, st, result)
			}
		}
	}
	c.settleComposites()
}

// redispatch moves an unowned (or lost) job to the next live worker on
// its shard's ring walk.
func (c *Coordinator) redispatch(j *fleetJob) {
	c.mu.Lock()
	if service.Terminal(j.state) || c.closed {
		c.mu.Unlock()
		return
	}
	hadOwner := j.owner
	j.owner = ""
	j.remoteID = ""
	c.mu.Unlock()
	if err := c.dispatch(j); err != nil {
		// No live worker right now; the next monitor tick retries.
		return
	}
	c.mu.Lock()
	j.reassigned++
	st := j.status()
	c.mu.Unlock()
	c.tel.Counter("fleet.jobs_reassigned").Inc()
	c.publishFleet("reassigned", j.id,
		obs.KV("worker", st.Worker), obs.KV("from", hadOwner))
	c.logf("fleet: %s reassigned %s → %s", j.id, hadOwner, st.Worker)
}

// finalize records a job's terminal state exactly once. A second
// terminal report for the same job (a worker revived after its jobs
// were reassigned, a durable worker replaying history) is suppressed
// and counted, never double-applied.
func (c *Coordinator) finalize(j *fleetJob, st service.Status, result json.RawMessage) {
	c.mu.Lock()
	if service.Terminal(j.state) {
		c.mu.Unlock()
		c.tel.Counter("fleet.duplicates_suppressed").Inc()
		return
	}
	j.state = st.State
	j.err = st.Error
	j.result = result
	j.finished = time.Now()
	close(j.done)
	c.mu.Unlock()
	c.tel.Counter("fleet.jobs_" + st.State).Inc()
	c.publishJobState(j.id, st.State)
}

// shortShard trims a shard key for event payloads (victim fingerprints
// run long; the prefix is plenty to correlate).
func shortShard(s string) string {
	if len(s) > 24 {
		return s[:24]
	}
	return s
}

func (c *Coordinator) publishFleet(name, job string, attrs ...obs.Attr) {
	ev := obs.BusEvent{Type: obs.EventFleet, Name: name, Job: job}
	for _, a := range attrs {
		if ev.Attrs == nil {
			ev.Attrs = map[string]any{}
		}
		ev.Attrs[a.Key] = a.Value
	}
	c.bus.Publish(ev)
}

// publishJobState mirrors the service's job lifecycle events at fleet
// scope, so one SSE subscription sees every job across every worker.
func (c *Coordinator) publishJobState(id, state string) {
	c.bus.Publish(obs.BusEvent{Type: obs.EventJob, Job: id, Name: state})
}

// Shutdown stops the coordinator: no new submissions, the monitor
// stops, the event bus closes. Workers are left running — the fleet
// layer owns routing, not worker lifecycles.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	c.bus.Publish(obs.BusEvent{Type: obs.EventService, Name: "shutdown"})
	c.bus.Close()
	return nil
}
