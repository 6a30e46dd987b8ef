package fleet

import (
	"encoding/json"
	"fmt"
	"time"

	"snowbma/internal/corpus"
	"snowbma/internal/obs"
	"snowbma/internal/service"
)

// Fleet-sharded corpus census: one corpus submission splits into one
// child job per live worker, each carrying the subset of design indices
// whose fingerprints the ring routes to that worker. Routing and
// execution derive designs from the same (seed, index) pairs
// (corpus.SeededConfig), so a worker's victim cache and scan memo see a
// stable slice of the design population across submissions. The parent
// job is composite: it never dispatches; it settles when every child
// reaches a terminal state, merging the shard reports (corpus.Merge)
// into one fleet-wide report.

// submitCorpus shards a whole-corpus spec across the live ring. Every
// design must be placeable at submission time (ErrNoWorkers otherwise);
// after that, worker churn is survived by the ordinary redispatch
// machinery — a shard follows its first design's fingerprint on the
// ring walk like any job.
func (c *Coordinator) submitCorpus(spec service.JobSpec) (Status, error) {
	cs := *spec.Corpus
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Status{}, ErrShuttingDown
	}
	live := func(m string) bool { return c.workers[m] != nil && c.workers[m].live }
	groups := map[string][]int{}
	var owners []string // first-placement order, for deterministic child ids
	for i := 0; i < cs.Designs; i++ {
		fp := corpus.SeededConfig(cs.Seed, i).Fingerprint()
		name := c.ring.GetLive(fp, live)
		if name == "" {
			c.mu.Unlock()
			c.tel.Counter("fleet.jobs_rejected").Inc()
			return Status{}, ErrNoWorkers
		}
		if _, ok := groups[name]; !ok {
			owners = append(owners, name)
		}
		groups[name] = append(groups[name], i)
	}
	now := time.Now()
	c.seq++
	parent := &fleetJob{
		id:        fmt.Sprintf("fj-%04d", c.seq),
		spec:      spec,
		shard:     shardKey(spec),
		state:     service.StateQueued,
		composite: true,
		submitted: now,
		done:      make(chan struct{}),
	}
	children := make([]*fleetJob, 0, len(owners))
	for _, name := range owners {
		c.seq++
		cspec := spec
		sub := cs
		sub.Indices = groups[name]
		cspec.Corpus = &sub
		ch := &fleetJob{
			id:        fmt.Sprintf("fj-%04d", c.seq),
			spec:      cspec,
			shard:     shardKey(cspec),
			state:     service.StateQueued,
			parent:    parent.id,
			submitted: now,
			done:      make(chan struct{}),
		}
		parent.children = append(parent.children, ch.id)
		children = append(children, ch)
	}
	c.jobs[parent.id] = parent
	c.order = append(c.order, parent.id)
	for _, ch := range children {
		c.jobs[ch.id] = ch
		c.order = append(c.order, ch.id)
	}
	st := parent.status()
	c.mu.Unlock()

	c.tel.Counter("fleet.jobs_submitted").Inc()
	c.publishFleet("corpus_sharded", parent.id,
		obs.KV("designs", cs.Designs), obs.KV("shards", len(children)))
	c.publishJobState(parent.id, service.StateQueued)
	for _, ch := range children {
		// A failed dispatch leaves the child unowned; the monitor
		// redispatches it on the next tick — a sharded corpus tolerates
		// worker churn rather than unwinding the whole submission.
		if err := c.dispatch(ch); err != nil {
			c.logf("fleet: corpus shard %s awaiting dispatch: %v", ch.id, err)
			continue
		}
		c.mu.Lock()
		owner := ch.owner
		c.mu.Unlock()
		c.publishFleet("assigned", ch.id,
			obs.KV("worker", owner), obs.KV("shard", shortShard(ch.shard)))
	}
	return st, nil
}

// settleComposites advances composite parents: a parent runs once any
// child runs, and settles exactly once when all children are terminal —
// done with the merged corpus report if every shard succeeded, the
// first child's failure otherwise. Runs on the monitor cadence.
func (c *Coordinator) settleComposites() {
	type settled struct {
		j       *fleetJob
		st      service.Status
		results []json.RawMessage
	}
	var promote []string
	var finished []settled
	c.mu.Lock()
	for _, id := range c.order {
		j := c.jobs[id]
		if !j.composite || service.Terminal(j.state) {
			continue
		}
		allTerminal := true
		anyRunning := false
		st := service.Status{State: service.StateDone}
		var results []json.RawMessage
		for _, cid := range j.children {
			ch := c.jobs[cid]
			if !service.Terminal(ch.state) {
				allTerminal = false
				if ch.state != service.StateQueued {
					anyRunning = true
				}
				continue
			}
			if ch.state != service.StateDone && st.State == service.StateDone {
				st.State = ch.state
				st.Error = ch.err
				if st.Error == "" {
					st.Error = fmt.Sprintf("corpus shard %s %s", cid, ch.state)
				}
			}
			results = append(results, ch.result)
		}
		if !allTerminal {
			if anyRunning && j.state == service.StateQueued {
				j.state = service.StateRunning
				promote = append(promote, j.id)
			}
			continue
		}
		finished = append(finished, settled{j, st, results})
	}
	c.mu.Unlock()

	for _, id := range promote {
		c.publishJobState(id, service.StateRunning)
	}
	for _, s := range finished {
		var merged json.RawMessage
		if s.st.State == service.StateDone {
			rep, err := mergeShardReports(s.results)
			if err != nil {
				s.st.State = service.StateFailed
				s.st.Error = fmt.Sprintf("merging corpus shards: %v", err)
			} else {
				merged, _ = json.Marshal(rep)
				c.publishFleet("corpus_merged", s.j.id,
					obs.KV("designs", rep.Designs), obs.KV("exposed", rep.Exposed),
					obs.KV("shards", len(s.results)))
			}
		}
		c.finalize(s.j, s.st, merged)
	}
}

// mergeShardReports decodes each shard's corpus report and merges them.
func mergeShardReports(raw []json.RawMessage) (*corpus.Report, error) {
	reps := make([]*corpus.Report, 0, len(raw))
	for i, r := range raw {
		if len(r) == 0 {
			return nil, fmt.Errorf("shard %d returned no report", i)
		}
		var rep corpus.Report
		if err := json.Unmarshal(r, &rep); err != nil {
			return nil, fmt.Errorf("shard %d report: %w", i, err)
		}
		reps = append(reps, &rep)
	}
	return corpus.Merge(reps...), nil
}
