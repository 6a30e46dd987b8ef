package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"snowbma/internal/boolfn"
	"snowbma/internal/service"
	"snowbma/internal/store"
	"snowbma/internal/victim"
)

// jobMix is the traffic of the two job-serving workloads: a hot set of
// victims, each client sending a 3:1 mix of attack and findlut jobs over
// it, and the answers every job must come back with.
type jobMix struct {
	hot  []victimInput
	want [][]int // findlut oracle answer per hot victim
	rngs []*rand.Rand
}

func newJobMix(cfg config, clients int) (*jobMix, error) {
	m := &jobMix{hot: hotSet(cfg.Seed, cfg.Sizes.Hot)}
	f := boolfn.MustParse(targetExpr)
	for _, h := range m.hot {
		v, err := victim.Build(victim.Config{Key: h.Key})
		if err != nil {
			return nil, err
		}
		m.want = append(m.want, findOracle(v.Image, f))
	}
	for c := 0; c < clients; c++ {
		m.rngs = append(m.rngs, rand.New(rand.NewSource(cfg.Seed*7919+int64(c))))
	}
	return m, nil
}

// spec is client c's i-th job. Every fourth job is a findlut; the
// clients' findluts are out of phase, and client 1 starts with one.
func (m *jobMix) spec(c, i int) (service.JobSpec, int, bool) {
	idx := m.rngs[c].Intn(len(m.hot))
	attack := (i+3*c)%4 != 3
	return m.specFor(idx, attack), idx, attack
}

func (m *jobMix) specFor(idx int, attack bool) service.JobSpec {
	h := m.hot[idx]
	if attack {
		return service.JobSpec{Kind: service.KindAttack, Victim: service.VictimSpec{Key: h.Key}, IV: h.IV}
	}
	return service.JobSpec{Kind: service.KindFindLUT, Victim: service.VictimSpec{Key: h.Key}, Expr: targetExpr}
}

// check holds a finished job's result against the expected answer.
func (m *jobMix) check(s *session, where string, idx int, res any) {
	switch r := res.(type) {
	case *service.AttackResult:
		h := m.hot[idx]
		if !r.Verified || r.Key != h.Key || r.IV != h.IV || r.Loads != wantLoads {
			s.wrong("%s attack on victim %d: verified=%v key %08x want %08x, %d loads want %d",
				where, idx, r.Verified, r.Key, h.Key, r.Loads, wantLoads)
		}
		s.acc("core.loads", float64(r.Loads), 1)
		s.acc("core.sweep_passes", float64(r.Batch.Passes), 1)
		s.acc("core.lane_utilisation", float64(r.Batch.Lanes), float64(r.Batch.LaneWords*64))
	case *service.FindResult:
		if !slices.Equal(r.Matches, m.want[idx]) {
			s.wrong("%s findlut on victim %d: %d matches, oracle has %d", where, idx, len(r.Matches), len(m.want[idx]))
		}
	default:
		s.wrong("%s: result of type %T", where, res)
	}
}

// warmUp runs one attack and one findlut job per hot victim through
// submit/wait/result and checks the answers, so the measured window
// starts with every cache filled.
func (m *jobMix) warmUp(s *session, where string, run func(service.JobSpec) (any, error)) error {
	for idx := range m.hot {
		for _, attack := range []bool{true, false} {
			res, err := run(m.specFor(idx, attack))
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			m.check(s, where+" warm-up", idx, res)
		}
	}
	return nil
}

// openEngine starts a durable engine on a WAL in dir; traced runs wrap
// the store in a timing recorder.
func openEngine(dir string, workers int, traced bool) (*service.Engine, *timedStore, error) {
	wal, err := store.OpenDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var st store.JobStore = wal
	var ts *timedStore
	if traced {
		ts = newTimedStore(wal)
		st = ts
	}
	eng, err := service.Open(service.Config{Workers: workers, Store: st})
	if err != nil {
		wal.Close()
		return nil, nil, err
	}
	return eng, ts, nil
}

// traceJob grafts a finished job's own trace under span parent and
// nests the job's store appends in the op tree under root.
func traceJob(s *session, root, parent int, eng *service.Engine, ts *timedStore, id string, submitted time.Time) {
	var buf bytes.Buffer
	if err := eng.WriteTrace(&buf, id); err != nil {
		s.wrong("trace of %s: %v", id, err)
		return
	}
	jt, err := decodeJobTrace(buf.Bytes())
	if err != nil {
		s.wrong("trace of %s: %v", id, err)
		return
	}
	s.tr.graft(parent, jt, submitted.UnixNano())
	for _, a := range ts.take(id) {
		s.tr.nest(root, "store.append", a[0], a[1])
	}
	if v, ok := jt.counters["scan.catalogue_misses"]; ok {
		s.acc("core.scan_catalogue_misses", v, 1)
		s.acc("core.scan_deep_compares", jt.counters["scan.deep_compares"], 1)
	}
}

// serviceWorkload is the serving user: two clients against one durable
// engine (WAL on disk, two workers) whose caches were warmed in set-up.
type serviceWorkload struct {
	dir string
	mix *jobMix
	eng *service.Engine
	ts  *timedStore

	hits, lookups int
	appends, jobs int
}

func (w *serviceWorkload) setup(s *session) error {
	mix, err := newJobMix(s.cfg, 2)
	if err != nil {
		return err
	}
	w.mix = mix
	if err := os.MkdirAll(filepath.Join(s.cfg.Out, "tmp"), 0o755); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(filepath.Join(s.cfg.Out, "tmp"), "warm-"); err != nil {
		return err
	}
	if w.eng, w.ts, err = openEngine(w.dir, 2, s.tr != nil); err != nil {
		return err
	}
	return w.mix.warmUp(s, "warm_service", func(spec service.JobSpec) (any, error) {
		st, err := w.eng.Submit(spec)
		if err != nil {
			return nil, err
		}
		if _, err := w.eng.Wait(context.Background(), st.ID); err != nil {
			return nil, err
		}
		res, fin, err := w.eng.Result(st.ID)
		if err == nil && fin.State != service.StateDone {
			err = fmt.Errorf("job %s %s: %s", st.ID, fin.State, fin.Error)
		}
		return res, err
	})
}

func (w *serviceWorkload) run(s *session) error {
	h0, m0, _ := w.eng.CacheStats()
	a0 := w.appended()
	s.clients(2, func(c, i int) {
		spec, idx, attack := w.mix.spec(c, i)
		traced := s.traced(i)
		t0w, t0 := wallNow(), time.Now()
		st, err := w.eng.Submit(spec)
		if err != nil {
			s.failed(err) // a refusal: queue full or over quota
			return
		}
		tSub := wallNow()
		if _, err := w.eng.Wait(context.Background(), st.ID); err != nil {
			s.failed(err)
			return
		}
		lat, t1w := time.Since(t0), wallNow()
		res, fin, err := w.eng.Result(st.ID)
		if err == nil && fin.State != service.StateDone {
			err = errors.New(fin.State + ": " + fin.Error)
		}
		if err != nil {
			s.failed(err)
			return
		}
		w.mix.check(s, "warm_service", idx, res)
		root := -1
		if traced {
			root = s.tr.op(spec.Kind, t0w, t1w)
			started, finished := fin.Started.UnixNano(), fin.Finished.UnixNano()
			s.tr.add(root, "service.submit", t0w, tSub)
			s.tr.add(root, "service.queue_wait", tSub, max(tSub, started))
			run := s.tr.add(root, "service.run", started, finished)
			s.tr.add(root, "service.finish", finished, t1w)
			traceJob(s, root, run, w.eng, w.ts, st.ID, fin.Submitted)
			if fr, ok := res.(*service.FindResult); ok {
				s.acc("core.scan_catalogue_misses", float64(fr.Stats.CatalogueMisses), 1)
				s.acc("core.scan_deep_compares", float64(fr.Stats.DeepCompares), 1)
			}
		}
		s.done(attack, traced, lat, root)
	})
	h1, m1, _ := w.eng.CacheStats()
	w.hits, w.lookups = h1-h0, (h1-h0)+(m1-m0)
	w.appends = w.appended() - a0
	w.jobs = s.res.Attempted - s.res.Failed
	return nil
}

func (w *serviceWorkload) appended() int {
	if w.ts == nil {
		return 0
	}
	return w.ts.appended()
}

func (w *serviceWorkload) layers(s *session) {
	s.acc("victim.cache_hit_ratio", float64(w.hits), float64(w.lookups))
	s.acc("store.appends_per_job", float64(w.appends), float64(w.jobs))
}

func (w *serviceWorkload) close() error {
	var err error
	if w.eng != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = w.eng.Shutdown(ctx)
		cancel()
	}
	if w.dir != "" {
		if rerr := os.RemoveAll(w.dir); err == nil {
			err = rerr
		}
	}
	return err
}
