package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"snowbma/internal/fleet"
	"snowbma/internal/service"
)

// fleetWorkload is the same traffic as warm_service sent through a
// fleet coordinator with default settings in front of two durable
// engines of one worker each, served over HTTP. Per-job compute matches
// warm_service, so the difference isolates dispatch, polling and
// finalize. A traced run ends with a window without load that measures
// what the coordinator costs while idle.
type fleetWorkload struct {
	dir     string
	mix     *jobMix
	workers map[string]*fleetWorker
	coord   *fleet.Coordinator

	hits, lookups int
	appends, jobs int
	loadRequests  int64
	idleRequests  int64
	idleSeconds   float64
}

// fleetWorker is one engine behind its HTTP server. requests counts
// every request the coordinator makes of it.
type fleetWorker struct {
	eng      *service.Engine
	ts       *timedStore
	srv      *httptest.Server
	requests atomic.Int64
}

func (w *fleetWorkload) setup(s *session) error {
	mix, err := newJobMix(s.cfg, 2)
	if err != nil {
		return err
	}
	w.mix = mix
	if err := os.MkdirAll(filepath.Join(s.cfg.Out, "tmp"), 0o755); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(filepath.Join(s.cfg.Out, "tmp"), "fleet-"); err != nil {
		return err
	}
	w.workers = map[string]*fleetWorker{}
	urls := map[string]string{}
	for _, name := range []string{"w1", "w2"} {
		fw := &fleetWorker{}
		if fw.eng, fw.ts, err = openEngine(filepath.Join(w.dir, name), 1, s.tr != nil); err != nil {
			return err
		}
		h := fw.eng.Handler()
		fw.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			fw.requests.Add(1)
			h.ServeHTTP(rw, r)
		}))
		w.workers[name] = fw
		urls[name] = fw.srv.URL
	}
	w.coord = fleet.New(fleet.Config{Workers: urls})
	return w.mix.warmUp(s, "fleet_attack", func(spec service.JobSpec) (any, error) {
		res, _, err := w.do(spec)
		return res, err
	})
}

// do runs one job through the coordinator and decodes its result.
func (w *fleetWorkload) do(spec service.JobSpec) (any, fleet.Status, error) {
	st, err := w.coord.Submit(spec)
	if err != nil {
		return nil, fleet.Status{}, err
	}
	if _, err := w.coord.Wait(context.Background(), st.ID); err != nil {
		return nil, st, err
	}
	return w.result(st.ID)
}

func (w *fleetWorkload) result(id string) (any, fleet.Status, error) {
	raw, fin, err := w.coord.Result(id)
	if err != nil {
		return nil, fin, err
	}
	if fin.State != service.StateDone {
		return nil, fin, errors.New(fin.State + ": " + fin.Error)
	}
	var res any = &service.AttackResult{}
	if fin.Kind == service.KindFindLUT {
		res = &service.FindResult{}
	}
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, fin, fmt.Errorf("result of %s: %w", id, err)
	}
	return res, fin, nil
}

func (w *fleetWorkload) run(s *session) error {
	h0, l0 := w.cacheStats()
	a0, r0 := w.appended(), w.requests()
	s.clients(2, func(c, i int) {
		spec, idx, attack := w.mix.spec(c, i)
		traced := s.traced(i)
		t0w, t0 := wallNow(), time.Now()
		st, err := w.coord.Submit(spec)
		if err != nil {
			s.failed(err)
			return
		}
		tSub := wallNow()
		if _, err := w.coord.Wait(context.Background(), st.ID); err != nil {
			s.failed(err)
			return
		}
		lat, t1w := time.Since(t0), wallNow()
		res, fin, err := w.result(st.ID)
		if err != nil {
			s.failed(err)
			return
		}
		w.mix.check(s, "fleet_attack", idx, res)
		root := -1
		if traced {
			root = s.tr.op(spec.Kind, t0w, t1w)
			s.tr.add(root, "fleet.dispatch", t0w, tSub)
			fw := w.workers[fin.Worker]
			if ws, err := fw.eng.Get(fin.RemoteID); err != nil || ws.Started == nil || ws.Finished == nil {
				s.wrong("fleet_attack: %s has no worker-side status on %s: %v", st.ID, fin.Worker, err)
			} else {
				started, finished := ws.Started.UnixNano(), ws.Finished.UnixNano()
				s.tr.add(root, "service.queue_wait", tSub, max(tSub, started))
				run := s.tr.add(root, "service.run", started, finished)
				s.tr.add(root, "fleet.finalize_lag", finished, t1w)
				traceJob(s, root, run, fw.eng, fw.ts, fin.RemoteID, ws.Submitted)
			}
			if fr, ok := res.(*service.FindResult); ok {
				s.acc("core.scan_catalogue_misses", float64(fr.Stats.CatalogueMisses), 1)
				s.acc("core.scan_deep_compares", float64(fr.Stats.DeepCompares), 1)
			}
		}
		s.done(attack, traced, lat, root)
	})
	h1, l1 := w.cacheStats()
	w.hits, w.lookups = h1-h0, l1-l0
	w.appends, w.loadRequests = w.appended()-a0, w.requests()-r0
	w.jobs = s.res.Attempted - s.res.Failed
	if s.tr != nil && s.cfg.Sizes.IdleS > 0 {
		r1 := w.requests()
		start := time.Now()
		time.Sleep(time.Duration(s.cfg.Sizes.IdleS * float64(time.Second)))
		w.idleRequests, w.idleSeconds = w.requests()-r1, time.Since(start).Seconds()
	}
	return nil
}

func (w *fleetWorkload) cacheStats() (hits, lookups int) {
	for _, fw := range w.workers {
		h, m, _ := fw.eng.CacheStats()
		hits, lookups = hits+h, lookups+h+m
	}
	return hits, lookups
}

func (w *fleetWorkload) appended() int {
	n := 0
	for _, fw := range w.workers {
		if fw.ts != nil {
			n += fw.ts.appended()
		}
	}
	return n
}

func (w *fleetWorkload) requests() int64 {
	var n int64
	for _, fw := range w.workers {
		n += fw.requests.Load()
	}
	return n
}

func (w *fleetWorkload) layers(s *session) {
	s.acc("victim.cache_hit_ratio", float64(w.hits), float64(w.lookups))
	s.acc("store.appends_per_job", float64(w.appends), float64(w.jobs))
	s.acc("fleet.worker_requests_per_job", float64(w.loadRequests), float64(w.jobs))
	s.acc("fleet.idle_requests_per_s", float64(w.idleRequests), w.idleSeconds)
}

func (w *fleetWorkload) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	if w.coord != nil {
		errs = append(errs, w.coord.Shutdown(ctx))
	}
	for _, fw := range w.workers {
		if fw.srv != nil {
			fw.srv.Close()
		}
		errs = append(errs, fw.eng.Shutdown(ctx))
	}
	if w.dir != "" {
		errs = append(errs, os.RemoveAll(w.dir))
	}
	return errors.Join(errs...)
}
