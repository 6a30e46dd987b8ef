package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"snowbma/bench/stats"
)

// The benchmark re-executes its own binary. roleEnv names what the
// child does; configEnv carries its JSON input.
const (
	roleEnv   = "SNOWBENCH_ROLE"
	configEnv = "SNOWBENCH_CONFIG"

	roleSetup   = "setup"   // set up one workload, report the time, exit
	roleMeasure = "measure" // set up one workload and measure it
	// Op processes of cold_attack.
	roleColdAttack  = "cold-attack"
	roleColdFindLUT = "cold-findlut"
	roleNoop        = "noop"
	roleCalibrate   = "calibrate" // time the calibration kernel (calib.go)
)

// result is what a workload process reports to the top-level process.
// On calibrated workloads (see calib.go) every time in it is at
// reference speed.
type result struct {
	SetupS float64 `json:"setup_s"`
	// Main and Probe are the latencies (ms) of untraced ops; traced
	// ops do extra bookkeeping and count only toward the per-layer
	// metrics.
	Main  []float64 `json:"main_ms"`
	Probe []float64 `json:"probe_ms"`
	// MainDone counts completed main ops in BusyS, the measured window
	// less its calibration pauses.
	MainDone int     `json:"main_done"`
	BusyS    float64 `json:"busy_s"`
	// CalibMS is the median time of the calibration kernel (0: the
	// workload is not calibrated).
	CalibMS float64 `json:"calib_ms,omitempty"`
	// RSSMB is the median of resident-set samples over the measured
	// window; on a workload whose ops run in processes of their own, the
	// median of those processes' peaks.
	RSSMB     float64  `json:"rss_mb"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     []string `json:"wrong,omitempty"`
	TracedOps int      `json:"traced_ops,omitempty"`
	// TracedOpMS is the mean wall time of a traced op.
	TracedOpMS float64            `json:"traced_op_ms,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// spawnChild runs this binary in role for cfg and returns its result.
func spawnChild(role string, cfg config) (*result, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if _, err := runSelf(role, b, &out, time.Duration(cfg.Seconds*float64(time.Second))+150*time.Second); err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s process: bad result: %w", role, err)
	}
	return &r, nil
}

// runSelf re-executes the binary in role with input in the environment,
// collecting its standard output; standard error passes through. It
// returns the child's peak RSS in MB. The child is killed if it
// outlives timeout.
func runSelf(role string, input []byte, stdout *bytes.Buffer, timeout time.Duration) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), roleEnv+"="+role, configEnv+"="+string(input))
	cmd.Stdout = stdout
	cmd.Stderr = os.Stderr
	// A benchmark killed from outside takes its children with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s process: %w", role, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
	}
	return 0, nil
}

// childMain is the entry point of a re-executed process.
func childMain(role string) int {
	start := wallNow()
	input := []byte(os.Getenv(configEnv))
	var out any
	var err error
	switch role {
	case roleSetup, roleMeasure:
		var cfg config
		if err = json.Unmarshal(input, &cfg); err == nil {
			out, err = runWorkloadProcess(cfg, role == roleSetup)
		}
	case roleColdAttack, roleColdFindLUT:
		out, err = coldOp(role, input, start)
	case roleNoop:
		out = struct{}{}
	case roleCalibrate:
		out = calibrationRuns()
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "snowbench %s: %v\n", role, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "snowbench %s: %v\n", role, err)
		return 1
	}
	return 0
}

// runWorkloadProcess sets up cfg.Workload and, unless setupOnly,
// measures it for cfg.Seconds.
func runWorkloadProcess(cfg config, setupOnly bool) (*result, error) {
	s := newSession(cfg)
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	err = w.setup(s)
	s.res.SetupS = time.Since(start).Seconds()
	if err == nil && s.calibrated {
		for i := 0; i < 3 && err == nil; i++ {
			err = s.calibrate()
		}
		s.res.SetupS *= s.scaleAt(time.Now())
	}
	if err == nil && !setupOnly {
		err = s.measure(w)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if cfg.Trace && !setupOnly {
		if err := s.tr.writeNDJSON(traceFile(cfg), s.res.Layers); err != nil {
			return nil, err
		}
	}
	return &s.res, nil
}

// workload is one of the four benchmark workloads.
type workload interface {
	// setup builds the workload's inputs from the seed and brings the
	// system under test to its measured state.
	setup(s *session) error
	// run performs ops until s.deadline, recording each on s.
	run(s *session) error
	// layers adds the workload's per-layer counts to s after a traced run.
	layers(s *session)
	close() error
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.Workload {
	case "cold_attack":
		return &coldWorkload{}, nil
	case "warm_service":
		return &serviceWorkload{}, nil
	case "fleet_attack":
		return &fleetWorkload{}, nil
	case "corpus_census":
		return &censusWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
}

// session is the measuring state shared by a workload's clients.
type session struct {
	cfg      config
	tr       *tracer // nil when untraced
	deadline time.Time
	// calibrated is set on untraced runs of the workloads whose times
	// are reported at reference speed. Not fleet_attack: its op time is
	// set by the coordinator's poll timer, not by CPU speed, and scaling
	// it would only add the kernel's noise.
	calibrated bool

	// gate is held shared by each op and exclusively while the machine
	// is calibrated, so the kernel runs on an otherwise idle machine.
	gate sync.RWMutex
	// calib and busy are written by one goroutine at a time and read
	// once the run is over: the calibration samples, and the stretches
	// of the measured window in which clients could run.
	calib []calSample
	busy  [][2]time.Time

	mu         sync.Mutex
	res        result
	ops        []opSample // untraced ops, in wall time
	tracedMain []float64  // latencies of traced main ops
	roots      []int      // op roots of traced ops
	opRSS      []float64  // peak RSS of main op processes (cold_attack)
	sums       map[string][2]float64
	wrongSet   map[string]bool
}

// calSample is one calibration: when, and the kernel's time in ms.
type calSample struct {
	at time.Time
	ms float64
}

// opSample is an untraced op: when it ended and its latency in ms.
type opSample struct {
	end  time.Time
	ms   float64
	main bool
}

func newSession(cfg config) *session {
	s := &session{cfg: cfg, calibrated: !cfg.Trace && cfg.Workload != "fleet_attack",
		sums: map[string][2]float64{}, wrongSet: map[string]bool{}}
	if cfg.Trace {
		s.tr = newTracer()
	}
	return s
}

// traced reports whether the i-th op of a client is traced: in a traced
// run, every other op, so the run can compare traced with untraced ops.
func (s *session) traced(i int) bool { return s.tr != nil && i%2 == 0 }

// done records a completed op.
func (s *session) done(main, traced bool, lat time.Duration, root int) {
	ms := float64(lat.Nanoseconds()) / 1e6
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.Attempted++
	if main {
		s.res.MainDone++
	}
	switch {
	case !traced:
		s.ops = append(s.ops, opSample{time.Now(), ms, main})
	case main:
		s.tracedMain = append(s.tracedMain, ms)
		s.roots = append(s.roots, root)
	default:
		s.roots = append(s.roots, root)
	}
}

// failed records an op the system refused or could not complete.
func (s *session) failed(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.Attempted++
	s.res.Failed++
	if s.res.Failed <= 5 {
		fmt.Fprintf(os.Stderr, "snowbench: %s: op failed: %v\n", s.cfg.Workload, err)
	}
}

// wrong records a wrong answer; any makes the run exit non-zero.
func (s *session) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.wrongSet[msg] && len(s.res.Wrong) < 20 {
		s.res.Wrong = append(s.res.Wrong, msg)
	}
	s.wrongSet[msg] = true
}

// acc adds to a per-layer ratio: the metric reads Σnum / Σden.
func (s *session) acc(name string, num, den float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.sums[name]
	s.sums[name] = [2]float64{v[0] + num, v[1] + den}
}

// clients runs n closed-loop clients until the deadline; op performs
// client c's i-th op.
func (s *session) clients(n int, op func(c, i int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(s.deadline); i++ {
				s.gate.RLock()
				op(c, i)
				s.gate.RUnlock()
			}
		}(c)
	}
	wg.Wait()
}

// measure runs the workload for cfg.Seconds. An untraced run samples
// the resident set and, on a calibrated workload, calibrates every
// calibPeriod; a traced run derives the per-layer metrics instead.
func (s *session) measure(w workload) error {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	s.deadline = time.Now().Add(time.Duration(s.cfg.Seconds * float64(time.Second)))
	if s.tr == nil {
		stop, done := make(chan struct{}), make(chan error, 1)
		go func() { done <- s.sample(stop) }()
		err := w.run(s)
		close(stop)
		if serr := <-done; err == nil {
			err = serr
		}
		s.finish()
		return err
	}
	if err := w.run(s); err != nil {
		return err
	}
	s.finish()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// Workloads whose ops run in processes of their own account their
	// allocations themselves.
	if _, ok := s.sums["go.alloc_mb_per_op"]; !ok && s.res.Attempted > 0 {
		s.acc("go.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6, float64(s.res.Attempted))
	}
	w.layers(s)
	s.res.TracedOps = len(s.roots)
	s.res.Layers, s.res.TracedOpMS = s.tr.shares(s.roots)
	for name, v := range s.sums {
		if v[1] > 0 {
			s.res.Layers[name] = v[0] / v[1]
		}
	}
	if len(s.tracedMain) > 0 && len(s.res.Main) > 0 {
		s.res.Layers["bench.trace_overhead_pct"] = 100 * (stats.Median(s.tracedMain)/stats.Median(s.res.Main) - 1)
	}
	return nil
}

// sample runs beside an untraced run until stop is closed. Every
// calibPeriod it samples the resident set and, on a calibrated
// workload, pauses the clients and calibrates. It sets RSSMB.
func (s *session) sample(stop <-chan struct{}) error {
	var rss []float64
	from := time.Now()
	tick := time.NewTicker(calibPeriod)
	defer tick.Stop()
	for stopped := false; !stopped; {
		select {
		case <-stop:
			stopped = true
		case <-tick.C:
		}
		if s.calibrated {
			s.gate.Lock()
		}
		s.busy = append(s.busy, [2]time.Time{from, time.Now()})
		var err error
		if s.calibrated && !stopped {
			err = s.calibrate()
		}
		mb, rerr := residentMB()
		if err == nil {
			err = rerr
		}
		rss = append(rss, mb)
		from = time.Now()
		if s.calibrated {
			s.gate.Unlock()
		}
		if err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.RSSMB = stats.Median(rss)
	if len(s.opRSS) > 0 {
		s.res.RSSMB = stats.Median(s.opRSS)
	}
	return nil
}

// calibrate times the kernel once (calib.go) and records the sample.
func (s *session) calibrate() error {
	ms, err := calibrationProcess()
	if err == nil {
		s.calib = append(s.calib, calSample{time.Now(), ms})
	}
	return err
}

// scaleAt converts a wall time at t to time at reference speed:
// refCalibMS over the median of the four calibration samples nearest
// t, two on each side. The window smooths the kernel's own noise and
// still follows drift over a few seconds. Without samples it is 1.
func (s *session) scaleAt(t time.Time) float64 {
	if len(s.calib) == 0 {
		return 1
	}
	i := sort.Search(len(s.calib), func(i int) bool { return s.calib[i].at.After(t) })
	var ms []float64
	for _, c := range s.calib[max(0, i-2):min(len(s.calib), i+2)] {
		ms = append(ms, c.ms)
	}
	return refCalibMS / stats.Median(ms)
}

// finish turns the untraced ops' wall times into the result's
// latencies, and the busy stretches into BusyS, both at reference speed
// on a calibrated workload.
func (s *session) finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range s.ops {
		ms := op.ms * s.scaleAt(op.end)
		if op.main {
			s.res.Main = append(s.res.Main, ms)
		} else {
			s.res.Probe = append(s.res.Probe, ms)
		}
	}
	for _, b := range s.busy {
		d := b[1].Sub(b[0])
		s.res.BusyS += d.Seconds() * s.scaleAt(b[0].Add(d/2))
	}
	if len(s.calib) > 0 {
		ms := make([]float64, len(s.calib))
		for i, c := range s.calib {
			ms[i] = c.ms
		}
		s.res.CalibMS = stats.Median(ms)
	}
}

// residentMB is this process's current resident set size.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("resident set: malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
