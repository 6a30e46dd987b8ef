// Command snowbench is the repository's benchmark: four workloads that
// each stress a different path through the system, measured end to end
// with tracing off, and split layer by layer in a separate traced run.
//
//	snowbench -workload cold_attack -seed 1 -seconds 20 -trace 0
//	snowbench -seed 1                  # every workload, untraced then traced
//	snowbench compare parent-runs.ndjson change-runs.ndjson
//
// Every workload runs in a fresh child process (the binary re-executes
// itself), so process-wide caches start empty and the memory it reports
// belongs to that workload alone. The last line of a single-workload run is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A wrong
// answer from any op exits 1 without it. Every run is appended to
// <out>/runs.ndjson, the input of compare. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"snowbma/bench/stats"
)

// workloads in the order an all-workload run executes them.
var workloads = []string{"cold_attack", "warm_service", "fleet_attack", "corpus_census"}

// sizes are the input sizes of a run; tests shrink them.
type sizes struct {
	Hot     int     `json:"hot"`     // victims in the attack workloads' hot set
	Designs int     `json:"designs"` // corpus size
	Readds  int     `json:"readds"`  // changed designs re-added per census pass
	Setups  int     `json:"setups"`  // set-ups timed for setup_s, each in a fresh process
	IdleS   float64 `json:"idle_s"`  // fleet window without load, traced runs only
}

var fullSizes = sizes{Hot: 4, Designs: 200, Readds: 20, Setups: 3, IdleS: 5}

// config is one workload run. The top-level process hands it to its
// children in the environment.
type config struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Out      string  `json:"out"` // scratch, traces and run records
	Sizes    sizes   `json:"sizes"`
}

func main() {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(childMain(role))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("snowbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+" (empty: all, untraced then traced)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured window per run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for scratch files, traces and run records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		if fs.Arg(0) == "compare" {
			return compareMain(fs.Args()[1:], stdout)
		}
		fmt.Fprintf(os.Stderr, "snowbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "snowbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Out: *out, Sizes: fullSizes}
	if *workload != "" {
		if !slices.Contains(workloads, *workload) {
			fmt.Fprintf(os.Stderr, "snowbench: unknown workload %q (want %s)\n", *workload, strings.Join(workloads, ", "))
			return 2
		}
		cfg.Workload, cfg.Trace = *workload, *trace == 1
		rep, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "snowbench:", err)
			return 1
		}
		rep.print(stdout)
		if err := rep.writeLine(stdout); err != nil {
			fmt.Fprintln(os.Stderr, "snowbench:", err)
			return 1
		}
		return 0
	}
	for _, tr := range []bool{false, true} {
		for _, w := range workloads {
			cfg.Workload, cfg.Trace = w, tr
			rep, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "snowbench:", err)
				return 1
			}
			rep.print(stdout)
		}
	}
	return 0
}

// report is a finished run: the metrics it prints and records.
type report struct {
	cfg       config
	attempted int
	failed    int
	values    map[string]float64
	samples   map[string]int
	tracePath string
	calibMS   float64 // median calibration kernel time; 0 if not calibrated
	opMS      float64 // mean traced op time, to turn layer shares into ms
	tails     []string
}

// runWorkload times cfg.Sizes.Setups set-ups, each in a fresh process,
// the last of which goes on to measure; then it assembles the metrics.
func runWorkload(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, err
	}
	var setups []float64
	if !cfg.Trace { // set-up time is an end-to-end metric; traced runs set up once
		for i := 1; i < cfg.Sizes.Setups; i++ {
			r, err := spawnChild(roleSetup, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s set-up %d: %w", cfg.Workload, i, err)
			}
			setups = append(setups, r.SetupS)
		}
	}
	r, err := spawnChild(roleMeasure, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	if len(r.Wrong) > 0 {
		for _, w := range r.Wrong {
			fmt.Fprintf(os.Stderr, "snowbench: %s: wrong answer: %s\n", cfg.Workload, w)
		}
		return nil, fmt.Errorf("%s: %d wrong answers", cfg.Workload, len(r.Wrong))
	}
	if r.Attempted < 1 {
		return nil, fmt.Errorf("%s: no op completed in %.1f s", cfg.Workload, cfg.Seconds)
	}
	setups = append(setups, r.SetupS)
	rep := &report{cfg: cfg, attempted: r.Attempted, failed: r.Failed,
		values: map[string]float64{}, samples: map[string]int{}}
	if cfg.Trace {
		for _, m := range perLayer {
			rep.values[m.Name] = r.Layers[m.Name] // absent: the workload never enters it
			rep.samples[m.Name] = r.TracedOps
		}
		for name := range r.Layers {
			if _, ok := rep.values[name]; !ok {
				return nil, fmt.Errorf("%s: per-layer metric %q missing from the catalogue", cfg.Workload, name)
			}
		}
		rep.tracePath = traceFile(cfg)
		rep.opMS = r.TracedOpMS
	} else {
		p90, block := stats.BlockPercentile(r.Main, 90)
		if len(r.Main) < block {
			fmt.Fprintf(os.Stderr, "snowbench: %s: only %d main ops; p90 wants %d, to have %d beyond it\n",
				cfg.Workload, len(r.Main), block, stats.MinBeyond)
		}
		rep.set("op_ms_p50", stats.Median(r.Main), len(r.Main))
		rep.set("op_ms_p90", p90, len(r.Main))
		rep.set("ops_per_s", float64(r.MainDone)/r.BusyS, r.MainDone)
		rep.set("probe_ms_p50", stats.Median(r.Probe), len(r.Probe))
		rep.set("setup_s", stats.Median(setups), len(setups))
		rep.set("rss_mb", r.RSSMB, 1)
		for _, t := range []struct {
			name string
			xs   []float64
		}{{"op", r.Main}, {"probe", r.Probe}} {
			if p, v, ok := stats.Tail(t.xs); ok {
				rep.tails = append(rep.tails, fmt.Sprintf("%s tail: p%g = %.4f ms, the highest percentile with at least %d samples beyond it (n=%d)",
					t.name, p, v, stats.MinBeyond, len(t.xs)))
			}
		}
		rep.calibMS = r.CalibMS
		for _, m := range endToEnd {
			if v, ok := rep.values[m.Name]; !ok || !(v > 0) {
				return nil, fmt.Errorf("%s: end-to-end metric %s is %v, want a positive number", cfg.Workload, m.Name, v)
			}
		}
	}
	if err := rep.record(); err != nil {
		return nil, err
	}
	return rep, nil
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *report) metrics() []metric {
	if r.cfg.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable table: every metric with its unit and
// sample count.
func (r *report) print(w io.Writer) {
	mode := "untraced"
	if r.cfg.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %.0f s  %s  (%d ops attempted, %d failed)\n",
		r.cfg.Workload, r.cfg.Seed, r.cfg.Seconds, mode, r.attempted, r.failed)
	if r.calibMS > 0 {
		fmt.Fprintf(w, "  times at reference speed: the calibration kernel took %.3f ms here, %.3f ms at reference\n", r.calibMS, refCalibMS)
	}
	for _, m := range r.metrics() {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d", m.Name, r.values[m.Name], m.Unit, r.samples[m.Name])
		if m.Unit == "%" && strings.HasSuffix(m.Name, "_pct") && m.Name != "bench.trace_overhead_pct" {
			fmt.Fprintf(w, "  (%.3f ms/op)", r.values[m.Name]/100*r.opMS)
		}
		fmt.Fprintln(w)
	}
	for _, t := range r.tails {
		fmt.Fprintf(w, "  %s\n", t)
	}
	if r.tracePath != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.tracePath)
	}
}

// writeLine writes the machine-readable result line.
func (r *report) writeLine(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics() {
		line.Metrics[m.Name] = value{r.values[m.Name], m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runRecord is one line of the run log compare reads.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Seconds  float64            `json:"seconds"`
	Time     time.Time          `json:"time"`
	Metrics  map[string]float64 `json:"metrics"`
}

// record appends the run to <out>/runs.ndjson.
func (r *report) record() error {
	b, err := json.Marshal(runRecord{Workload: r.cfg.Workload, Seed: r.cfg.Seed, Trace: r.cfg.Trace,
		Seconds: r.cfg.Seconds, Time: time.Now().UTC(), Metrics: r.values})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(r.cfg.Out, "runs.ndjson"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func traceFile(cfg config) string {
	return filepath.Join(cfg.Out, "traces", fmt.Sprintf("%s-seed%d.ndjson", cfg.Workload, cfg.Seed))
}
