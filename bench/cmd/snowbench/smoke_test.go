package main

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"

	"snowbma/internal/obs"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// workloads re-execute os.Executable() with a role in the environment.
func TestMain(m *testing.M) {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(childMain(role))
	}
	os.Exit(m.Run())
}

// smokeSizes keep every workload to a second or so, also under -race.
var smokeSizes = sizes{Hot: 1, Designs: 4, Readds: 1, Setups: 1, IdleS: 0.2}

// TestSmoke runs every workload untraced and traced at tiny sizes,
// through the same child processes a real run uses. Any wrong answer,
// failed op, missing metric or malformed trace fails it.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{Workload: w, Seed: 5, Seconds: 1, Trace: traced, Out: t.TempDir(), Sizes: smokeSizes}
			if w == "cold_attack" {
				cfg.Seconds = 3 // one attack and one findlut process, also under -race
			}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if rep.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed", w, traced, rep.failed, rep.attempted)
			}
			for _, m := range rep.metrics() {
				if _, ok := rep.values[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
				}
			}
			if traced {
				checkTrace(t, rep.tracePath)
				if u := rep.values["bench.unattributed_pct"]; u > 5 {
					t.Errorf("%s: %.2f%% of traced op time is in no layer", w, u)
				}
			}
		}
	}
}

// checkTrace holds a written trace to the obs NDJSON v1 schema: a meta
// line first, then spans whose parents precede them.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	seen := map[int]bool{0: true}
	lines, spans := 0, 0
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("%s line %d: %v", path, lines+1, err)
		}
		if lines == 0 && (ev.Type != "meta" || ev.Version != obs.TraceVersion) {
			t.Fatalf("%s: first line %+v, want the version %d meta line", path, ev, obs.TraceVersion)
		}
		if ev.Type == "span" {
			if !seen[ev.Parent] {
				t.Fatalf("%s: span %d (%s) names parent %d before it appears", path, ev.ID, ev.Name, ev.Parent)
			}
			seen[ev.ID] = true
			spans++
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if spans == 0 {
		t.Fatalf("%s: no spans", path)
	}
}
