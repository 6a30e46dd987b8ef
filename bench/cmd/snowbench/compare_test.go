package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes n untraced run records of workload w, the i-th with
// metrics f(i), plus one traced record that compare must ignore.
func writeRuns(t *testing.T, name, w string, n int, f func(i int) map[string]float64) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		if err := enc.Encode(runRecord{Workload: w, Seed: int64(i), Metrics: f(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(runRecord{Workload: w, Trace: true, Metrics: map[string]float64{"op_ms_p50": 1e9}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runMetrics is a run whose every end-to-end metric reads about 100,
// with op_ms_p50 scaled by opScale.
func runMetrics(i int, opScale float64) map[string]float64 {
	m := map[string]float64{}
	for _, e := range endToEnd {
		m[e.Name] = 100 + float64(i%3)
	}
	m["op_ms_p50"] *= opScale
	return m
}

// TestCompareMain drives the compare mode end to end on run logs: the
// same numbers are unchanged everywhere and exit 0; a 30% slower median
// op is worse on that metric alone and exits 1; too few pairs are
// unresolved and exit 1.
func TestCompareMain(t *testing.T) {
	same := func(i int) map[string]float64 { return runMetrics(i, 1) }
	slower := func(i int) map[string]float64 { return runMetrics(i, 1.3) }
	parent := writeRuns(t, "parent.ndjson", "warm_service", 10, same)
	cases := []struct {
		name   string
		change string
		exit   int
		want   map[string]string // metric → verdict; others unchanged
	}{
		{"same", writeRuns(t, "same.ndjson", "warm_service", 10, same), 0, nil},
		{"slower", writeRuns(t, "slower.ndjson", "warm_service", 10, slower), 1, map[string]string{"op_ms_p50": "worse"}},
		{"too few", writeRuns(t, "few.ndjson", "warm_service", 5, same), 1, map[string]string{"*": "unresolved"}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := runMain([]string{"compare", parent, c.change}, &out); got != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.exit, out.String())
		}
		rows := 0
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
			f := strings.Fields(line)
			rows++
			want := "unchanged"
			if v, ok := c.want[f[1]]; ok {
				want = v
			} else if v, ok := c.want["*"]; ok {
				want = v
			}
			if f[0] != "warm_service" || f[2] != want {
				t.Errorf("%s: %s %s verdict %s, want %s", c.name, f[0], f[1], f[2], want)
			}
		}
		if rows != len(endToEnd) {
			t.Errorf("%s: %d rows, want one per end-to-end metric (%d)", c.name, rows, len(endToEnd))
		}
	}
}
