package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONInStep holds BENCHMARK.json at the root of the
// repository to the catalogue the program reports: the same workloads
// and metrics in the same order, with the same units, directions and
// bounds.
func TestBenchmarkJSONInStep(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	for _, c := range []struct {
		kind      string
		json, got []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.json), len(c.got))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.got[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", c.kind, i, c.json[i], c.got[i])
			}
		}
	}
}
