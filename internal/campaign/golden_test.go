package campaign

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the campaign golden report from this run")

// chaosGolden is the JSON report of `snowbma campaign -runs 25 -chaos
// -seed 7 -json`.
var chaosGolden = filepath.Join("testdata", "chaos-runs25-seed7.json")

// TestChaosCampaignGolden pins the seeded chaos campaign byte for byte:
// the scenario list, every verdict and the aggregate. Any change to
// scenario generation, fault injection, the attack's counters or the
// report's JSON shows up as a diff against the committed report; run
// with -update to accept one on purpose.
func TestChaosCampaignGolden(t *testing.T) {
	rep, err := Run(context.Background(), Config{Runs: 25, Seed: 7, Chaos: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(chaosGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(chaosGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s line %d:\n got %s\nwant %s\n(rerun with -update to accept the new report)", chaosGolden, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: report has %d lines, golden %d (rerun with -update to accept)", chaosGolden, len(g), len(w))
}
