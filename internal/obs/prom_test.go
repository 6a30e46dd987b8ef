package obs

import (
	"strings"
	"testing"
)

func TestWriteMetricsText(t *testing.T) {
	r := NewRegistry()
	r.Counter("attack.loads").Add(47)
	r.Gauge("scan.workers").Set(8)
	r.Histogram("batch.lanes_per_pass").Observe(1)
	r.Histogram("batch.lanes_per_pass").Observe(35)
	var b strings.Builder
	if err := WriteMetricsText(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE attack_loads_total counter\nattack_loads_total 47\n",
		"# TYPE scan_workers gauge\nscan_workers 8\n",
		"batch_lanes_per_pass_count 2\n",
		"batch_lanes_per_pass_sum 36\n",
		"batch_lanes_per_pass_min 1\n",
		"batch_lanes_per_pass_max 35\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteMetricsTextMergesRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("jobs").Add(2)
	b.Counter("jobs").Add(3)
	a.Histogram("ms").Observe(10)
	b.Histogram("ms").Observe(4)
	var sb strings.Builder
	if err := WriteMetricsText(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "\njobs_total ") != 1 {
		t.Fatalf("duplicate sample names in:\n%s", out)
	}
	for _, want := range []string{"jobs_total 5\n", "ms_count 2\n", "ms_sum 14\n", "ms_min 4\n", "ms_max 10\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Nil registries are fine (nil-safe like the rest of the package).
	if err := WriteMetricsText(&sb, nil); err != nil {
		t.Fatal(err)
	}
}

// A registered-but-never-observed histogram merged after a populated
// one must not clobber the accumulated Min/Max with its zero values,
// and min/max render as their own gauge families (a summary family may
// only carry _count/_sum samples).
func TestWriteMetricsTextEmptyHistogramMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("ms").Observe(10)
	a.Histogram("ms").Observe(4)
	b.Histogram("ms") // registered, no observations
	var sb strings.Builder
	if err := WriteMetricsText(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"ms_count 2\n", "ms_sum 14\n",
		"# TYPE ms_min gauge\nms_min 4\n",
		"# TYPE ms_max gauge\nms_max 10\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// Regression: a gauge family created after the first scrape (here: the
// second scrape sees a family the first did not) must still render with
// its own # TYPE line, in sorted family order — not appended TYPE-less
// at the tail, which is what registration-order emission produced when
// several registries merged.
func TestWriteMetricsTextLateFamilyGetsTypeLine(t *testing.T) {
	procReg, jobReg := NewRegistry(), NewRegistry()
	procReg.Counter("jobs.done").Inc()
	var first strings.Builder
	if err := WriteMetricsText(&first, procReg, jobReg); err != nil {
		t.Fatal(err)
	}
	// Between scrapes a new gauge family appears in the second registry.
	jobReg.Gauge("attack.candidates").Set(1077)
	var second strings.Builder
	if err := WriteMetricsText(&second, procReg, jobReg); err != nil {
		t.Fatal(err)
	}
	out := second.String()
	if !strings.Contains(out, "# TYPE attack_candidates gauge\nattack_candidates 1077\n") {
		t.Fatalf("late gauge family missing its TYPE line:\n%s", out)
	}
	// Sorted emission: the new family lands before jobs_done_total, so
	// scrape order is stable regardless of creation time.
	if strings.Index(out, "attack_candidates") > strings.Index(out, "jobs_done_total") {
		t.Fatalf("family order not sorted:\n%s", out)
	}
	// Every family has exactly one TYPE line.
	for _, fam := range []string{"attack_candidates", "jobs_done_total"} {
		if n := strings.Count(out, "# TYPE "+fam+" "); n != 1 {
			t.Fatalf("family %s has %d TYPE lines:\n%s", fam, n, out)
		}
	}
}

// Regression: names that collide after the dot translation ("jobs.done"
// in one registry, "jobs_done" in another) must merge into one family —
// one TYPE line, one summed sample — instead of emitting a duplicate
// family that scrapers reject.
func TestWriteMetricsTextTranslatedNameCollision(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("jobs.done").Add(2)
	b.Counter("jobs_done").Add(3)
	var sb strings.Builder
	if err := WriteMetricsText(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE jobs_done_total counter"); n != 1 {
		t.Fatalf("collision produced %d TYPE lines:\n%s", n, out)
	}
	if !strings.Contains(out, "jobs_done_total 5\n") {
		t.Fatalf("collision samples not summed:\n%s", out)
	}
}

func TestWriteMetricsTextBucketHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("service.job_run_ms", 1, 2.5, 10)
	h.Observe(0.4)
	h.Observe(2)
	h.Observe(2)
	h.Observe(7)
	h.Observe(500)
	var sb strings.Builder
	if err := WriteMetricsText(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE service_job_run_ms histogram\n",
		`service_job_run_ms_bucket{le="1"} 1` + "\n",
		`service_job_run_ms_bucket{le="2.5"} 3` + "\n",
		`service_job_run_ms_bucket{le="10"} 4` + "\n",
		`service_job_run_ms_bucket{le="+Inf"} 5` + "\n",
		"service_job_run_ms_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "service_job_run_ms_sum 511.4\n") {
		t.Fatalf("sum wrong in:\n%s", out)
	}
}

// Same-name bucket histograms in merged registries sum per-bucket when
// the ladders agree.
func TestWriteMetricsTextBucketHistogramMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("wait", 1, 5).Observe(0.5)
	b.Histogram("wait", 1, 5).Observe(3)
	b.Histogram("wait", 1, 5).Observe(100)
	var sb strings.Builder
	if err := WriteMetricsText(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`wait_bucket{le="1"} 1` + "\n",
		`wait_bucket{le="5"} 2` + "\n",
		`wait_bucket{le="+Inf"} 3` + "\n",
		"wait_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
