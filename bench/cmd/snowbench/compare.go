package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"snowbma/bench/stats"
)

// compareMain is `snowbench compare <parent-runs> <change-runs>`: each
// file is a run log (runs.ndjson) of untraced runs, made by alternating
// a parent and a change build with the same seeds and run length. The
// i-th run of a workload in one file pairs with the i-th run of that
// workload in the other. It prints a verdict per workload and
// end-to-end metric, and exits 1 when any verdict is worse or
// unresolved.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: snowbench compare <parent-runs.ndjson> <change-runs.ndjson>")
		return 2
	}
	parent, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "snowbench compare:", err)
		return 2
	}
	change, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "snowbench compare:", err)
		return 2
	}
	rows := compareRuns(parent, change)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "snowbench compare: no workload has untraced runs on both sides")
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tverdict\tpairs\twins\tparent q1/median/q3\tchange q1/median/q3\treason")
	bad := false
	for _, r := range rows {
		c := r.cmp
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.4g / %.4g / %.4g\t%.4g / %.4g / %.4g\t%s\n",
			r.workload, r.metric, c.Verdict, c.Pairs, c.Wins,
			c.ParentQ1, c.ParentMedian, c.ParentQ3, c.ChangeQ1, c.ChangeMedian, c.ChangeQ3, c.Reason)
		bad = bad || c.Verdict == stats.Worse || c.Verdict == stats.Unresolved
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "snowbench compare:", err)
		return 2
	}
	if bad {
		return 1
	}
	return 0
}

// compareRow is the verdict on one metric of one workload.
type compareRow struct {
	workload, metric string
	cmp              stats.Comparison
}

// compareRuns pairs the untraced runs of each workload present on both
// sides and applies stats.Compare to every end-to-end metric.
func compareRuns(parent, change []runRecord) []compareRow {
	byWorkload := func(runs []runRecord) map[string][]runRecord {
		m := map[string][]runRecord{}
		for _, r := range runs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	p, c := byWorkload(parent), byWorkload(change)
	var rows []compareRow
	for _, w := range workloads {
		if len(p[w]) == 0 || len(c[w]) == 0 {
			continue
		}
		n := min(len(p[w]), len(c[w]))
		for _, m := range endToEnd {
			pv, cv := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				pv[i], cv[i] = p[w][i].Metrics[m.Name], c[w][i].Metrics[m.Name]
			}
			rows = append(rows, compareRow{w, m.Name, stats.Compare(pv, cv, m.Better == "higher", m.Bound)})
		}
	}
	return rows
}

// readRuns reads a run log.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}
