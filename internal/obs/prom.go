package obs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// WriteMetricsText renders metric snapshots in the Prometheus text
// exposition format (text/plain; version 0.0.4), so a /metrics endpoint
// can be scraped without a client library. Metric names translate by
// replacing every '.' with '_' ("attack.loads" → "attack_loads");
// counters gain a _total suffix, histograms without a bucket ladder
// export their count/sum aggregate as a summary plus separate
// <name>_min and <name>_max gauge families, and laddered histograms
// export the full histogram exposition (<name>_bucket{le="..."} / _sum
// / _count).
//
// Families are merged on their *exposition* name — after the dot
// translation and kind suffixing — and emitted in sorted family order
// with exactly one # TYPE line each. This is what keeps the output
// scrape-stable: a gauge family created after the first scrape (or in a
// later registry of a multi-registry merge) sorts into place with its
// TYPE line instead of depending on registration order, and two metric
// names that collide after translation ("jobs.done" and "jobs_done")
// merge into one family instead of emitting a duplicate TYPE line and
// repeated sample names, which scrapers reject. When the same metric
// name appears in several registries the values are summed first. In
// the pathological case of two different kinds claiming one family name
// the lexicographically first kind wins and the other is dropped (a
// duplicate family is a protocol violation either way).
func WriteMetricsText(w io.Writer, regs ...*Registry) error {
	type agg struct {
		kind  string
		value float64
		hist  HistValue
	}
	// Merge pass: key on (kind, exposition base name) so same-kind
	// collisions — across registries or via the dot translation — sum.
	merged := map[string]*agg{}
	for _, r := range regs {
		for _, m := range r.Snapshot() {
			name := strings.ReplaceAll(m.Name, ".", "_")
			key := m.Kind + "\x00" + name
			a, ok := merged[key]
			if !ok {
				// The first registry's snapshot also fixes a histogram's
				// ladder.
				merged[key] = &agg{kind: m.Kind, value: m.Value, hist: m.Hist}
				continue
			}
			a.value += m.Value
			// Snapshots with no observations carry zero Min/Max that mean
			// "unset", not "observed 0" — merging them would clobber a
			// populated accumulator's extremes. Mismatched bucket ladders
			// under one name cannot merge meaningfully; the first
			// registry's ladder wins.
			h := m.Hist
			if m.Kind != "hist" || h.Count == 0 || !slices.Equal(a.hist.Bounds, h.Bounds) {
				continue
			}
			if a.hist.Count == 0 || h.Min < a.hist.Min {
				a.hist.Min = h.Min
			}
			if a.hist.Count == 0 || h.Max > a.hist.Max {
				a.hist.Max = h.Max
			}
			a.hist.Count += h.Count
			a.hist.Sum += h.Sum
			for i := range a.hist.Counts {
				a.hist.Counts[i] += h.Counts[i]
			}
		}
	}
	// Family pass: expand each merged metric into its exposition
	// families (one TYPE line, then samples), dedupe by family name and
	// sort for a deterministic scrape.
	type family struct {
		name    string
		typ     string
		samples []string
	}
	families := map[string]family{}
	add := func(f family) {
		if _, taken := families[f.name]; taken {
			return // cross-kind family-name collision: first (sorted) wins
		}
		families[f.name] = f
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		a := merged[key]
		name := key[strings.IndexByte(key, 0)+1:]
		switch a.kind {
		case "counter":
			add(family{name: name + "_total", typ: "counter",
				samples: []string{fmt.Sprintf("%s_total %g", name, a.value)}})
		case "gauge":
			add(family{name: name, typ: "gauge",
				samples: []string{fmt.Sprintf("%s %g", name, a.value)}})
		case "hist":
			if a.hist.Bounds == nil {
				add(family{name: name, typ: "summary", samples: []string{
					fmt.Sprintf("%s_count %d", name, a.hist.Count),
					fmt.Sprintf("%s_sum %g", name, a.hist.Sum),
				}})
				add(family{name: name + "_min", typ: "gauge",
					samples: []string{fmt.Sprintf("%s_min %g", name, a.hist.Min)}})
				add(family{name: name + "_max", typ: "gauge",
					samples: []string{fmt.Sprintf("%s_max %g", name, a.hist.Max)}})
				continue
			}
			f := family{name: name, typ: "histogram"}
			cum := int64(0)
			for i, bound := range a.hist.Bounds {
				cum += a.hist.Counts[i]
				f.samples = append(f.samples,
					fmt.Sprintf("%s_bucket{le=%q} %d", name, formatBound(bound), cum))
			}
			f.samples = append(f.samples,
				fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d", name, a.hist.Count),
				fmt.Sprintf("%s_sum %g", name, a.hist.Sum),
				fmt.Sprintf("%s_count %d", name, a.hist.Count))
			add(f)
		}
	}
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := families[n]
		if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := fmt.Fprintln(bw, s); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// formatBound renders a bucket bound the way Prometheus expects
// (shortest float representation, no exponent for the usual ladders).
func formatBound(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}
