// Command tracestat analyzes an NDJSON attack trace written by the
// -trace flag (internal/obs.WriteNDJSON). It reconstructs the span tree
// and prints a per-phase wall-time breakdown, the bitstream-load budget,
// and the cache hit rates that decide the attack's hardware cost — so a
// committed trace can be inspected (and diffed across PRs) without
// rerunning the attack.
//
// Usage:
//
//	go run ./tools/tracestat trace.ndjson
//	go run ./tools/tracestat < trace.ndjson
//
// tracestat keeps its own decoder rather than importing internal/obs:
// the NDJSON schema (version 1) is the contract, and an independent
// reader is the cheapest proof that the format is self-describing.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// Event mirrors one NDJSON trace line. The field set matches
// internal/obs.Event; unknown fields are ignored so newer traces with
// additive fields still parse.
type Event struct {
	Type    string         `json:"type"`
	Version int            `json:"version"`
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"`
	DurUS   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs"`
	Value   float64        `json:"value"`
	Count   int64          `json:"count"`
	Sum     float64        `json:"sum"`
	Min     float64        `json:"min"`
	Max     float64        `json:"max"`
}

// Span is one reconstructed node of the trace tree.
type Span struct {
	Event
	Children []*Span
}

// Hist is an exported histogram snapshot.
type Hist struct {
	Count         int64
	Sum, Min, Max float64
}

// Trace is a fully decoded trace document.
type Trace struct {
	Version  int
	Roots    []*Span
	Counters map[string]float64
	Gauges   map[string]float64
	Hists    map[string]Hist
}

// DecodeLine parses a single NDJSON line. Blank lines yield a zero
// Event with an empty Type, which callers skip.
func DecodeLine(line []byte) (Event, error) {
	var ev Event
	line = []byte(strings.TrimSpace(string(line)))
	if len(line) == 0 {
		return ev, nil
	}
	if err := json.Unmarshal(line, &ev); err != nil {
		return ev, err
	}
	return ev, nil
}

// Decode reads a whole NDJSON stream and rebuilds the span tree from
// the id/parent links. Lines with unknown types are ignored (forward
// compatibility); a span that names a missing parent becomes a root so
// a truncated trace still renders.
func Decode(r io.Reader) (*Trace, error) {
	t := &Trace{
		Counters: map[string]float64{},
		Gauges:   map[string]float64{},
		Hists:    map[string]Hist{},
	}
	byID := map[int]*Span{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		ev, err := DecodeLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		switch ev.Type {
		case "":
			// blank line
		case "meta":
			t.Version = ev.Version
		case "span":
			if ev.ID <= 0 {
				return nil, fmt.Errorf("line %d: span without a positive id", lineNo)
			}
			s := &Span{Event: ev}
			// Resolve the parent BEFORE registering the span: a
			// corrupt line with id == parent must not become its own
			// child (that cycle would hang every tree walk).
			parent := byID[ev.Parent]
			byID[ev.ID] = s
			if parent != nil {
				parent.Children = append(parent.Children, s)
			} else {
				t.Roots = append(t.Roots, s)
			}
		case "counter":
			t.Counters[ev.Name] = ev.Value
		case "gauge":
			t.Gauges[ev.Name] = ev.Value
		case "hist":
			t.Hists[ev.Name] = Hist{Count: ev.Count, Sum: ev.Sum, Min: ev.Min, Max: ev.Max}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// dur renders microseconds as a rounded time.Duration.
func dur(us float64) time.Duration {
	return time.Duration(us*1e3) * time.Nanosecond
}

// phaseRow is one line of the per-phase table.
type phaseRow struct {
	Name  string
	Wall  float64 // µs
	Spans int     // descendant span count (self included)
}

// descendants counts s and everything under it.
func descendants(s *Span) int {
	n := 1
	for _, c := range s.Children {
		n += descendants(c)
	}
	return n
}

// Phases flattens the direct children of every root into the per-phase
// table the report prints: phase name, wall time, subtree span count.
func Phases(t *Trace) []phaseRow {
	var rows []phaseRow
	for _, root := range t.Roots {
		for _, c := range root.Children {
			rows = append(rows, phaseRow{Name: c.Name, Wall: c.DurUS, Spans: descendants(c)})
		}
	}
	return rows
}

// rate formats hits/(hits+misses) as a percentage, tolerating zero
// totals.
func rate(hits, misses float64) string {
	total := hits + misses
	if total == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%% (%d/%d)", 100*hits/total, int64(hits), int64(total))
}

// Summary renders the analysis: trace shape, per-phase wall times, the
// load budget and the cache economics.
func Summary(t *Trace) string {
	var b strings.Builder
	total := 0
	for _, r := range t.Roots {
		total += descendants(r)
	}
	fmt.Fprintf(&b, "trace version %d: %d root span(s), %d spans total\n",
		t.Version, len(t.Roots), total)
	for _, r := range t.Roots {
		fmt.Fprintf(&b, "root %-28s %v\n", r.Name, dur(r.DurUS).Round(time.Microsecond))
	}

	if rows := Phases(t); len(rows) > 0 {
		b.WriteString("phase                              wall        spans\n")
		for _, row := range rows {
			fmt.Fprintf(&b, "  %-32s %-11v %d\n",
				row.Name, dur(row.Wall).Round(time.Microsecond), row.Spans)
		}
	}

	if loads, ok := t.Counters["attack.loads"]; ok {
		fmt.Fprintf(&b, "bitstream loads:       %d", int64(loads))
		if dl, ok := t.Counters["device.loads"]; ok {
			fmt.Fprintf(&b, " (device observed %d)", int64(dl))
		}
		b.WriteString("\n")
	}

	// Per-attack traces mirror the catalogue cache as scan.catalogue_*;
	// core.catalogue.* appears only when the process-wide registry was
	// exported. Prefer whichever the trace carries.
	catHits, catMisses := t.Counters["scan.catalogue_hits"], t.Counters["scan.catalogue_misses"]
	if catHits+catMisses == 0 {
		catHits, catMisses = t.Counters["core.catalogue.hits"], t.Counters["core.catalogue.misses"]
	}
	fmt.Fprintf(&b, "catalogue cache:       %s\n", rate(catHits, catMisses))

	if h, ok := t.Hists["batch.lanes_per_pass"]; ok && h.Count > 0 {
		fmt.Fprintf(&b, "batch lanes/pass:      mean %.1f, min %d, max %d over %d pass(es)\n",
			h.Sum/float64(h.Count), int64(h.Min), int64(h.Max), h.Count)
	}
	if u, ok := t.Gauges["batch.lane_utilisation"]; ok {
		fmt.Fprintf(&b, "batch lane utilisation %.1f%%\n", 100*u)
	}

	// Hot leaf spans: where the wall time actually burns.
	leafUS := map[string]float64{}
	leafN := map[string]int{}
	var walk func(s *Span)
	walk = func(s *Span) {
		if len(s.Children) == 0 {
			leafUS[s.Name] += s.DurUS
			leafN[s.Name]++
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	names := make([]string, 0, len(leafUS))
	for n := range leafUS {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return leafUS[names[i]] > leafUS[names[j]] })
	if len(names) > 0 {
		b.WriteString("hot leaf spans:\n")
		for i, n := range names {
			if i == 5 {
				break
			}
			fmt.Fprintf(&b, "  %-32s %-11v ×%d\n",
				n, dur(leafUS[n]).Round(time.Microsecond), leafN[n])
		}
	}
	return b.String()
}

func main() {
	var in io.Reader = os.Stdin
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	t, err := Decode(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
	fmt.Print(Summary(t))
}
