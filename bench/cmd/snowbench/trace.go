package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"snowbma/internal/obs"
	"snowbma/internal/store"
)

// The traced run records spans only from the benchmark's own code:
// around the public calls it makes into each module, from the job
// traces the service already records for every job, and from a timing
// wrapper around the job store. Spans stay in memory and are written
// once, at exit, as obs NDJSON version 1 (tools/tracestat reads it).
//
// Every span carries a layer. An op's time is split between layers by
// self time: a span's duration minus the part of it its children cover.
// The op's root span keeps whatever no layer covers, reported as
// bench.unattributed_pct.

// span is one timed interval, in wall-clock nanoseconds so that spans
// reported by op processes line up with the parent's.
type span struct {
	Name       string
	Layer      string
	Start, End int64
	Parent     int // index into tracer.spans; -1 for an op root
	Attrs      map[string]any
}

// tracer is the in-memory span store of one workload process.
type tracer struct {
	mu    sync.Mutex
	spans []span
	kids  map[int][]int
}

func newTracer() *tracer { return &tracer{kids: map[int][]int{}} }

func wallNow() int64 { return time.Now().UnixNano() }

// add records a span whose layer is its name and returns its index.
func (t *tracer) add(parent int, name string, start, end int64) int {
	return t.addSpan(span{Name: name, Layer: name, Start: start, End: end, Parent: parent})
}

func (t *tracer) addSpan(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	if s.Parent >= 0 {
		t.kids[s.Parent] = append(t.kids[s.Parent], i)
	}
	return i
}

// op records an op root span.
func (t *tracer) op(kind string, start, end int64) int {
	return t.add(-1, "op."+kind, start, end)
}

// nest records a span under the deepest span of root's subtree that
// contains it (store appends happen inside whichever layer was running
// when they were made).
func (t *tracer) nest(root int, name string, start, end int64) int {
	t.mu.Lock()
	at := root
	for {
		next := -1
		for _, k := range t.kids[at] {
			if s := t.spans[k]; s.Start <= start && end <= s.End {
				next = k
				break
			}
		}
		if next < 0 {
			break
		}
		at = next
	}
	t.mu.Unlock()
	return t.add(at, name, start, end)
}

// jobLayer maps a span name of a service job trace onto the layer it
// belongs to; names not listed inherit their parent's layer (a sweep
// chunk inside z-path verification is z-path verification time).
func jobLayer(name, parent string) string {
	switch name {
	case "service.job":
		return "service.job"
	case "attack.run":
		// attack.run's own time, outside its phases, is the epilogue:
		// reloading the original image and copying out the report.
		return "device.restore"
	case "attack.batch_scan":
		return "core.scan"
	case "attack.verify_zpath":
		return "core.verify_zpath"
	case "attack.collect_feedback":
		return "core.collect_feedback"
	case "attack.make_key_independent", "attack.resolve_beta":
		return "core.make_key_independent"
	case "attack.identify_vpairs":
		return "core.identify_vpairs"
	case "attack.extract_key":
		return "core.extract_key"
	}
	if strings.HasPrefix(name, "scan.") {
		return "core.scan"
	}
	return parent
}

// jobTrace is a decoded service job trace: its spans and counters.
type jobTrace struct {
	spans    []obs.Event
	counters map[string]float64
}

func decodeJobTrace(ndjson []byte) (*jobTrace, error) {
	jt := &jobTrace{counters: map[string]float64{}}
	sc := bufio.NewScanner(bytes.NewReader(ndjson))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("job trace: %w", err)
		}
		switch ev.Type {
		case "span":
			jt.spans = append(jt.spans, ev)
		case "counter":
			jt.counters[ev.Name] = ev.Value
		}
	}
	return jt, sc.Err()
}

// graft adds a job trace's spans under parent. The job's tracer epoch
// is its submission time; span offsets are relative to it.
func (t *tracer) graft(parent int, jt *jobTrace, epoch int64) {
	byID := map[int]int{}
	parentLayer := t.spans[parent].Layer
	for _, ev := range jt.spans { // parents precede children
		p, pl := parent, parentLayer
		if i, ok := byID[ev.Parent]; ok {
			p, pl = i, t.spans[i].Layer
		}
		start := epoch + int64(ev.StartUS*1e3)
		byID[ev.ID] = t.addSpan(span{
			Name:   ev.Name,
			Layer:  jobLayer(ev.Name, pl),
			Start:  start,
			End:    start + int64(ev.DurUS*1e3),
			Parent: p,
			Attrs:  ev.Attrs,
		})
	}
}

// selfTimes adds, per layer, the self time of every span under root
// (root's own self time goes to "bench.unattributed"). Each span is
// clipped to its parent's interval and to after its earlier siblings,
// so overlapping siblings are not counted twice and the self times of
// one op add up to its duration.
func (t *tracer) selfTimes(root int, into map[string]float64) {
	var walk func(i int, lo, hi int64)
	walk = func(i int, lo, hi int64) {
		s := t.spans[i]
		lo, hi = max(lo, s.Start), min(hi, s.End)
		if hi <= lo {
			return
		}
		kids := append([]int(nil), t.kids[i]...)
		sort.SliceStable(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, end := int64(0), lo
		for _, k := range kids {
			a, b := max(end, t.spans[k].Start), min(hi, t.spans[k].End)
			if b <= a {
				continue
			}
			walk(k, a, b)
			covered += b - a
			end = b
		}
		layer := s.Layer
		if s.Parent < 0 {
			layer = "bench.unattributed"
		}
		into[layer] += float64(hi - lo - covered)
	}
	s := t.spans[root]
	walk(root, s.Start, s.End)
}

// shares splits the total time of the given op roots between layers and
// returns each layer's share in percent, keyed "<layer>_pct", and the
// mean op time in ms.
func (t *tracer) shares(roots []int) (map[string]float64, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]float64{}
	total := 0.0
	for _, r := range roots {
		t.selfTimes(r, self)
		total += float64(t.spans[r].End - t.spans[r].Start)
	}
	out := map[string]float64{}
	if total <= 0 {
		return out, 0
	}
	for layer, ns := range self {
		out[layer+"_pct"] = 100 * ns / total
	}
	return out, total / float64(len(roots)) / 1e6
}

// writeNDJSON writes every span (roots in recording order, children
// depth-first after their parent) plus the given per-layer values as
// gauges, in the obs NDJSON v1 schema. Offsets are relative to the
// first op's start.
func (t *tracer) writeNDJSON(path string, gauges map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.encode(f, gauges); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

func (t *tracer) encode(w io.Writer, gauges map[string]float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(obs.Event{Type: "meta", Version: obs.TraceVersion}); err != nil {
		return err
	}
	var epoch int64
	for _, s := range t.spans {
		if s.Parent < 0 && (epoch == 0 || s.Start < epoch) {
			epoch = s.Start
		}
	}
	nextID := 1
	var walk func(i, parentID int) error
	walk = func(i, parentID int) error {
		s := t.spans[i]
		id := nextID
		nextID++
		attrs := s.Attrs
		if s.Layer != s.Name && s.Parent >= 0 {
			attrs = map[string]any{"layer": s.Layer}
			for k, v := range s.Attrs {
				attrs[k] = v
			}
		}
		if err := enc.Encode(obs.Event{
			Type: "span", ID: id, Parent: parentID, Name: s.Name,
			StartUS: float64(s.Start-epoch) / 1e3,
			DurUS:   float64(s.End-s.Start) / 1e3,
			Attrs:   attrs,
		}); err != nil {
			return err
		}
		for _, k := range t.kids[i] {
			if err := walk(k, id); err != nil {
				return err
			}
		}
		return nil
	}
	for i, s := range t.spans {
		if s.Parent < 0 {
			if err := walk(i, 0); err != nil {
				return err
			}
		}
	}
	names := make([]string, 0, len(gauges))
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(obs.Event{Type: "gauge", Name: n, Value: gauges[n]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// timedStore wraps a job store and records every append: which job, and
// when it started and ended.
type timedStore struct {
	store.JobStore
	mu      sync.Mutex
	appends map[string][][2]int64
	count   int
}

func newTimedStore(s store.JobStore) *timedStore {
	return &timedStore{JobStore: s, appends: map[string][][2]int64{}}
}

func (s *timedStore) Append(r store.Record) (uint64, error) {
	start := wallNow()
	seq, err := s.JobStore.Append(r)
	end := wallNow()
	s.mu.Lock()
	s.appends[r.Job] = append(s.appends[r.Job], [2]int64{start, end})
	s.count++
	s.mu.Unlock()
	return seq, err
}

// take returns and forgets the appends recorded for a job.
func (s *timedStore) take(job string) [][2]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.appends[job]
	delete(s.appends, job)
	return a
}

// appended reports how many appends the store has recorded.
func (s *timedStore) appended() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}
