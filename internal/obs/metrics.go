package obs

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically-growing int64 metric (events: loads,
// cache hits, fallbacks). Set exists for mirroring an external
// accumulator that already aggregates (ScanStats/BatchStats); event
// sites use Add/Inc. All methods are nil-safe.
type Counter struct {
	v atomic.Int64
}

// Add increments by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the value (mirror of an external accumulator).
func (c *Counter) Set(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move both ways (worker-pool size,
// lane utilisation, checkpoint counts).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates a distribution as count/sum/min/max (lanes per
// fabric pass, loads per campaign run) and, when it has a bucket
// ladder, into fixed cumulative buckets (job queue-wait, job run-time).
// /metrics exports a laddered histogram in the Prometheus histogram
// exposition (<name>_bucket{le="..."} / _sum / _count) and one without
// a ladder as a summary plus _min/_max gauges.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds (nil: no ladder); an implicit +Inf follows
	counts []int64   // len(bounds)+1 when laddered; the last is the +Inf bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

// DurationBucketsMS is the default bucket ladder for millisecond
// durations: sub-millisecond stub jobs up to minute-long campaigns.
var DurationBucketsMS = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.counts != nil {
		i := 0
		for i < len(h.bounds) && v > h.bounds[i] {
			i++
		}
		h.counts[i]++
	}
	h.mu.Unlock()
}

// HistValue is a histogram snapshot. Counts are per-bucket (not
// cumulative; the exporter accumulates); Bounds and Counts are nil for
// a histogram without a ladder.
type HistValue struct {
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
	Bounds []float64
	Counts []int64
}

// Value snapshots the histogram (zero for nil).
func (h *Histogram) Value() HistValue {
	if h == nil {
		return HistValue{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistValue{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Bounds: h.bounds, Counts: slices.Clone(h.counts)}
}

// Registry holds named metrics, get-or-create style. Safe for
// concurrent use and on a nil receiver (returns nil metrics, whose
// methods no-op).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. buckets
// are the cumulative upper bounds of its ladder (none: no ladder); they
// are sorted and fixed at first registration (later calls for the same
// name ignore the argument, so concurrent registrations cannot
// disagree).
func (r *Registry) Histogram(name string, buckets ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		if len(buckets) > 0 {
			h.bounds = slices.Clone(buckets)
			slices.Sort(h.bounds)
			h.counts = make([]int64, len(buckets)+1)
		}
		r.hists[name] = h
	}
	return h
}

// Metric is one exported metric value. Exactly one of the kind-specific
// value sets is meaningful, selected by Kind.
type Metric struct {
	Name  string
	Kind  string // "counter", "gauge" or "hist"
	Value float64
	Hist  HistValue
}

// Snapshot returns every metric, sorted by (kind, name) for
// deterministic export.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		out = append(out, Metric{Name: name, Kind: "hist", Hist: h.Value()})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// defaultRegistry is the process-wide registry: metrics whose scope is
// the process rather than one attack (the candidate-catalogue cache
// shared by every Scanner, for instance) land here.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }
