// Package obs is the unified attack telemetry layer: a span tracer for
// phase-level wall-clock attribution, a metrics registry of typed
// counters/gauges/histograms, and a printf logger — one handle threaded
// through the scanner, the candidate sweeps, the device simulator and
// the incremental-reconfiguration caches.
//
// The paper's headline numbers are costs (bitstream loads, keystream
// computations, the 3^32 → 2 collapse of the key-independent
// exploration); this package makes every phase of the attack that
// produces them observable as one coherent trace instead of three
// disjoint ad-hoc stat structs. Everything is nil-safe: a nil
// *Telemetry (or nil component) turns every instrumentation point into
// a no-op, so the hot paths carry tracing unconditionally and pay
// (almost) nothing when it is off.
package obs

// Telemetry bundles the three observability components. Any field may
// be nil; all helper methods tolerate a nil receiver. A live event bus
// hangs off the tracer (AttachBus).
type Telemetry struct {
	Tracer  *Tracer
	Metrics *Registry
	Log     *Logger
}

// AttachBus connects the handle's tracer to a live event bus: from now
// on every span streams as span_start/span_end events built from its
// record, and Publish emits progress events, all tagged with job. A nil
// bus detaches; a handle without a tracer (anything not from New) has
// nowhere to attach it.
func (t *Telemetry) AttachBus(bus *EventBus, job string) {
	if t == nil || t.Tracer == nil {
		return
	}
	tr := t.Tracer
	tr.mu.Lock()
	tr.bus, tr.job = bus, job
	tr.mu.Unlock()
}

// Publish emits a progress-style event onto the tracer's bus (a no-op
// when no bus is attached): evType is one of the Event* constants, name
// identifies the emitting site, value is the headline number and attrs
// carry the detail. The publish path never blocks — a slow subscriber
// drops events instead of stalling the attack hot path.
func (t *Telemetry) Publish(evType, name string, value float64, attrs ...Attr) {
	if t == nil || t.Tracer == nil {
		return
	}
	tr := t.Tracer
	tr.mu.Lock()
	tr.publishLocked(BusEvent{Type: evType, Name: name, Value: value, Attrs: AttrMap(attrs)})
	tr.mu.Unlock()
}

// New returns a Telemetry with a fresh tracer and registry and no
// logger (attach one with the Log field if log capture is wanted).
func New() *Telemetry {
	return &Telemetry{Tracer: NewTracer(), Metrics: NewRegistry()}
}

// StartSpan opens a span on the tracer, or returns nil when tracing is
// off. A nil *Span is safe to End().
func (t *Telemetry) StartSpan(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.Tracer.StartSpan(name, attrs...)
}

// Counter returns the named counter, or nil when metrics are off.
func (t *Telemetry) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return t.Metrics.Counter(name)
}

// Gauge returns the named gauge, or nil when metrics are off.
func (t *Telemetry) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	return t.Metrics.Gauge(name)
}

// Histogram returns the named histogram (see Registry.Histogram for
// buckets), or nil when metrics are off.
func (t *Telemetry) Histogram(name string, buckets ...float64) *Histogram {
	if t == nil {
		return nil
	}
	return t.Metrics.Histogram(name, buckets...)
}
