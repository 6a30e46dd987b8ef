package obs

import (
	"slices"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values should be plain
// data (numbers, strings, bools) so the NDJSON export stays portable.
type Attr struct {
	Key   string
	Value any
}

// KV builds an Attr.
func KV(key string, value any) Attr { return Attr{Key: key, Value: value} }

// AttrMap converts Attr annotations to the map shape BusEvent and the
// NDJSON trace carry (nil for no attrs; a repeated key keeps its last
// value).
func AttrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// SpanRecord is one row of the tracer's span table, the only record of
// a span: the NDJSON export, the -stats phase tree and the live bus all
// read it. IDs are 1-based in start order, so a parent's ID is always
// below its children's; Parent 0 marks a root. Start is the offset from
// the tracer epoch; Dur is zero until Ended, then the monotonic elapsed
// time (never negative).
type SpanRecord struct {
	ID     int
	Parent int
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Attrs  []Attr
	Ended  bool
}

// Span is a handle on one row of its tracer's span table. A nil *Span
// (what a nil tracer hands out) is safe to annotate and End.
type Span struct {
	t  *Tracer
	id int
}

// SetAttr attaches (or appends) an annotation. Safe on a nil span and
// after End.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	r := &s.t.spans[s.id-1]
	r.Attrs = append(r.Attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// End closes the span, fixing its duration, and publishes span_end.
// Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &t.spans[s.id-1]
	if r.Ended {
		return
	}
	r.Ended = true
	r.Dur = max(now-r.Start, 0)
	// Remove s from the open stack wherever it sits: out-of-order ends
	// of concurrent children must not strand the stack.
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == s.id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.publishLocked(BusEvent{
		Type:   EventSpanEnd,
		Name:   r.Name,
		Span:   r.ID,
		Parent: r.Parent,
		DurUS:  float64(r.Dur.Nanoseconds()) / 1e3,
		Attrs:  AttrMap(r.Attrs),
	})
}

// Tracer records spans in one append-only table. StartSpan parents the
// new span under the innermost span that is still open (spans open and
// close like a stack in the sequential attack phases; concurrent
// children started by worker goroutines while a phase span is open all
// attach to that phase). All methods are safe for concurrent use and
// on a nil receiver.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []SpanRecord // spans[id-1], in start order
	open  []int        // ids of open spans, innermost last
	bus   *EventBus    // Telemetry.AttachBus sets both
	job   string
}

// NewTracer creates a tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// publishLocked stamps ev with the attached job and hands it to the
// bus (Telemetry.AttachBus); a no-op with no bus attached. Span events
// are published here under the tracer lock, so the span_start order on
// the bus is the ID order of the span table. t.mu must be held.
func (t *Tracer) publishLocked(ev BusEvent) {
	if t.bus == nil {
		return
	}
	ev.Job = t.job
	t.bus.Publish(ev)
}

// StartSpan opens a span named name. Returns nil on a nil tracer.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	r := SpanRecord{ID: len(t.spans) + 1, Name: name, Start: start, Attrs: attrs}
	if n := len(t.open); n > 0 {
		r.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, r)
	t.open = append(t.open, r.ID)
	t.publishLocked(BusEvent{
		Type:   EventSpanStart,
		Name:   name,
		Span:   r.ID,
		Parent: r.Parent,
		Attrs:  AttrMap(attrs),
	})
	return &Span{t: t, id: r.ID}
}

// Spans returns a copy of the span table in ID (start) order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := slices.Clone(t.spans)
	for i := range out {
		out[i].Attrs = slices.Clone(out[i].Attrs)
	}
	return out
}
