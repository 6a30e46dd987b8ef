package obs

import (
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

// Span is one timed region of the attack. Spans nest: a span started
// while another is open becomes its child. Durations are monotonic
// (time.Since on the monotonic clock), so a span can never report a
// negative duration; an immediately-ended span reports zero.
type Span struct {
	name   string
	start  time.Time
	off    time.Duration // start offset from the tracer epoch
	id     int           // tracer-local id (1-based), for live streaming
	parent int           // parent span id (0 for roots)

	mu       sync.Mutex
	attrs    []Attr
	dur      time.Duration
	ended    bool
	children []*Span
	tracer   *Tracer
}

// Name returns the span name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start offset from the tracer epoch.
func (s *Span) Start() time.Duration {
	if s == nil {
		return 0
	}
	return s.off
}

// Duration returns the measured duration: zero until End, then the
// monotonic elapsed time (never negative).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// SetAttr attaches (or appends) an annotation. Safe on a nil span and
// after End.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Attrs returns a copy of the annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns a copy of the child span list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// End closes the span, fixing its duration. Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	if d < 0 {
		d = 0 // monotonic clock should prevent this; belt and braces
	}
	s.dur = d
	attrs := append([]Attr(nil), s.attrs...)
	t := s.tracer
	s.mu.Unlock()
	if t != nil {
		t.pop(s)
		t.publish(BusEvent{
			Type:   EventSpanEnd,
			Name:   s.name,
			Span:   s.id,
			Parent: s.parent,
			DurUS:  float64(d.Nanoseconds()) / 1e3,
			Attrs:  attrMap(attrs),
		})
	}
}

// Tracer produces a tree of spans. StartSpan parents the new span under
// the innermost span that is still open (spans open and close like a
// stack in the sequential attack phases; concurrent children started by
// worker goroutines while a phase span is open all attach to that
// phase). All methods are safe for concurrent use and on a nil
// receiver.
type Tracer struct {
	epoch time.Time

	mu     sync.Mutex
	roots  []*Span
	open   []*Span // innermost last
	nextID int
	bus    *EventBus
	busJob string
}

// NewTracer creates a tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// SetBus attaches a live event bus: from now on every StartSpan/End
// publishes a span_start/span_end event tagged with job. The span_start
// events are published under the tracer lock, so their order on the bus
// matches the child order of the span tree — a consumer can rebuild the
// exact tree the NDJSON export will later serialize. A nil bus
// detaches.
func (t *Tracer) SetBus(bus *EventBus, job string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.bus = bus
	t.busJob = job
	t.mu.Unlock()
}

// publish forwards a span event to the attached bus, stamping the job.
func (t *Tracer) publish(ev BusEvent) {
	t.mu.Lock()
	bus, job := t.bus, t.busJob
	t.mu.Unlock()
	if bus == nil {
		return
	}
	ev.Job = job
	bus.Publish(ev)
}

// StartSpan opens a span named name. Returns nil on a nil tracer.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	s := &Span{
		name:   name,
		start:  now,
		off:    now.Sub(t.epoch),
		attrs:  attrs,
		tracer: t,
	}
	t.mu.Lock()
	t.nextID++
	s.id = t.nextID
	if n := len(t.open); n > 0 {
		parent := t.open[n-1]
		s.parent = parent.id
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
	} else {
		t.roots = append(t.roots, s)
	}
	t.open = append(t.open, s)
	if t.bus != nil {
		// Published inside the lock: bus order == sibling order.
		t.bus.Publish(BusEvent{
			Type:   EventSpanStart,
			Job:    t.busJob,
			Name:   name,
			Span:   s.id,
			Parent: s.parent,
			Attrs:  attrMap(attrs),
		})
	}
	t.mu.Unlock()
	return s
}

// pop removes s from the open stack (wherever it sits — out-of-order
// ends of concurrent children must not strand the stack).
func (t *Tracer) pop(s *Span) {
	t.mu.Lock()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == s {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// Roots returns a copy of the top-level span list.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}
