package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Live event streaming: the EventBus is a bounded ring-buffer pub/sub
// that the tracer, the metrics flusher and the job engine publish into,
// and that SSE endpoints (and the obstop dashboard behind them)
// subscribe to. Two properties are load-bearing:
//
//   - The attack hot path can never stall on a consumer. Publish does a
//     non-blocking send to every subscriber; a subscriber whose buffer
//     is full loses that event and its drop counter increments — the
//     publisher returns immediately either way.
//   - A consumer can resume. Every event carries a monotonically
//     increasing sequence number and the bus retains the last Cap
//     events in a ring, so SubscribeFrom(seq) replays what is still
//     buffered (SSE maps this onto Last-Event-ID) and sequence gaps
//     tell the consumer exactly how much it missed.

// Bus event types. Span and metric events mirror the NDJSON trace
// schema; job and progress events are produced by the service layer and
// the candidate sweeps.
const (
	EventSpanStart = "span_start"
	EventSpanEnd   = "span_end"
	EventCounter   = "counter"
	EventGauge     = "gauge"
	EventJob       = "job"
	EventProgress  = "progress"
	EventService   = "service"
	// EventFleet is produced by the fleet coordinator: worker joins and
	// departures, lease grants, reassignments and shard-routing events.
	EventFleet = "fleet"
	// EventDrops is synthesized by the SSE writer (never stored in the
	// ring): it tells one subscriber how many events it has lost so far.
	EventDrops = "drops"
)

// BusEvent is one live event. Seq and TimeUS are stamped by Publish
// (sequence numbers are bus-global and strictly increasing; TimeUS is
// the offset from the bus epoch in microseconds).
type BusEvent struct {
	Seq    uint64         `json:"seq"`
	TimeUS float64        `json:"t_us"`
	Type   string         `json:"type"`
	Job    string         `json:"job,omitempty"`
	Name   string         `json:"name,omitempty"`
	Span   int            `json:"span,omitempty"`
	Parent int            `json:"parent,omitempty"`
	DurUS  float64        `json:"dur_us,omitempty"`
	Value  float64        `json:"value,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// DefaultEventBuffer is the ring capacity a zero-configured bus uses:
// large enough to hold every span of a full attack job, so a per-job
// SSE stream that connects mid-job can still catch up from zero.
const DefaultEventBuffer = 8192

// EventBus is the bounded pub/sub. All methods are safe for concurrent
// use and on a nil receiver (a nil bus swallows every publish), so
// instrumentation sites carry it unconditionally.
type EventBus struct {
	epoch time.Time
	cap   int

	mu     sync.Mutex
	ring   []BusEvent // fixed-size once warm; ring[(first+i)%cap]
	first  int        // index of the oldest retained event
	n      int        // retained event count (≤ cap)
	seq    uint64     // last assigned sequence number
	subs   map[*BusSub]struct{}
	closed bool

	dropped atomic.Int64 // events lost across all subscribers
}

// NewEventBus creates a bus retaining the last capacity events
// (capacity <= 0 selects DefaultEventBuffer).
func NewEventBus(capacity int) *EventBus {
	if capacity <= 0 {
		capacity = DefaultEventBuffer
	}
	return &EventBus{
		epoch: time.Now(),
		cap:   capacity,
		ring:  make([]BusEvent, 0, min(capacity, 1024)),
		subs:  map[*BusSub]struct{}{},
	}
}

// Publish stamps ev with the next sequence number and the bus-epoch
// offset, appends it to the ring (evicting the oldest event when full)
// and fans it out to every subscriber without blocking. It returns the
// assigned sequence number (0 on a nil or closed bus).
func (b *EventBus) Publish(ev BusEvent) uint64 {
	if b == nil {
		return 0
	}
	now := time.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0
	}
	b.seq++
	ev.Seq = b.seq
	ev.TimeUS = float64(now.Sub(b.epoch).Nanoseconds()) / 1e3
	if b.n < b.cap {
		if len(b.ring) < b.cap {
			b.ring = append(b.ring, ev)
		} else {
			b.ring[(b.first+b.n)%b.cap] = ev
		}
		b.n++
	} else {
		b.ring[b.first] = ev
		b.first = (b.first + 1) % b.cap
	}
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.drops.Add(1)
			b.dropped.Add(1)
		}
	}
	seq := b.seq
	b.mu.Unlock()
	return seq
}

// Seq returns the sequence number of the most recently published event
// (0 before the first publish or on a nil bus). Passing it to
// SubscribeFrom yields a live-only subscription.
func (b *EventBus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Dropped returns the total number of events lost across all
// subscribers since the bus was created.
func (b *EventBus) Dropped() int64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Close terminates every subscription (their channels are closed after
// draining nothing further) and makes subsequent publishes no-ops.
// Idempotent.
func (b *EventBus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		s.closed = true
		close(s.ch)
	}
	b.subs = map[*BusSub]struct{}{}
}

// BusSub is one subscription. Events arrive on C; when the subscriber's
// buffer is full at publish time the event is dropped and Drops grows.
type BusSub struct {
	bus    *EventBus
	ch     chan BusEvent
	drops  atomic.Int64
	closed bool // guarded by bus.mu
}

// DefaultSubBuffer is the per-subscriber channel depth used when
// SubscribeFrom is given a non-positive buffer size.
const DefaultSubBuffer = 256

// SubscribeFrom registers a subscriber and atomically returns the
// retained backlog: every buffered event with Seq > after, in order.
// Events published from this moment on arrive on C, so backlog+live is
// gap-free for anything still in the ring (a consumer detects true loss
// by a jump in sequence numbers). after = Seq() gives live-only; 0
// replays the full ring. On a closed bus the subscription is returned
// already closed (C is closed, backlog still holds the ring contents).
func (b *EventBus) SubscribeFrom(after uint64, buf int) (*BusSub, []BusEvent) {
	if buf <= 0 {
		buf = DefaultSubBuffer
	}
	s := &BusSub{bus: b, ch: make(chan BusEvent, buf)}
	if b == nil {
		s.closed = true
		close(s.ch)
		return s, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var backlog []BusEvent
	for i := 0; i < b.n; i++ {
		ev := b.ring[(b.first+i)%b.cap]
		if ev.Seq > after {
			backlog = append(backlog, ev)
		}
	}
	if b.closed {
		s.closed = true
		close(s.ch)
		return s, backlog
	}
	b.subs[s] = struct{}{}
	return s, backlog
}

// C returns the live event channel. It is closed when the subscriber or
// the bus closes.
func (s *BusSub) C() <-chan BusEvent { return s.ch }

// Drops returns how many events this subscriber has lost to a full
// buffer.
func (s *BusSub) Drops() int64 { return s.drops.Load() }

// Close unregisters the subscriber and closes C. Idempotent and safe
// concurrently with Publish.
func (s *BusSub) Close() {
	if s == nil || s.bus == nil {
		return
	}
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(s.bus.subs, s)
	close(s.ch)
}

// MetricsStreamer publishes counter/gauge changes of one registry onto
// a bus at a flush cadence: each Flush snapshots the registry and emits
// one event per metric whose value moved since the previous flush, with
// the delta attached. Histograms are deliberately not streamed — their
// aggregates travel in the NDJSON trace; the live stream carries the
// operational counters a dashboard watches.
type MetricsStreamer struct {
	reg  *Registry
	bus  *EventBus
	job  string
	mu   sync.Mutex
	last map[string]float64
}

// NewMetricsStreamer builds a streamer tagging every event with job
// (which may be empty for engine-level registries).
func NewMetricsStreamer(reg *Registry, bus *EventBus, job string) *MetricsStreamer {
	return &MetricsStreamer{reg: reg, bus: bus, job: job, last: map[string]float64{}}
}

// Flush publishes every counter/gauge whose value changed since the
// last flush and returns how many events it emitted.
func (ms *MetricsStreamer) Flush() int {
	if ms == nil || ms.reg == nil || ms.bus == nil {
		return 0
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	sent := 0
	for _, m := range ms.reg.Snapshot() {
		if m.Kind != "counter" && m.Kind != "gauge" {
			continue
		}
		key := m.Kind + "\x00" + m.Name
		prev, seen := ms.last[key]
		if seen && prev == m.Value {
			continue
		}
		ms.last[key] = m.Value
		ms.bus.Publish(BusEvent{
			Type:  m.Kind,
			Job:   ms.job,
			Name:  m.Name,
			Value: m.Value,
			Attrs: map[string]any{"delta": m.Value - prev},
		})
		sent++
	}
	return sent
}

// DefaultFlushInterval is the metric flush cadence used when Start is
// given a non-positive interval.
const DefaultFlushInterval = 500 * time.Millisecond

// Start flushes on a ticker until the returned stop function is called.
// stop performs one final synchronous flush before returning, so the
// terminal metric values always reach the stream.
func (ms *MetricsStreamer) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefaultFlushInterval
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ms.Flush()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			ms.Flush()
		})
	}
}
