package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Server-Sent Events transport for the EventBus. Wire format (one frame
// per bus event):
//
//	id: <seq>
//	event: <type>
//	data: {"seq":…,"t_us":…,"type":…,…}        (the BusEvent as JSON)
//
// Heartbeats are comment frames (": hb") so idle streams keep their
// connection alive without fabricating events. A reconnecting client
// sends Last-Event-ID (standard EventSource behavior) and the stream
// resumes from the ring buffer; sequence gaps mean the ring has already
// evicted part of the requested range. When a subscriber falls behind,
// the bus drops events rather than stalling publishers; the stream then
// carries a synthetic "drops" frame (no id — it is per-subscriber, not
// a bus event) telling the consumer its cumulative loss.

// SSEFromNow is the SSEOptions.After sentinel for a live-only stream
// (no ring replay).
const SSEFromNow = ^uint64(0)

// DefaultHeartbeat is the SSE keep-alive cadence used when
// SSEOptions.Heartbeat is zero.
const DefaultHeartbeat = 15 * time.Second

// SSEOptions parameterize ServeSSE.
type SSEOptions struct {
	// After is the resume point: replay buffered events with Seq >
	// After before going live. SSEFromNow skips replay. A Last-Event-ID
	// request header overrides it.
	After uint64
	// Filter selects which bus events reach this stream (nil = all).
	Filter func(BusEvent) bool
	// Done, when non-nil, closes the stream right after the first
	// delivered event it matches (the per-job streams close on the
	// terminal job event).
	Done func(BusEvent) bool
	// Epilogue runs after the backlog replay when Done has not yet
	// fired: returning a non-nil event writes it, after any live events
	// already queued, and ends the stream (used to synthesize a terminal
	// event for already-finished jobs); returning nil continues live.
	Epilogue func() *BusEvent
	// Heartbeat is the keep-alive comment cadence (0 = DefaultHeartbeat).
	Heartbeat time.Duration
	// Buffer is the subscriber channel depth (0 = DefaultSubBuffer).
	Buffer int
}

// SSEWriter encodes bus events as SSE frames.
type SSEWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// NewSSEWriter sets the SSE response headers and returns a writer, or
// an error when the ResponseWriter cannot stream.
func NewSSEWriter(w http.ResponseWriter) (*SSEWriter, error) {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil, fmt.Errorf("obs: response writer does not support streaming")
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	// Commit the headers immediately: an EventSource client must see the
	// stream open even when the first event is seconds away.
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return &SSEWriter{w: w, fl: fl}, nil
}

// WriteEvent writes one event frame and flushes it.
func (sw *SSEWriter) WriteEvent(ev BusEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if ev.Seq > 0 {
		if _, err := fmt.Fprintf(sw.w, "id: %d\n", ev.Seq); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
		return err
	}
	sw.fl.Flush()
	return nil
}

// Heartbeat writes a keep-alive comment frame.
func (sw *SSEWriter) Heartbeat() error {
	if _, err := fmt.Fprint(sw.w, ": hb\n\n"); err != nil {
		return err
	}
	sw.fl.Flush()
	return nil
}

// ServeSSE streams bus events to one HTTP client: ring-buffer backlog
// first (honoring Last-Event-ID), then live events, with heartbeats in
// between. It returns when the client disconnects, the bus closes, opt.
// Done matches a delivered event, or opt.Epilogue ends the stream.
func ServeSSE(w http.ResponseWriter, r *http.Request, bus *EventBus, opt SSEOptions) error {
	sw, err := NewSSEWriter(w)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return err
	}
	after := opt.After
	if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		if v, perr := strconv.ParseUint(lid, 10, 64); perr == nil {
			after = v
		}
	}
	if after == SSEFromNow {
		after = bus.Seq()
	}
	sub, backlog := bus.SubscribeFrom(after, opt.Buffer)
	defer sub.Close()

	deliver := func(ev BusEvent) (done bool, err error) {
		if opt.Filter != nil && !opt.Filter(ev) {
			return false, nil
		}
		if err := sw.WriteEvent(ev); err != nil {
			return true, err
		}
		return opt.Done != nil && opt.Done(ev), nil
	}
	for _, ev := range backlog {
		if done, err := deliver(ev); done || err != nil {
			return err
		}
	}
	if opt.Epilogue != nil {
		if ev := opt.Epilogue(); ev != nil {
			// Whatever the subject published between the backlog snapshot
			// and the epilogue's check is already queued on sub: deliver
			// it first, or a client joining as the subject finishes loses
			// those events.
			for queued := true; queued; {
				select {
				case live, ok := <-sub.C():
					if !ok {
						queued = false
						break
					}
					if done, err := deliver(live); done || err != nil {
						return err
					}
				default:
					queued = false
				}
			}
			_, err := deliver(*ev)
			return err
		}
	}

	hb := opt.Heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	var reported int64 // drops already surfaced to this client
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				return nil // bus closed (engine shutdown)
			}
			if done, err := deliver(ev); done || err != nil {
				return err
			}
			if d := sub.Drops(); d > reported {
				reported = d
				if err := sw.WriteEvent(BusEvent{Type: EventDrops, Value: float64(d)}); err != nil {
					return err
				}
			}
		case <-ticker.C:
			if err := sw.Heartbeat(); err != nil {
				return err
			}
		case <-r.Context().Done():
			return nil
		}
	}
}
