// Command obstop is a terminal dashboard for a running snowbma attack
// service: it consumes the /events SSE firehose and renders fleet state
// live — per-job lifecycle and phase progress, jobs/sec throughput,
// queue depth, the slowest spans observed, and event-loss accounting.
//
// Usage:
//
//	go run ./tools/obstop -addr http://127.0.0.1:8347
//	go run ./tools/obstop -addr http://127.0.0.1:8347 -once   # one frame, no ANSI
//
// Like tools/tracestat, obstop keeps its own SSE/event decoder instead
// of importing internal/obs: the event-stream schema (bus schema v1) is
// the wire contract, and an independent consumer is the cheapest proof
// it is self-describing. Unknown event types are ignored, so newer
// services with additive events still render.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

// Event mirrors one bus event as it crosses the SSE wire (the `data:`
// payload). The field set matches internal/obs.BusEvent; unknown fields
// are ignored.
type Event struct {
	Seq    uint64         `json:"seq"`
	TimeUS float64        `json:"t_us"`
	Type   string         `json:"type"`
	Job    string         `json:"job"`
	Name   string         `json:"name"`
	Span   int            `json:"span"`
	Parent int            `json:"parent"`
	DurUS  float64        `json:"dur_us"`
	Value  float64        `json:"value"`
	Attrs  map[string]any `json:"attrs"`
}

// SSEFrame is one decoded server-sent event.
type SSEFrame struct {
	ID    string
	Event string
	Data  string
}

// ReadSSE decodes SSE frames from r and invokes fn for each complete
// frame. Comment lines (heartbeats) are skipped. Returns on EOF or the
// first read error.
func ReadSSE(r io.Reader, fn func(SSEFrame) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var cur SSEFrame
	flush := func() error {
		if cur.Data == "" {
			cur = SSEFrame{}
			return nil
		}
		err := fn(cur)
		cur = SSEFrame{}
		return err
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, ":"):
			// heartbeat / comment
		case strings.HasPrefix(line, "id: "):
			cur.ID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return sc.Err()
}

// JobView is the dashboard's view of one job.
type JobView struct {
	ID       string
	Kind     string
	State    string
	Phase    string  // innermost open span name
	Done     float64 // sweep progress: candidates done
	Total    float64 // sweep progress: candidates total
	RunMS    float64 // terminal run time
	Err      string
	LastSeen time.Time
}

// SpanRec is one completed span, kept for the slowest-spans table.
type SpanRec struct {
	Name  string
	Job   string
	DurMS float64
}

// Model is the accumulated dashboard state. Apply folds events in; the
// renderer reads it. Not safe for concurrent use — the main loop owns
// it.
type Model struct {
	Jobs       map[string]*JobView
	order      []string                  // job ids, first-seen order
	openPhases map[string]map[int]string // job → span id → name (open spans)
	terminals  []time.Time               // terminal-event times (jobs/sec window)
	QueueDepth float64
	Goroutines float64
	HeapBytes  float64
	Dropped    float64 // bus-wide drops (obs.events_dropped mirror)
	SubDropped float64 // this stream's own loss (drops frames)
	Seq        uint64
	Events     int
	Slowest    []SpanRec
	SlowestCap int
}

// NewModel returns an empty model keeping the top n slowest spans.
func NewModel(n int) *Model {
	return &Model{
		Jobs:       map[string]*JobView{},
		openPhases: map[string]map[int]string{},
		SlowestCap: n,
	}
}

func (m *Model) job(id string, now time.Time) *JobView {
	j, ok := m.Jobs[id]
	if !ok {
		j = &JobView{ID: id, State: "?"}
		m.Jobs[id] = j
		m.order = append(m.order, id)
	}
	j.LastSeen = now
	return j
}

func attrFloat(attrs map[string]any, key string) (float64, bool) {
	v, ok := attrs[key]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64) // JSON numbers decode as float64
	return f, ok
}

func attrString(attrs map[string]any, key string) string {
	if v, ok := attrs[key].(string); ok {
		return v
	}
	return ""
}

// Apply folds one event into the model at wall-clock time now.
func (m *Model) Apply(ev Event, now time.Time) {
	m.Events++
	if ev.Seq > 0 {
		m.Seq = ev.Seq
	}
	switch ev.Type {
	case "job":
		j := m.job(ev.Job, now)
		j.State = ev.Name
		if k := attrString(ev.Attrs, "kind"); k != "" {
			j.Kind = k
		}
		if e := attrString(ev.Attrs, "error"); e != "" {
			j.Err = e
		}
		if ms, ok := attrFloat(ev.Attrs, "run_ms"); ok {
			j.RunMS = ms
		}
		switch ev.Name {
		case "done", "failed", "cancelled":
			m.terminals = append(m.terminals, now)
			delete(m.openPhases, ev.Job)
		}
	case "span_start":
		if ev.Job == "" {
			return
		}
		j := m.job(ev.Job, now)
		open := m.openPhases[ev.Job]
		if open == nil {
			open = map[int]string{}
			m.openPhases[ev.Job] = open
		}
		open[ev.Span] = ev.Name
		j.Phase = ev.Name
	case "span_end":
		if ev.Job != "" {
			j := m.job(ev.Job, now)
			open := m.openPhases[ev.Job]
			delete(open, ev.Span)
			if j.Phase == ev.Name {
				// Fall back to the parent phase (any still-open span).
				j.Phase = ""
				if name, ok := open[ev.Parent]; ok {
					j.Phase = name
				} else {
					for _, name := range open {
						j.Phase = name
						break
					}
				}
			}
		}
		m.recordSpan(SpanRec{Name: ev.Name, Job: ev.Job, DurMS: ev.DurUS / 1e3})
	case "progress":
		if ev.Job == "" {
			return
		}
		j := m.job(ev.Job, now)
		if ev.Name == "sweep.chunk" {
			j.Done = ev.Value
			if t, ok := attrFloat(ev.Attrs, "total"); ok {
				j.Total = t
			}
		}
	case "gauge":
		switch ev.Name {
		case "service.jobs_queued":
			m.QueueDepth = ev.Value
		case "runtime.goroutines":
			m.Goroutines = ev.Value
		case "runtime.heap_alloc_bytes":
			m.HeapBytes = ev.Value
		}
	case "counter":
		if ev.Name == "obs.events_dropped" {
			m.Dropped = ev.Value
		}
	case "drops":
		m.SubDropped = ev.Value
	}
}

// recordSpan keeps the SlowestCap slowest spans seen so far.
func (m *Model) recordSpan(r SpanRec) {
	m.Slowest = append(m.Slowest, r)
	sort.SliceStable(m.Slowest, func(i, j int) bool { return m.Slowest[i].DurMS > m.Slowest[j].DurMS })
	if len(m.Slowest) > m.SlowestCap {
		m.Slowest = m.Slowest[:m.SlowestCap]
	}
}

// JobsPerSec is the terminal-event rate over the trailing window.
func (m *Model) JobsPerSec(now time.Time, window time.Duration) float64 {
	cut := now.Add(-window)
	i := 0
	for i < len(m.terminals) && m.terminals[i].Before(cut) {
		i++
	}
	m.terminals = m.terminals[i:]
	if len(m.terminals) == 0 {
		return 0
	}
	return float64(len(m.terminals)) / window.Seconds()
}

// activeJobs returns job views, running first, then queued, then
// terminal (most recent first within each class), capped at n.
func (m *Model) activeJobs(n int) []*JobView {
	rank := func(state string) int {
		switch state {
		case "running":
			return 0
		case "queued":
			return 1
		default:
			return 2
		}
	}
	views := make([]*JobView, 0, len(m.order))
	for _, id := range m.order {
		views = append(views, m.Jobs[id])
	}
	sort.SliceStable(views, func(i, j int) bool {
		ri, rj := rank(views[i].State), rank(views[j].State)
		if ri != rj {
			return ri < rj
		}
		return views[i].LastSeen.After(views[j].LastSeen)
	})
	if len(views) > n {
		views = views[:n]
	}
	return views
}

// Render draws one dashboard frame as plain text (no ANSI — the caller
// adds screen clearing). Pure: same model+now → same frame.
func Render(m *Model, now time.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "snowbma obstop — seq %d, %d events", m.Seq, m.Events)
	if m.SubDropped > 0 {
		fmt.Fprintf(&b, " (this stream lost %.0f)", m.SubDropped)
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "fleet    %.2f jobs/sec   queue %d   goroutines %.0f   heap %s   bus drops %.0f\n\n",
		m.JobsPerSec(now, time.Minute), int(m.QueueDepth), m.Goroutines,
		fmtBytes(m.HeapBytes), m.Dropped)

	b.WriteString("jobs\n")
	jobs := m.activeJobs(12)
	if len(jobs) == 0 {
		b.WriteString("  (none yet)\n")
	}
	for _, j := range jobs {
		line := fmt.Sprintf("  %-10s %-9s %-9s", j.ID, j.Kind, j.State)
		switch {
		case j.State == "running" && j.Total > 0:
			line += fmt.Sprintf(" %s %3.0f%%  %s", progressBar(j.Done/j.Total, 20),
				100*j.Done/j.Total, j.Phase)
		case j.State == "running":
			line += "  " + j.Phase
		case j.RunMS > 0:
			line += fmt.Sprintf("  %s", fmtMS(j.RunMS))
		}
		if j.Err != "" {
			line += "  ! " + truncate(j.Err, 40)
		}
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}

	if len(m.Slowest) > 0 {
		b.WriteString("\nslowest spans\n")
		for _, s := range m.Slowest {
			job := s.Job
			if job == "" {
				job = "-"
			}
			fmt.Fprintf(&b, "  %-28s %-10s %s\n", truncate(s.Name, 28), job, fmtMS(s.DurMS))
		}
	}
	return b.String()
}

func progressBar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac * float64(width))
	return "[" + strings.Repeat("#", full) + strings.Repeat(".", width-full) + "]"
}

func fmtMS(ms float64) string {
	switch {
	case ms >= 1000:
		return fmt.Sprintf("%.2fs", ms/1000)
	case ms >= 1:
		return fmt.Sprintf("%.1fms", ms)
	default:
		return fmt.Sprintf("%.0fµs", ms*1000)
	}
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8347", "service base URL")
	refresh := flag.Duration("refresh", 500*time.Millisecond, "redraw interval")
	once := flag.Bool("once", false, "consume until the stream ends, print one frame, exit")
	topN := flag.Int("top", 8, "slowest spans to keep")
	flag.Parse()

	model := NewModel(*topN)
	lastID := ""
	frames := make(chan struct{}, 1)
	poke := func() {
		select {
		case frames <- struct{}{}:
		default:
		}
	}

	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for {
			err := streamOnce(*addr, lastID, func(f SSEFrame) error {
				if f.ID != "" {
					lastID = f.ID
				}
				var ev Event
				if jsonErr := json.Unmarshal([]byte(f.Data), &ev); jsonErr != nil {
					return nil // additive/unknown payloads are skipped
				}
				model.Apply(ev, time.Now())
				poke()
				return nil
			})
			if *once {
				return
			}
			fmt.Fprintf(os.Stderr, "obstop: stream ended (%v), reconnecting\n", err)
			time.Sleep(time.Second)
		}
	}()

	if *once {
		// Consume the whole stream (it ends when the service shuts the
		// bus down or the connection drops), then print the final frame.
		<-streamDone
		fmt.Print(Render(model, time.Now()))
		return
	}
	tick := time.NewTicker(*refresh)
	defer tick.Stop()
	for {
		select {
		case <-frames:
		case <-tick.C:
		}
		fmt.Print("\x1b[2J\x1b[H" + Render(model, time.Now()))
	}
}

// streamOnce connects to the firehose and consumes it until it closes.
// NOTE: model mutation happens on this goroutine only in -once mode;
// in live mode the render loop reads a model the stream goroutine
// writes — acceptable for a terminal monitor, matching top(1)'s
// tolerance for torn reads, and the reconnect path preserves resume via
// Last-Event-ID.
func streamOnce(addr, lastID string, fn func(SSEFrame) error) error {
	req, err := http.NewRequest("GET", strings.TrimRight(addr, "/")+"/events", nil)
	if err != nil {
		return err
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("obstop: %s returned %s", req.URL, resp.Status)
	}
	return ReadSSE(resp.Body, fn)
}
