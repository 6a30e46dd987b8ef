package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"snowbma/internal/obs"
)

// decodeSSE parses an SSE body into its data frames.
func decodeSSE(t *testing.T, body string) []obs.BusEvent {
	t.Helper()
	var out []obs.BusEvent
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev obs.BusEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

func jobStates(events []obs.BusEvent) []string {
	var states []string
	for _, ev := range events {
		if ev.Type == obs.EventJob {
			states = append(states, ev.Name)
		}
	}
	return states
}

// TestJobEventsLifecycle replays a finished job's full event stream:
// the queued→running→done transitions arrive in order and the stream
// closes itself on the terminal event.
func TestJobEventsLifecycle(t *testing.T) {
	e := newStubEngine(1, 4, instant)
	defer e.Shutdown(context.Background())
	st, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, st.ID, StateDone)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/jobs/"+st.ID+"/events", nil)
	req.SetPathValue("id", st.ID)
	e.handleJobEvents(rec, req)
	states := jobStates(decodeSSE(t, rec.Body.String()))
	if got := strings.Join(states, ","); got != "queued,running,done" {
		t.Fatalf("lifecycle over SSE = %q", got)
	}
}

// TestJobEventsMidJoinCatchup joins the stream while the job is
// mid-flight: the ring replays the phases already executed, the rest
// arrives live, and the terminal event closes the stream.
func TestJobEventsMidJoinCatchup(t *testing.T) {
	phase1 := make(chan struct{})
	gate := make(chan struct{})
	e := newStubEngine(1, 4, func(ctx context.Context, j *job) (any, error) {
		run := j.tel.StartSpan("attack.run")
		s := j.tel.StartSpan("attack.batch_scan")
		s.End()
		close(phase1)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		v := j.tel.StartSpan("attack.verify_zpath")
		v.End()
		run.End()
		return "ok", nil
	})
	defer e.Shutdown(context.Background())
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	st, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	<-phase1 // the job is mid-flight, first phase traced

	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(gate)

	var caught, live bool
	var states []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev obs.BusEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.Type == obs.EventSpanStart && ev.Name == "attack.batch_scan":
			caught = true // replayed from the ring: happened before we joined
		case ev.Type == obs.EventSpanStart && ev.Name == "attack.verify_zpath":
			live = true // streamed live: happened after we joined
		case ev.Type == obs.EventJob:
			states = append(states, ev.Name)
		}
	}
	if !caught {
		t.Fatal("mid-join did not catch up on the already-executed phase")
	}
	if !live {
		t.Fatal("mid-join did not receive the live phase")
	}
	if got := strings.Join(states, ","); got != "queued,running,done" {
		t.Fatalf("lifecycle = %q", got)
	}
}

// TestJobEventsLastEventIDResume reconnects with Last-Event-ID and must
// not see events it already consumed.
func TestJobEventsLastEventIDResume(t *testing.T) {
	e := newStubEngine(1, 4, instant)
	defer e.Shutdown(context.Background())
	st, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, st.ID, StateDone)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/jobs/"+st.ID+"/events", nil)
	req.SetPathValue("id", st.ID)
	e.handleJobEvents(rec, req)
	full := decodeSSE(t, rec.Body.String())
	if len(full) < 3 {
		t.Fatalf("full stream too short: %+v", full)
	}
	// "Disconnect" after the first event and resume from its seq.
	rec2 := httptest.NewRecorder()
	req2 := httptest.NewRequest("GET", "/jobs/"+st.ID+"/events", nil)
	req2.SetPathValue("id", st.ID)
	req2.Header.Set("Last-Event-ID", fmt.Sprint(full[0].Seq))
	e.handleJobEvents(rec2, req2)
	resumed := decodeSSE(t, rec2.Body.String())
	if len(resumed) != len(full)-1 {
		t.Fatalf("resume replayed %d events, want %d", len(resumed), len(full)-1)
	}
	for _, ev := range resumed {
		if ev.Seq <= full[0].Seq {
			t.Fatalf("resume replayed already-seen seq %d", ev.Seq)
		}
	}
}

// TestJobEventsEpilogueAfterEviction: when the ring has evicted a
// finished job's events, the stream synthesizes a terminal event and
// closes instead of hanging.
func TestJobEventsEpilogueAfterEviction(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 4, eventBuffer: 4})
	e.execFn = instant
	defer e.Shutdown(context.Background())
	st, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, st.ID, StateDone)
	// Push the job's events out of the 4-deep ring.
	for i := 0; i < 16; i++ {
		e.bus.Publish(obs.BusEvent{Type: obs.EventProgress, Name: "filler"})
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/jobs/"+st.ID+"/events", nil)
	req.SetPathValue("id", st.ID)
	done := make(chan struct{})
	go func() { e.handleJobEvents(rec, req); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream hung waiting for evicted history")
	}
	states := jobStates(decodeSSE(t, rec.Body.String()))
	if len(states) != 1 || states[0] != StateDone {
		t.Fatalf("epilogue states = %v, want [done]", states)
	}
}

func TestJobEventsUnknownJob(t *testing.T) {
	e := newStubEngine(1, 1, instant)
	defer e.Shutdown(context.Background())
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events = %d, want 404", resp.StatusCode)
	}
}

// TestSlowSubscriberDropsCounted: a subscriber that never drains loses
// events without stalling job execution, and the loss is accounted both
// on the subscription and in the obs.events_dropped metric.
func TestSlowSubscriberDropsCounted(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 16, runtimePoll: 5 * time.Millisecond})
	e.execFn = instant
	defer e.Shutdown(context.Background())

	sub, _ := e.bus.SubscribeFrom(0, 1) // 1-deep, never drained
	defer sub.Close()
	deadline := time.Now().Add(10 * time.Second)
	for e.bus.Dropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no drops despite a saturated subscriber")
		}
		st, err := e.Submit(JobSpec{Kind: KindAttack})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, e, st.ID, StateDone)
	}
	if sub.Drops() == 0 {
		t.Fatal("per-subscriber drop counter did not move")
	}
	// The runtime poller mirrors the bus total into the metrics registry.
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteString("\n")
		}
		resp.Body.Close()
		body := sb.String()
		if strings.Contains(body, "obs_events_dropped_total") &&
			!strings.Contains(body, "obs_events_dropped_total 0\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("obs_events_dropped_total never surfaced:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFirehoseClosesOnShutdown: the /events stream ends (clean EOF, no
// error) when the engine shuts down and the bus closes.
func TestFirehoseClosesOnShutdown(t *testing.T) {
	e := newStubEngine(1, 4, instant)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("firehose Content-Type = %q", ct)
	}
	streamDone := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
		streamDone <- sc.Err()
	}()
	// Give the stream a moment to go live, then drain the engine.
	time.Sleep(50 * time.Millisecond)
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-streamDone:
		if err != nil {
			t.Fatalf("firehose ended with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("firehose did not close on shutdown")
	}
}

// TestFirehoseIsLiveOnly: without Last-Event-ID the firehose starts at
// the current sequence — history belongs to the per-job streams.
func TestFirehoseIsLiveOnly(t *testing.T) {
	e := newStubEngine(1, 4, instant)
	defer e.Shutdown(context.Background())
	st, err := e.Submit(JobSpec{Kind: KindAttack})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, st.ID, StateDone)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	if strings.Contains(sb.String(), `"name":"queued"`) {
		t.Fatalf("firehose replayed history:\n%s", sb.String())
	}
}

// spanNode is a reconstructed span-tree node for the differential test.
type spanNode struct {
	name     string
	children []*spanNode
}

// canon renders a span tree as a canonical string: names in sibling
// order, children parenthesized.
func canon(nodes []*spanNode) string {
	var parts []string
	for _, n := range nodes {
		s := n.name
		if len(n.children) > 0 {
			s += "(" + canon(n.children) + ")"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ",")
}

// treeFromPairs builds root nodes from (id, parent, name) triples,
// preserving first-seen sibling order.
func treeFromPairs(ids []int, parents []int, names []string) []*spanNode {
	nodes := map[int]*spanNode{}
	var roots []*spanNode
	for i, id := range ids {
		n := &spanNode{name: names[i]}
		nodes[id] = n
		if p, ok := nodes[parents[i]]; ok && parents[i] != 0 {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// TestSSEPhaseTreeMatchesTrace is the differential acceptance check: a
// real attack job's live SSE event stream must reconstruct exactly the
// phase tree its NDJSON trace reports after the fact.
func TestSSEPhaseTreeMatchesTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes a victim")
	}
	e := New(Config{Workers: 1, QueueDepth: 4})
	defer e.Shutdown(context.Background())
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	st, err := e.Submit(JobSpec{Kind: KindAttack, Victim: VictimSpec{Key: smokeKey}, IV: smokeIVs[0]})
	if err != nil {
		t.Fatal(err)
	}
	// Consume the job stream until the terminal event closes it.
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var ids, parents []int
	var names []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev obs.BusEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == obs.EventSpanStart {
			ids = append(ids, ev.Span)
			parents = append(parents, ev.Parent)
			names = append(names, ev.Name)
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sseTree := canon(treeFromPairs(ids, parents, names))

	// The NDJSON trace of the same job.
	resp, err = http.Get(srv.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tids, tparents []int
	var tnames []string
	sc = bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "span" {
			tids = append(tids, ev.ID)
			tparents = append(tparents, ev.Parent)
			tnames = append(tnames, ev.Name)
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	traceTree := canon(treeFromPairs(tids, tparents, tnames))

	if len(tnames) == 0 {
		t.Fatal("trace reported no spans")
	}
	if sseTree != traceTree {
		t.Fatalf("phase tree mismatch:\nSSE:   %s\ntrace: %s", sseTree, traceTree)
	}
	// Sanity: the tree contains the attack's named phases.
	sort.Strings(names)
	for _, phase := range []string{"service.job", "attack.run", "attack.verify_zpath"} {
		if i := sort.SearchStrings(names, phase); i >= len(names) || names[i] != phase {
			t.Fatalf("phase %q missing from SSE stream (have %v)", phase, names)
		}
	}
}
