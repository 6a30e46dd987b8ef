package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	run := tr.StartSpan("attack.run")
	scan := tr.StartSpan("scan.pass", KV("functions", 21))
	compile := tr.StartSpan("scan.compile")
	compile.End()
	walk := tr.StartSpan("scan.walk")
	walk.End()
	scan.End()
	verify := tr.StartSpan("attack.verify_zpath")
	verify.End()
	run.End()

	spans := tr.Spans()
	if len(spans) != 5 || roots(spans) != "attack.run" {
		t.Fatalf("spans = %+v", spans)
	}
	if got := childNames(spans, spans[0].ID); got != "scan.pass attack.verify_zpath" {
		t.Fatalf("run children = %q", got)
	}
	if got := childNames(spans, spans[1].ID); got != "scan.compile scan.walk" {
		t.Fatalf("scan children = %q", got)
	}
	attrs := spans[1].Attrs
	if len(attrs) != 1 || attrs[0].Key != "functions" || attrs[0].Value != 21 {
		t.Fatalf("attrs = %v", attrs)
	}
	// A span started after the tree closed becomes a new root.
	late := tr.StartSpan("late")
	late.End()
	if got := roots(tr.Spans()); got != "attack.run late" {
		t.Fatalf("late span did not become a root: roots %q", got)
	}
}

// childNames lists the names of parent's children in start order.
func childNames(spans []SpanRecord, parent int) string {
	var names []string
	for _, s := range spans {
		if s.Parent == parent {
			names = append(names, s.Name)
		}
	}
	return strings.Join(names, " ")
}

// roots lists the root spans' names in start order.
func roots(spans []SpanRecord) string { return childNames(spans, 0) }

// record reads s's row of its tracer's span table.
func record(s *Span) SpanRecord { return s.t.Spans()[s.id-1] }

func TestSpanDurations(t *testing.T) {
	tr := NewTracer()
	s := tr.StartSpan("instant")
	s.End()
	if d := record(s).Dur; d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	if !record(s).Ended {
		t.Fatal("span not marked ended")
	}
	// End is idempotent: the first duration sticks.
	d0 := record(s).Dur
	time.Sleep(time.Millisecond)
	s.End()
	if record(s).Dur != d0 {
		t.Fatal("second End changed the duration")
	}
	// An unfinished span reports zero, not garbage.
	open := tr.StartSpan("open")
	if record(open).Dur != 0 {
		t.Fatal("open span has nonzero duration")
	}
	slow := tr.StartSpan("slow")
	time.Sleep(2 * time.Millisecond)
	slow.End()
	if record(slow).Dur < time.Millisecond {
		t.Fatalf("slow span measured %v", record(slow).Dur)
	}
	if record(slow).Start < record(open).Start {
		t.Fatal("start offsets not monotonic")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("x")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	s.End()
	s.SetAttr("k", 1)
	if tr.Spans() != nil {
		t.Fatal("nil tracer reports spans")
	}
	var tel *Telemetry
	tel.StartSpan("x").End()
	tel.Counter("c").Inc()
	tel.Gauge("g").Set(1)
	tel.Histogram("h").Observe(1)
	tel = &Telemetry{} // components nil
	tel.StartSpan("x").End()
	tel.Counter("c").Inc()
	var l *Logger
	l.Infof("dropped")
	if NewFuncLogger(nil) != nil {
		t.Fatal("NewFuncLogger(nil) should be nil")
	}
	var legacy []string
	fl := NewFuncLogger(func(f string, args ...any) { legacy = append(legacy, f) })
	fl.Infof("kept %d")
	if len(legacy) != 1 || legacy[0] != "kept %d" {
		t.Fatalf("func logger passed %v", legacy)
	}
}

// TestConcurrentSpans exercises the worker-pool pattern under -race:
// one phase span open, N goroutines starting/ending child spans and
// annotating them concurrently, while a reader copies the span table
// and the tracer publishes every span to a bus.
func TestConcurrentSpans(t *testing.T) {
	tel := New()
	tr := tel.Tracer
	bus := NewEventBus(0)
	tel.AttachBus(bus, "job")
	phase := tr.StartSpan("scan.pass")
	var wg sync.WaitGroup
	const workers = 16
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, s := range tr.Spans() {
				_ = len(s.Attrs)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := tr.StartSpan("scan.chunk")
				c.SetAttr("worker", w)
				c.End()
			}
		}(w)
	}
	wg.Wait()
	phase.End()
	total := 0
	for _, s := range tr.Spans() {
		if s.Parent != 0 {
			total++
		}
	}
	if total != workers*50 {
		t.Fatalf("recorded %d child spans, want %d", total, workers*50)
	}
	if got, want := bus.Seq(), uint64(2*(workers*50+1)); got != want {
		t.Fatalf("bus carried %d span events, want %d", got, want)
	}
}
