package obs

import (
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

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "attack.run" {
		t.Fatalf("roots = %v", roots)
	}
	kids := roots[0].Children()
	if len(kids) != 2 || kids[0].Name() != "scan.pass" || kids[1].Name() != "attack.verify_zpath" {
		t.Fatalf("run children = %d", len(kids))
	}
	grand := kids[0].Children()
	if len(grand) != 2 || grand[0].Name() != "scan.compile" || grand[1].Name() != "scan.walk" {
		t.Fatalf("scan children wrong")
	}
	attrs := kids[0].Attrs()
	if len(attrs) != 1 || attrs[0].Key != "functions" || attrs[0].Value != 21 {
		t.Fatalf("attrs = %v", attrs)
	}
	// A span started after the tree closed becomes a new root.
	late := tr.StartSpan("late")
	late.End()
	if len(tr.Roots()) != 2 {
		t.Fatalf("late span did not become a root")
	}
}

func TestSpanDurations(t *testing.T) {
	tr := NewTracer()
	s := tr.StartSpan("instant")
	s.End()
	if d := s.Duration(); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	if !s.ended {
		t.Fatal("span not marked ended")
	}
	// End is idempotent: the first duration sticks.
	d0 := s.Duration()
	time.Sleep(time.Millisecond)
	s.End()
	if s.Duration() != d0 {
		t.Fatal("second End changed the duration")
	}
	// An unfinished span reports zero, not garbage.
	open := tr.StartSpan("open")
	if open.Duration() != 0 {
		t.Fatal("open span has nonzero duration")
	}
	slow := tr.StartSpan("slow")
	time.Sleep(2 * time.Millisecond)
	slow.End()
	if slow.Duration() < time.Millisecond {
		t.Fatalf("slow span measured %v", slow.Duration())
	}
	if slow.Start() < open.Start() {
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
	if s.Name() != "" || s.Duration() != 0 || s.Children() != nil || s.Attrs() != nil {
		t.Fatal("nil span accessors not inert")
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
// annotating them concurrently.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	phase := tr.StartSpan("scan.pass")
	var wg sync.WaitGroup
	const workers = 16
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
	var count func(s *Span)
	count = func(s *Span) {
		for _, c := range s.Children() {
			total++
			count(c)
		}
	}
	for _, r := range tr.Roots() {
		count(r)
	}
	if total != workers*50 {
		t.Fatalf("recorded %d child spans, want %d", total, workers*50)
	}
}
