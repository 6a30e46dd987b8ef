package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// NDJSON trace export: one JSON object per line, so a trace can be
// streamed, grepped, and diffed across PRs without a reader library.
// Line kinds:
//
//	{"type":"meta","version":1}
//	{"type":"span","id":3,"parent":1,"name":"attack.verify_zpath","start_us":12.5,"dur_us":8100.2,"attrs":{...}}
//	{"type":"counter","name":"attack.loads","value":47}
//	{"type":"gauge","name":"scan.workers","value":8}
//	{"type":"hist","name":"batch.lanes_per_pass","count":5,"sum":41,"min":1,"max":35}
//
// Spans are the tracer's span table in ID order: IDs are start order
// (the same IDs the live bus carries), so every parent precedes its
// children; parent 0 marks a root span. tools/tracestat consumes this
// format.

// TraceVersion is the NDJSON schema version emitted by WriteNDJSON.
const TraceVersion = 1

// Event is one NDJSON trace line (shared with tools/tracestat, which
// keeps its own decoder to stay dependency-free).
type Event struct {
	Type    string         `json:"type"`
	Version int            `json:"version,omitempty"`
	ID      int            `json:"id,omitempty"`
	Parent  int            `json:"parent,omitempty"`
	Name    string         `json:"name,omitempty"`
	StartUS float64        `json:"start_us,omitempty"`
	DurUS   float64        `json:"dur_us,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Value   float64        `json:"value,omitempty"`
	Count   int64          `json:"count,omitempty"`
	Sum     float64        `json:"sum,omitempty"`
	Min     float64        `json:"min,omitempty"`
	Max     float64        `json:"max,omitempty"`
}

// WriteNDJSON streams the span table and a metrics snapshot to w.
// Either tracer or reg may be nil (that section is simply omitted). The
// first write or encode error aborts the export and is returned, so
// callers can fail loudly instead of shipping a truncated trace.
func WriteNDJSON(w io.Writer, tracer *Tracer, reg *Registry) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends '\n' — one object per line
	if err := enc.Encode(Event{Type: "meta", Version: TraceVersion}); err != nil {
		return err
	}
	for _, s := range tracer.Spans() {
		if err := enc.Encode(Event{
			Type:    "span",
			ID:      s.ID,
			Parent:  s.Parent,
			Name:    s.Name,
			StartUS: float64(s.Start.Nanoseconds()) / 1e3,
			DurUS:   float64(s.Dur.Nanoseconds()) / 1e3,
			Attrs:   AttrMap(s.Attrs),
		}); err != nil {
			return err
		}
	}
	for _, m := range reg.Snapshot() {
		ev := Event{Type: m.Kind, Name: m.Name, Value: m.Value}
		if m.Kind == "hist" {
			ev.Count, ev.Sum, ev.Min, ev.Max = m.Hist.Count, m.Hist.Sum, m.Hist.Min, m.Hist.Max
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}
