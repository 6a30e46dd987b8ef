package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleTrace = `{"type":"meta","version":1}
{"type":"span","id":1,"name":"attack.run","start_us":10,"dur_us":60000,"attrs":{"loads":47,"verified":true}}
{"type":"span","id":2,"parent":1,"name":"attack.batch_scan","start_us":12,"dur_us":35000}
{"type":"span","id":3,"parent":2,"name":"scan.pass","start_us":13,"dur_us":34000}
{"type":"span","id":4,"parent":3,"name":"scan.chunk","start_us":14,"dur_us":20000}
{"type":"span","id":5,"parent":1,"name":"attack.extract_key","start_us":50000,"dur_us":900}
{"type":"counter","name":"attack.loads","value":47}
{"type":"counter","name":"core.catalogue.hits","value":30}
{"type":"counter","name":"core.catalogue.misses","value":10}
{"type":"counter","name":"device.loads","value":47}
{"type":"counter","name":"batch.passes","value":4}
{"type":"gauge","name":"batch.lane_utilisation","value":0.25}
{"type":"hist","name":"batch.lanes_per_pass","count":4,"sum":44,"min":1,"max":39}
`

func TestDecodeTree(t *testing.T) {
	tr, err := Decode(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Version != 1 {
		t.Fatalf("version = %d, want 1", tr.Version)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "attack.run" {
		t.Fatalf("expected single attack.run root, got %+v", tr.Roots)
	}
	root := tr.Roots[0]
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	if descendants(root) != 5 {
		t.Fatalf("descendants = %d, want 5", descendants(root))
	}
	if root.Children[0].Children[0].Children[0].Name != "scan.chunk" {
		t.Fatal("scan.chunk not nested under scan.pass")
	}
	if tr.Counters["attack.loads"] != 47 {
		t.Fatalf("attack.loads = %v", tr.Counters["attack.loads"])
	}
	h := tr.Hists["batch.lanes_per_pass"]
	if h.Count != 4 || h.Sum != 44 || h.Max != 39 {
		t.Fatalf("hist = %+v", h)
	}
}

func TestSummaryContent(t *testing.T) {
	tr, err := Decode(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	out := Summary(tr)
	for _, want := range []string{
		"trace version 1: 1 root span(s), 5 spans total",
		"attack.batch_scan",
		"attack.extract_key",
		"bitstream loads:       47 (device observed 47)",
		"catalogue cache:       75.0% (30/40)",
		"batch lanes/pass:      mean 11.0, min 1, max 39 over 4 pass(es)",
		"batch lane utilisation 25.0%",
		"hot leaf spans:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestDecodeOrphanBecomesRoot(t *testing.T) {
	// A truncated trace can reference a parent id that never appeared;
	// the span must surface as a root instead of vanishing.
	tr, err := Decode(strings.NewReader(
		`{"type":"span","id":7,"parent":3,"name":"scan.walk","dur_us":5}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "scan.walk" {
		t.Fatalf("orphan span not promoted to root: %+v", tr.Roots)
	}
}

func TestDecodeRejectsBadSpan(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"type":"span","name":"x"}` + "\n")); err == nil {
		t.Fatal("span without id accepted")
	}
	if _, err := Decode(strings.NewReader(`{not json}` + "\n")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestDecodeSkipsBlankAndUnknown(t *testing.T) {
	tr, err := Decode(strings.NewReader("\n\n" +
		`{"type":"future-kind","name":"whatever","value":3}` + "\n" +
		`{"type":"counter","name":"attack.loads","value":9}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Counters["attack.loads"] != 9 {
		t.Fatal("counter after unknown-type line lost")
	}
}

// FuzzDecodeLine hammers the NDJSON line decoder: arbitrary input must
// either fail cleanly or produce an event that re-encodes as valid JSON
// and decodes to the same typed fields (round-trip stability).
func FuzzDecodeLine(f *testing.F) {
	for _, line := range strings.Split(sampleTrace, "\n") {
		f.Add(line)
	}
	f.Add("")
	f.Add("   ")
	f.Add(`{"type":"span","id":-1}`)
	f.Add(`{"type":"hist","count":9007199254740993}`)
	f.Add(`{"type":"span","attrs":{"nested":{"deep":[1,2,{"x":null}]}}}`)
	f.Fuzz(func(t *testing.T, line string) {
		ev, err := DecodeLine([]byte(line))
		if err != nil {
			return
		}
		blob, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("decoded event does not re-encode: %v", err)
		}
		again, err := DecodeLine(blob)
		if err != nil {
			t.Fatalf("re-encoded event does not decode: %v (blob %s)", err, blob)
		}
		if again.Type != ev.Type || again.ID != ev.ID || again.Parent != ev.Parent ||
			again.Name != ev.Name || again.Count != ev.Count {
			t.Fatalf("round trip diverged: %+v vs %+v", ev, again)
		}
	})
}

// FuzzDecode feeds arbitrary multi-line documents through the full
// decoder: it must never panic, and any successfully decoded trace must
// render a summary.
func FuzzDecode(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("{\"type\":\"span\",\"id\":1,\"parent\":1,\"name\":\"self\"}\n")
	f.Add("{\"type\":\"meta\",\"version\":99}\n{\"type\":\"span\",\"id\":2}\n")
	f.Fuzz(func(t *testing.T, doc string) {
		tr, err := Decode(strings.NewReader(doc))
		if err != nil {
			return
		}
		_ = Summary(tr)
	})
}
