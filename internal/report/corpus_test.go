package report

import (
	"strings"
	"testing"

	"snowbma/internal/corpus"
)

func TestCorpusRenderer(t *testing.T) {
	rep := &corpus.Report{
		Expr:      "(a1^a2^a3)a4a5!a6",
		Designs:   3,
		Exposed:   2,
		Covered:   1,
		Protected: 1,
		Frames:    528,
		// 350 scanned + 178 windows reused by re-adds.
		FramesScanned: 350,
		DedupHits:     178,
		DedupRate:     178.0 / 528.0,
		BytesTotal:    213708,
		Matches:       139,
		DualHits:      12,
		Results: []corpus.DesignResult{
			{ID: "aaaa1111", Bytes: 71236, Frames: 176, FramesScanned: 176,
				Matches: make([]int, 56), DualHits: 5, TargetLUTs: 32, Exposed: true},
			{ID: "bbbb2222", Protected: true, Bytes: 71236, Frames: 176,
				FramesScanned: 90, DedupHits: 86, Matches: make([]int, 27),
				DualHits: 3, TargetLUTs: 0},
			{ID: "cccc3333", Bytes: 71236, Frames: 176, FramesScanned: 84,
				DedupHits: 92, Matches: make([]int, 56), DualHits: 4,
				TargetLUTs: 32, Exposed: true, Rescans: 2},
		},
	}
	out := Corpus(rep)
	for _, want := range []string{
		"3 designs",
		"target (a1^a2^a3)a4a5!a6",
		"exposed:            2",
		"covered:            1 (1 protected)",
		"139 matches, 12 dual-XOR hits",
		"528 (350 scanned, 178 reused by re-adds)",
		"aaaa1111",
		"EXPOSED",
		"32 target LUTs, 56 candidates",
		"bbbb2222",
		"covered",
		"0 target LUTs, 27 candidates",
		"2 rescans",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("corpus report missing %q:\n%s", want, out)
		}
	}
	// Every design gets a row.
	if got := strings.Count(out, "\n  "); got < len(rep.Results) {
		t.Errorf("report lists %d design rows, want >= %d:\n%s", got, len(rep.Results), out)
	}

	// An unparsed fragment (directory ingest) is labelled, not miscounted.
	rep.Results[0].TargetLUTs = -1
	if out := Corpus(rep); !strings.Contains(out, "unparsed image") {
		t.Errorf("TargetLUTs=-1 not rendered as unparsed:\n%s", out)
	}
}
