package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"snowbma/internal/obs"
)

// runWithTelemetry executes one full attack with a fresh telemetry
// handle and returns the report and the handle.
func runWithTelemetry(t *testing.T) (*Report, *obs.Telemetry) {
	t.Helper()
	atk := newAttack(t, false, false, nil)
	tel := obs.New()
	atk.SetTelemetry(tel)
	rep, err := atk.Run()
	if err != nil {
		t.Fatalf("attack failed: %v", err)
	}
	return rep, tel
}

// TestTelemetryDifferentialStats pins the mirror design: the metrics
// registry must reconstruct to exactly the ScanStats/BatchStats the
// report accumulated, and the attack.loads counter must equal
// Report.Loads (countLoad is the single accounting site).
func TestTelemetryDifferentialStats(t *testing.T) {
	rep, tel := runWithTelemetry(t)

	if got := tel.Counter("attack.loads").Value(); got != int64(rep.Loads) {
		t.Fatalf("attack.loads counter = %d, Report.Loads = %d", got, rep.Loads)
	}
	gotScan := scanStatsFromMetrics(tel.Metrics)
	if gotScan != rep.Scan {
		t.Fatalf("registry scan stats diverge:\n got %+v\nwant %+v", gotScan, rep.Scan)
	}
	gotBatch := batchStatsFromMetrics(tel.Metrics)
	if gotBatch != rep.Batch {
		t.Fatalf("registry batch stats diverge:\n got %+v\nwant %+v", gotBatch, rep.Batch)
	}
	if rep.Batch.Passes > 0 {
		hv := tel.Histogram("batch.lanes_per_pass").Value()
		if hv.Count != int64(rep.Batch.Passes) {
			t.Fatalf("lanes_per_pass observations %d, passes %d", hv.Count, rep.Batch.Passes)
		}
		if int(hv.Sum) != rep.Batch.Lanes {
			t.Fatalf("lanes_per_pass sum %v, lanes %d", hv.Sum, rep.Batch.Lanes)
		}
	}
}

// TestTelemetryIdenticalToUntraced pins the overhead contract at the
// semantic level: attaching telemetry must not change a single
// deterministic report field relative to an untraced run (timing
// fields excepted). Both runs start from an empty catalogue cache, so
// their catalogue hit/miss counts must agree too.
func TestTelemetryIdenticalToUntraced(t *testing.T) {
	atk := newAttack(t, false, false, nil)
	ResetCatalogueCache()
	plainRep, err := atk.Run()
	if err != nil {
		t.Fatalf("untraced attack failed: %v", err)
	}
	ResetCatalogueCache()
	tracedRep, _ := runWithTelemetry(t)

	norm := func(r *Report) *Report {
		c := r.Clone()
		c.Scan.CompileTime = 0
		c.Scan.ScanTime = 0
		return c
	}
	if !reflect.DeepEqual(norm(plainRep), norm(tracedRep)) {
		t.Fatalf("traced report diverges from untraced baseline:\n got %+v\nwant %+v",
			norm(tracedRep), norm(plainRep))
	}
}

// TestTelemetrySpanTree checks the phase-span taxonomy: one attack.run
// root whose children include every phase, with the scanner pass nested
// under the batch-scan phase.
func TestTelemetrySpanTree(t *testing.T) {
	_, tel := runWithTelemetry(t)

	spans := tel.Tracer.Spans()
	var roots []obs.SpanRecord
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	if len(roots) != 1 || roots[0].Name != "attack.run" {
		t.Fatalf("expected single attack.run root, got %d roots", len(roots))
	}
	if roots[0].Dur <= 0 {
		t.Fatal("attack.run span not closed with a positive duration")
	}
	// Every span descends from the one root (start order puts parents
	// first), so the whole table is the root's subtree.
	names := map[string]int{}
	byID := map[int]obs.SpanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				t.Fatalf("span %d %q has parent %d, which did not start before it", s.ID, s.Name, s.Parent)
			}
		}
		byID[s.ID] = s
		names[s.Name]++
	}
	for _, phase := range []string{
		"attack.batch_scan", "attack.verify_zpath", "attack.collect_feedback",
		"attack.make_key_independent", "attack.resolve_beta",
		"attack.identify_vpairs", "attack.extract_key",
		"scan.pass", "scan.compile", "scan.walk", "device.load",
	} {
		if names[phase] == 0 {
			t.Fatalf("span %q missing from trace (have %v)", phase, names)
		}
	}
	// The scanner pass must nest under the batch-scan phase.
	for _, c := range spans {
		if c.Parent == roots[0].ID && c.Name == "attack.batch_scan" {
			ok := false
			for _, g := range spans {
				if g.Parent == c.ID && g.Name == "scan.pass" {
					ok = true
				}
			}
			if !ok {
				t.Fatal("scan.pass not nested under attack.batch_scan")
			}
		}
	}
}

// TestTelemetryNDJSONExport round-trips a real attack trace through the
// NDJSON writer: the export must succeed and contain the phase spans and
// the loads counter.
func TestTelemetryNDJSONExport(t *testing.T) {
	_, tel := runWithTelemetry(t)
	var buf bytes.Buffer
	if err := obs.WriteNDJSON(&buf, tel.Tracer, tel.Metrics); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"type":"meta"`, `"name":"attack.run"`, `"name":"attack.extract_key"`,
		`"name":"attack.loads"`, `"name":"scan.passes"`,
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("NDJSON export missing %s", want)
		}
	}
}

// TestReportMutationDoesNotCorruptRun is the aliasing regression test:
// Report() hands out a deep copy, so callers scribbling over it (slices
// included) must not perturb the attack's subsequent phases.
func TestReportMutationDoesNotCorruptRun(t *testing.T) {
	atk := newAttack(t, false, false, nil)
	// Partial run, then vandalize the returned snapshot.
	atk.CountCandidates()
	snap := atk.Report()
	for i := range snap.CandidateTable {
		snap.CandidateTable[i].Count = -1
	}
	snap.Loads = 9999
	snap.CleanKeystream = append(snap.CleanKeystream, 0xDEADBEEF)

	rep, err := atk.Run()
	if err != nil {
		t.Fatalf("attack failed after report mutation: %v", err)
	}
	if rep.Key != secretKey || !rep.Verified {
		t.Fatalf("attack corrupted by report mutation: key %08x verified=%v", rep.Key, rep.Verified)
	}
	for _, row := range rep.CandidateTable {
		if row.Count < 0 {
			t.Fatal("mutation of the returned candidate table leaked into the attack")
		}
	}
	if rep.Loads >= 9999 {
		t.Fatalf("loads %d inherited the vandalized snapshot", rep.Loads)
	}

	// The final report is itself a copy: deep-mutate it and re-read.
	rep.LUT1[0].Bit = -5
	rep.LUT1[0].Match.Perm[0] = 99
	again := atk.Report()
	if again.LUT1[0].Bit == -5 {
		t.Fatal("Report aliases ConfirmedLUT storage")
	}
	if again.LUT1[0].Match.Perm[0] == 99 {
		t.Fatal("Report aliases Match.Perm storage")
	}
}

// scanStatsFromMetrics reconstructs a ScanStats from the registry
// mirror — the inverse of publishScanStats, pinned equal to the struct
// accumulation by the differential suite.
func scanStatsFromMetrics(m *obs.Registry) ScanStats {
	return ScanStats{
		Functions:          int(m.Counter("scan.functions").Value()),
		DualTargets:        int(m.Counter("scan.dual_targets").Value()),
		CandidatesCompiled: int(m.Counter("scan.candidates_compiled").Value()),
		CatalogueHits:      int(m.Counter("scan.catalogue_hits").Value()),
		CatalogueMisses:    int(m.Counter("scan.catalogue_misses").Value()),
		BytesScanned:       m.Counter("scan.bytes").Value(),
		Passes:             m.Counter("scan.passes").Value(),
		AnchorProbes:       m.Counter("scan.anchor_probes").Value(),
		AnchorHits:         m.Counter("scan.anchor_hits").Value(),
		DeepCompares:       m.Counter("scan.deep_compares").Value(),
		DualProbes:         m.Counter("scan.dual_probes").Value(),
		DualDecodes:        m.Counter("scan.dual_decodes").Value(),
		Workers:            int(m.Gauge("scan.workers").Value()),
		CompileTime:        time.Duration(m.Counter("scan.compile_ns").Value()),
		ScanTime:           time.Duration(m.Counter("scan.walk_ns").Value()),
	}
}

// batchStatsFromMetrics is the inverse of publishBatchStats.
func batchStatsFromMetrics(m *obs.Registry) BatchStats {
	return BatchStats{
		Width:         int(m.Gauge("batch.width").Value()),
		Passes:        int(m.Counter("batch.passes").Value()),
		LaneWords:     int(m.Counter("batch.lane_words").Value()),
		Lanes:         int(m.Counter("batch.lanes").Value()),
		Fallbacks:     int(m.Counter("batch.fallbacks").Value()),
		PatchedFrames: int(m.Counter("batch.patched_frames").Value()),
	}
}
