// Package report renders the attack artefacts — keystream tables,
// candidate counts, recovered state, timing paths — as deterministic
// text. The CLI prints these renderings and the test suite pins the
// end-to-end attack output against a golden report.
package report

import (
	"fmt"
	"strings"
	"time"

	"snowbma/internal/boolfn"
	"snowbma/internal/core"
	"snowbma/internal/device"
	"snowbma/internal/mapper"
	"snowbma/internal/obs"
)

// Keystream renders keystream words in the paper's table layout.
func Keystream(z []uint32) string {
	var b strings.Builder
	for i, w := range z {
		fmt.Fprintf(&b, "  z%-2d %08x\n", i+1, w)
	}
	return b.String()
}

// CandidateTable renders Table II / Table VI rows.
func CandidateTable(rows []core.CandidateCount) string {
	var b strings.Builder
	b.WriteString("output | function                         | n\n")
	b.WriteString("-------+----------------------------------+----\n")
	for _, r := range rows {
		out := "z_t"
		if r.Path == "s15" {
			out = "s15"
		}
		fmt.Fprintf(&b, "%-6s | %-32s | %d\n", out, r.Name+" = "+r.Expr, r.Count)
	}
	return b.String()
}

// State renders an LFSR state in the Table V layout.
func State(s [16]uint32) string {
	var b strings.Builder
	for i, w := range s {
		fmt.Fprintf(&b, "  s%-2d %08x\n", i, w)
	}
	return b.String()
}

// Attack renders the complete attack report.
func Attack(rep *core.Report) string { return AttackStats(rep, nil) }

// AttackStats renders the attack report of a run traced into tel (the
// -stats CLI flag): its compiled-fabric line also counts the run's
// program compiles and reuses. A nil tel renders Attack's report.
func AttackStats(rep *core.Report, tel *obs.Telemetry) string {
	head, tail := attackParts(rep)
	return head + Engine(rep, tel) + tail
}

// Artefacts renders the attack report without its engine block: the
// paper's figures only (loads, confirmed LUTs, Tables III–V, the key).
func Artefacts(rep *core.Report) string {
	head, tail := attackParts(rep)
	return head + tail
}

// Engine renders the attack's engine block: the scan-engine,
// batch-sweep and compiled-fabric sections of the passes the run made.
// Their counters move with performance work, and the scan line carries
// the worker count and wall times.
func Engine(rep *core.Report, tel *obs.Telemetry) string {
	var b strings.Builder
	if rep.Scan.Passes > 0 {
		b.WriteString(ScanStats(rep.Scan))
	}
	if rep.Batch.Passes > 0 {
		b.WriteString(BatchStats(rep.Batch))
	}
	if rep.Fabric.Insns > 0 {
		b.WriteString(FabricStats(rep.Fabric, tel))
	}
	return b.String()
}

// attackParts splits the attack report around the engine block.
func attackParts(rep *core.Report) (head, tail string) {
	var b strings.Builder
	fmt.Fprintf(&b, "encrypted image:       %v\n", rep.Encrypted)
	fmt.Fprintf(&b, "bitstream loads:       %d\n", rep.Loads)
	fmt.Fprintf(&b, "confirmed target LUTs: %d LUT1 + %d LUT2 + %d LUT3\n",
		len(rep.LUT1), len(rep.LUT2), len(rep.LUT3))
	fmt.Fprintf(&b, "MUX hypothesis:        %s (%d LUTs modified for fault beta)\n",
		rep.MuxHypothesis, rep.MuxMatches)
	head = b.String()
	b.Reset()
	b.WriteString("key-independent keystream (Table III analogue):\n")
	b.WriteString(Keystream(rep.KeyIndependent))
	b.WriteString("faulty keystream (Table IV analogue):\n")
	b.WriteString(Keystream(rep.FaultyFinal))
	b.WriteString("recovered initial LFSR state S0 (Table V analogue):\n")
	b.WriteString(State(rep.RecoveredS0))
	fmt.Fprintf(&b, "RECOVERED KEY: %08x %08x %08x %08x (verified=%v)\n",
		rep.Key[0], rep.Key[1], rep.Key[2], rep.Key[3], rep.Verified)
	fmt.Fprintf(&b, "RECOVERED IV:  %08x %08x %08x %08x\n",
		rep.IV[0], rep.IV[1], rep.IV[2], rep.IV[3])
	return head, b.String()
}

// ScanStats renders the batch-scan observability counters (the -stats
// CLI flag and the attack report's scan section).
func ScanStats(s core.ScanStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan engine:           %d functions + %d dual-XOR windows in %d pass(es), %d workers\n",
		s.Functions, s.DualTargets, s.Passes, s.Workers)
	fmt.Fprintf(&b, "  catalogue:           %d candidates compiled (cache: %d hits, %d misses)\n",
		s.CandidatesCompiled, s.CatalogueHits, s.CatalogueMisses)
	fmt.Fprintf(&b, "  walk:                %d bytes, %d anchor probes, %d anchor hits, %d deep compares\n",
		s.BytesScanned, s.AnchorProbes, s.AnchorHits, s.DeepCompares)
	if s.DualTargets > 0 {
		fmt.Fprintf(&b, "  dual-XOR:            %d probes, %d passed the 16-bit lane prefilter\n",
			s.DualProbes, s.DualDecodes)
	}
	fmt.Fprintf(&b, "  time:                compile %v, scan %v\n",
		s.CompileTime.Round(time.Microsecond), s.ScanTime.Round(time.Microsecond))
	return b.String()
}

// BatchStats renders the bitsliced candidate-sweep counters: fabric
// passes actually executed by the simulator next to the modeled
// hardware loads they stand in for, lane utilization and scalar
// fallbacks.
func BatchStats(s core.BatchStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "batch sweeps:          %d lane(s) wide, %d fabric pass(es), %d candidate lanes, %d scalar fallbacks\n",
		s.Width, s.Passes, s.Lanes, s.Fallbacks)
	if s.LaneWords > 0 {
		fmt.Fprintf(&b, "  register words:      %d 64-lane word(s) swept\n", s.LaneWords)
	}
	fmt.Fprintf(&b, "  frame patches:       %d applied across all lanes\n", s.PatchedFrames)
	return b.String()
}

// FabricStats renders the compiled flat-program summary of the loaded
// configuration: how the LUT/FF/BRAM graph flattened into the
// instruction stream both evaluators execute. With a telemetry handle
// it adds how many of the run's loads compiled a program and how many
// reused one already compiled (the device.compiles and device.reuses
// counters).
func FabricStats(s device.CompileStats, tel *obs.Telemetry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "compiled fabric:       %d instructions, %d synthesis temps",
		s.Insns, s.Temps)
	if tel != nil && tel.Metrics != nil {
		fmt.Fprintf(&b, "; %d compile(s), %d reuse(s) this run",
			tel.Metrics.Counter("device.compiles").Value(), tel.Metrics.Counter("device.reuses").Value())
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  lut forms:           %d shannon, %d parity (%d const inputs folded)\n",
		s.ShannonLUTs, s.ParityLUTs, s.FoldedInputs)
	fmt.Fprintf(&b, "  bram:                %d transpose groups, %d const ROMs primed at compile\n",
		s.BRAMGroups, s.ConstROMs)
	return b.String()
}

// Trace renders the phase-span tree of a telemetry handle: one line per
// span with indentation for nesting and the wall time each phase took.
// High-volume leaf spans (scan.chunk, sweep.chunk) are folded into a
// count so the section stays readable; the NDJSON export keeps them all.
func Trace(tel *obs.Telemetry) string {
	if tel == nil || tel.Tracer == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("phase trace:\n")
	fold := map[string]bool{"scan.chunk": true, "sweep.chunk": true, "device.load": true}
	spans := tel.Tracer.Spans()
	// children[id] lists span id's children as indexes into spans, in
	// start order; children[0] the roots. IDs are 1..len(spans).
	children := make([][]int, len(spans)+1)
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	// tally counts s and every descendant into folded by name —
	// concurrent worker spans may nest under each other arbitrarily, so
	// a folded span's subtree is flattened into the counts.
	var tally func(i int, folded map[string]int)
	tally = func(i int, folded map[string]int) {
		folded[spans[i].Name]++
		for _, c := range children[spans[i].ID] {
			tally(c, folded)
		}
	}
	var walk func(i, depth int)
	walk = func(i, depth int) {
		folded := map[string]int{}
		fmt.Fprintf(&b, "  %s%-*s %v\n", strings.Repeat("  ", depth),
			36-2*depth, spans[i].Name, spans[i].Dur.Round(time.Microsecond))
		for _, c := range children[spans[i].ID] {
			if fold[spans[c].Name] {
				tally(c, folded)
			} else {
				walk(c, depth+1)
			}
		}
		for _, name := range []string{"device.load", "scan.chunk", "sweep.chunk"} {
			if n := folded[name]; n > 0 {
				fmt.Fprintf(&b, "  %s%-*s ×%d\n", strings.Repeat("  ", depth+1),
					36-2*(depth+1), name, n)
			}
		}
	}
	for _, root := range children[0] {
		walk(root, 0)
	}
	return b.String()
}

// Timing renders a slowest-paths table.
func Timing(paths []mapper.PathReport) string {
	var b strings.Builder
	b.WriteString("rank | delay    | levels | endpoint\n")
	for i, p := range paths {
		fmt.Fprintf(&b, "%4d | %6.3f ns | %6d | %s\n", i+1, p.Delay, p.Levels, p.Endpoint)
	}
	return b.String()
}

// Fig5 renders the identified cover structure of the target node v — the
// textual analogue of the paper's Fig 5: which LUT implements which
// function on which path, per keystream bit.
func Fig5(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "LUT1 — z_t path, %d instances of f2 = %s\n",
		len(rep.LUT1), boolfn.Minimize(boolfn.F2))
	for _, c := range rep.LUT1 {
		fmt.Fprintf(&b, "  bit %2d: byte index %6d, %s, s0 on XOR pin %d\n",
			c.Bit, c.Match.Index, c.Match.Order, c.KeepVar+1)
	}
	fmt.Fprintf(&b, "LUT2 — feedback path, %d instances of f8 = %s\n",
		len(rep.LUT2), boolfn.Minimize(boolfn.F8))
	for _, m := range rep.LUT2 {
		fmt.Fprintf(&b, "  byte index %6d, %s\n", m.Index, m.Order)
	}
	fmt.Fprintf(&b, "LUT3 — feedback path (shifted byte), %d instances of f19 = %s\n",
		len(rep.LUT3), boolfn.Minimize(boolfn.F19))
	for _, m := range rep.LUT3 {
		fmt.Fprintf(&b, "  byte index %6d, %s\n", m.Index, m.Order)
	}
	return b.String()
}
