package main

import (
	"context"
	"flag"
	"fmt"

	"snowbma"
	"snowbma/internal/hdl"
	"snowbma/internal/mapper"
	"snowbma/internal/report"
)

// reproEngineHeader opens repro's last section, the attack's engine
// block. Everything before it is the paper's artefacts, which
// TestCmdTableGolden pins byte for byte; the engine block carries the
// worker count (it follows GOMAXPROCS) and wall times.
const reproEngineHeader = "\n=== engine: scan, batch sweeps, compiled fabric (not a paper artefact) ===\n"

// cmdRepro regenerates every table and figure of the paper in one run —
// the executable companion of EXPERIMENTS.md.
func cmdRepro(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	_ = fs.Parse(args)

	fmt.Println("=== Table I: ξ LUT bit permutation ===")
	fmt.Println("pinned by TestXiTableIStructure (64/64 rows + closed form); spot row: F[0] → B[63]")

	fmt.Println("\n=== synthesizing victims (unprotected / protected) ===")
	unprot, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: snowbma.PaperKey})
	if err != nil {
		return err
	}
	prot, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: snowbma.PaperKey, Protected: true})
	if err != nil {
		return err
	}
	fmt.Printf("unprotected: %d bytes, %d LUTs, depth %d\n", len(unprot.Image), unprot.LUTs, unprot.Depth)
	fmt.Printf("protected:   %d bytes, %d LUTs, depth %d\n", len(prot.Image), prot.LUTs, prot.Depth)

	fmt.Println("\n=== Table II: candidate counts (unprotected) ===")
	rowsU, _, err := snowbma.CountCandidates(unprot, snowbma.PaperIV)
	if err != nil {
		return err
	}
	fmt.Print(report.CandidateTable(rowsU))

	fmt.Println("\n=== attack (Sections VI-C/D, Tables III, IV, V) ===")
	rep, err := snowbma.Attack(context.Background(), unprot, snowbma.PaperIV)
	if err != nil {
		return err
	}
	fmt.Print(report.Artefacts(rep))
	fmt.Println("\nidentified covers (Fig 5 analogue, LUT1 excerpt):")
	excerpt := *rep
	if len(excerpt.LUT1) > 4 {
		excerpt.LUT1 = excerpt.LUT1[:4]
	}
	if len(excerpt.LUT2) > 2 {
		excerpt.LUT2 = excerpt.LUT2[:2]
	}
	if len(excerpt.LUT3) > 2 {
		excerpt.LUT3 = excerpt.LUT3[:2]
	}
	fmt.Print(report.Fig5(&excerpt))

	fmt.Println("\n=== Table VI: candidate counts (protected) + Section VII-B search ===")
	rowsP, _, err := snowbma.CountCandidates(prot, snowbma.PaperIV)
	if err != nil {
		return err
	}
	fmt.Print(report.CandidateTable(rowsP))
	hits, _ := snowbma.DualXORHits(prot.Device.ReadFlash(), 0, 0)
	fmt.Printf("dual-output XOR hits: %d (paper: 481); selection effort 2^%.1f (paper: 2^115)\n",
		len(hits), snowbma.SearchEffortBits(32, len(hits)-32))
	if _, err := snowbma.Attack(context.Background(), prot, snowbma.PaperIV); err != nil {
		fmt.Printf("attack on protected design fails: %v\n", err)
	} else {
		fmt.Println("UNEXPECTED: attack succeeded on the protected design")
	}

	fmt.Println("\n=== Section VII-A: timing (paper: 6.313 ns → 7.514 ns) ===")
	for _, variant := range []struct {
		name      string
		protected bool
	}{{"unprotected", false}, {"protected", true}} {
		d := hdl.Build(hdl.Config{Key: snowbma.PaperKey, Protected: variant.protected})
		opts := mapper.Options{K: 6, Boundaries: d.Boundaries}
		if variant.protected {
			opts.TrivialCuts = d.TrivialCuts
		}
		r, err := mapper.Map(d.N, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%s slowest paths:\n%s", variant.name,
			report.Timing(r.TopPaths(mapper.DefaultDelays(), 3)))
	}

	fmt.Println("\n=== Section VII-A: Lemma bound (x ≥ 16/e − 1 ≈ 4.9) ===")
	fmt.Printf("minimal decoy ratio for 2^128 at m=32: x = %d\n", snowbma.MinDecoyRatio(32, 128))
	for x := 4; x <= 6; x++ {
		fmt.Printf("  x=%d: bound 2^%.1f, exact 2^%.1f\n",
			x, snowbma.LemmaBoundBits(32, 32*x), snowbma.SearchEffortBits(32, 32*x))
	}
	fmt.Println("\nall artefacts regenerated; see EXPERIMENTS.md for the paper comparison")
	fmt.Print(reproEngineHeader)
	fmt.Print(report.Engine(rep, nil))
	return nil
}
