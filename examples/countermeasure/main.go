// Countermeasure evaluates the paper's Section VII defence: the target
// XOR word and five decoy XOR words are forced to trivial cuts during
// technology mapping, so each becomes an indistinguishable 2-input XOR
// LUT. The example regenerates the Table VI measurement, the dual-output
// XOR search, the complexity analysis, and the timing cost.
package main

import (
	"context"
	"fmt"
	"log"

	"snowbma"
)

func main() {
	fmt.Println("== synthesizing protected and unprotected victims ==")
	unprot, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: snowbma.PaperKey})
	if err != nil {
		log.Fatal(err)
	}
	prot, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: snowbma.PaperKey, Protected: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unprotected: %4d LUTs, depth %d, critical path %.3f ns (%s)\n",
		unprot.LUTs, unprot.Depth, unprot.CriticalPathNs, unprot.CriticalEndpoint)
	fmt.Printf("protected:   %4d LUTs, depth %d, critical path %.3f ns (%s)\n",
		prot.LUTs, prot.Depth, prot.CriticalPathNs, prot.CriticalEndpoint)
	fmt.Println("(paper: 6.313 ns unprotected → 7.514 ns protected; the feedback path becomes critical)")

	fmt.Println("\n== Table II vs Table VI: candidate counts ==")
	rowsU, _, err := snowbma.CountCandidates(unprot, snowbma.PaperIV)
	if err != nil {
		log.Fatal(err)
	}
	rowsP, _, err := snowbma.CountCandidates(prot, snowbma.PaperIV)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("function | unprotected n | protected n")
	for i := range rowsU {
		fmt.Printf("%-8s | %13d | %d\n", rowsU[i].Name, rowsU[i].Count, rowsP[i].Count)
	}

	fmt.Println("\n== Section VII-B: dual-output XOR search on the protected bitstream ==")
	flash := prot.Device.ReadFlash()
	hits, _ := snowbma.DualXORHits(flash, 0, 0)
	fmt.Printf("unconstrained search: %d candidate positions (paper: 481)\n", len(hits))
	fmt.Printf("locating the 32 real targets among them costs ≈ 2^%.1f trials (paper: 2^115)\n",
		snowbma.SearchEffortBits(32, len(hits)-32))

	fmt.Println("\n== Lemma VII-A: how many decoys are needed ==")
	fmt.Printf("minimal decoy ratio for 2^128 at m = 32: x = %d (paper: x ≥ 16/e − 1 ≈ 4.9)\n",
		snowbma.MinDecoyRatio(32, 128))
	for x := 1; x <= 6; x++ {
		fmt.Printf("  x=%d: bound 2^%6.1f, exact 2^%6.1f\n",
			x, snowbma.LemmaBoundBits(32, 32*x), snowbma.SearchEffortBits(32, 32*x))
	}

	fmt.Println("\n== attacking the protected implementation ==")
	if _, err := snowbma.Attack(context.Background(), prot, snowbma.PaperIV); err != nil {
		fmt.Printf("attack failed, as the countermeasure intends:\n  %v\n", err)
	} else {
		fmt.Println("UNEXPECTED: attack succeeded against the protected design")
	}
}
