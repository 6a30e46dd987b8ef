// Defense is the designer-side playbook: protect a SNOW 3G design with
// the automatically planned Section VII-A countermeasure, then audit the
// result with the attacker's own tooling — candidate counts (Table VI),
// the census shortlist, the dual-output XOR search — and quantify both
// the security margin (Lemma VII-A) and the cost (LUTs, critical path).
package main

import (
	"context"
	"fmt"
	"log"

	"snowbma"
)

func main() {
	key := snowbma.PaperKey

	fmt.Println("== baseline: unprotected implementation ==")
	base, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: key})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d LUTs, critical path %.3f ns\n", base.LUTs, base.CriticalPathNs)
	if rep, err := snowbma.Attack(context.Background(), base, snowbma.PaperIV); err == nil {
		fmt.Printf("audit: ATTACK SUCCEEDS in %d loads — key %08x... exposed\n",
			rep.Loads, rep.Key[0])
	}

	fmt.Println("\n== hardening: auto-planned countermeasure for 2^128 ==")
	hard, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: key, AutoProtectBits: 128})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d LUTs (+%d), critical path %.3f ns (%+.3f ns)\n",
		hard.LUTs, hard.LUTs-base.LUTs, hard.CriticalPathNs,
		hard.CriticalPathNs-base.CriticalPathNs)

	fmt.Println("\n== auditing the hardened bitstream with attacker tooling ==")
	rows, _, err := snowbma.CountCandidates(hard, snowbma.PaperIV)
	if err != nil {
		log.Fatal(err)
	}
	feedbackHits := 0
	for _, r := range rows {
		if r.Path == "s15" {
			feedbackHits += r.Count
		}
	}
	fmt.Printf("Table-II-style feedback candidates: %d (unprotected design: 32 true targets)\n",
		feedbackHits)
	hits, _ := snowbma.DualXORHits(hard.Device.ReadFlash(), 0, 0)
	fmt.Printf("dual-output XOR population: %d; locating 32 targets costs 2^%.1f\n",
		len(hits), snowbma.SearchEffortBits(32, len(hits)-32))

	fmt.Println("\n== the attack against the hardened device ==")
	if _, err := snowbma.Attack(context.Background(), hard, snowbma.PaperIV); err != nil {
		fmt.Printf("attack fails: %v\n", err)
	} else {
		fmt.Println("UNEXPECTED: attack still succeeds")
	}
	fmt.Println("\nfunctionality check:", keystreamsEqual(
		hard.Keystream(snowbma.PaperIV, 4),
		snowbma.Keystream(key, snowbma.PaperIV, 4)))
}

func keystreamsEqual(a, b []uint32) string {
	for i := range a {
		if a[i] != b[i] {
			return "FAILED — hardening changed the cipher"
		}
	}
	return "hardened device still produces the correct keystream"
}
