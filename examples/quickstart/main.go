// Quickstart: synthesize an unprotected SNOW 3G FPGA implementation with
// a secret key baked into the bitstream, then recover the key purely by
// modifying bitstream bytes and watching the keystream — the paper's
// headline result.
package main

import (
	"context"
	"fmt"
	"log"

	"snowbma"
)

func main() {
	// The victim's secret: in the attack model this key lives only
	// inside the bitstream (here: the ETSI test key the paper recovers).
	secret := snowbma.PaperKey

	fmt.Println("== synthesizing victim ==")
	victim, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: secret})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bitstream: %d bytes, %d LUTs, critical path %.3f ns (%s)\n\n",
		len(victim.Image), victim.LUTs, victim.CriticalPathNs, victim.CriticalEndpoint)

	// Sanity: the device encrypts like the reference software model.
	iv := snowbma.PaperIV
	hw := victim.Keystream(iv, 4)
	sw := snowbma.Keystream(secret, iv, 4)
	fmt.Println("== device vs software model (healthy) ==")
	for i := range hw {
		fmt.Printf("z%d  device %08x  model %08x\n", i+1, hw[i], sw[i])
	}

	fmt.Println("\n== running the bitstream modification attack ==")
	report, err := snowbma.Attack(context.Background(), victim, iv, snowbma.WithLogf(func(f string, a ...any) {
		fmt.Printf("  %s\n", fmt.Sprintf(f, a...))
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecovered key: %08x %08x %08x %08x\n",
		report.Key[0], report.Key[1], report.Key[2], report.Key[3])
	fmt.Printf("matches the secret: %v (verified against clean keystream: %v)\n",
		report.Key == secret, report.Verified)
	fmt.Printf("total bitstream loads used: %d\n", report.Loads)
}
