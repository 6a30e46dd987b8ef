// Keyindependent demonstrates the paper's Section VI-D technique: by
// additionally forcing the LFSR to load the all-0 vector (fault β), the
// faulty keystream becomes independent of the key, which collapses the
// 3^32 search for the XOR input pairs into two keystream computations.
// The example shows (1) the key-independent keystream equals the paper's
// Table III for *any* key, and (2) the cost comparison.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"snowbma"
)

// tableIII is the key-independent keystream printed in the paper.
var tableIII = []uint32{
	0xa1fb4788, 0xe4382f8e, 0x3b72471c, 0x33ebb59a,
	0x32ac43c7, 0x5eebfd82, 0x3a325fd4, 0x1e1d7001,
	0xb7f15767, 0x3282c5b0, 0x103da78f, 0xe42761e4,
	0xc6ded1bb, 0x089fa36c, 0x01c7c690, 0xbf921256,
}

func main() {
	fmt.Println("== key-independent keystream (software model) ==")
	keys := []snowbma.Key{
		snowbma.PaperKey,
		{0, 0, 0, 0},
		{0xDEADBEEF, 0xCAFEF00D, 0x01234567, 0x89ABCDEF},
	}
	for _, k := range keys {
		z := snowbma.FaultyKeystream(k, snowbma.PaperIV, true, false, true, 16)
		same := true
		for i := range z {
			if z[i] != tableIII[i] {
				same = false
			}
		}
		fmt.Printf("key %08x...: matches paper Table III: %v\n", k[0], same)
	}

	fmt.Println("\n== the same keystream observed on the faulted device ==")
	victim, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: snowbma.PaperKey})
	if err != nil {
		log.Fatal(err)
	}
	report, err := snowbma.Attack(context.Background(), victim, snowbma.PaperIV)
	if err != nil {
		log.Fatal(err)
	}
	for i, w := range report.KeyIndependent {
		marker := "  "
		if w == tableIII[i] {
			marker = "=="
		}
		fmt.Printf("z%-2d device %08x %s paper %08x\n", i+1, w, marker, tableIII[i])
	}

	fmt.Println("\n== why it matters ==")
	brute := 32 * math.Log2(3) // 3^32 combinations of XOR input pairs
	fmt.Printf("without key independence: identify the v inputs of 32 LUTs by\n")
	fmt.Printf("  exhaustive search over 3^32 ≈ 2^%.1f combinations\n", brute)
	fmt.Printf("with key independence:    2 keystream computations\n")
	fmt.Printf("this attack used %d bitstream loads in total\n", report.Loads)
}
