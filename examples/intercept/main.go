// Intercept shows why the paper's attack matters operationally: SNOW 3G
// is the core of the 3GPP UEA2/128-EEA1 confidentiality algorithm, so a
// key extracted from one compromised device decrypts the traffic it
// protected. The scenario: a base-station crypto accelerator (our victim
// FPGA) encrypts frames with f8; the attacker records the ciphertext,
// later gets supply-chain access to the device, runs the bitstream
// modification attack, and decrypts the recorded traffic.
package main

import (
	"context"
	"fmt"
	"log"

	"snowbma"
)

func main() {
	// The device key, provisioned into the bitstream at the factory.
	secret := snowbma.Key{0x310354BC, 0x77FF1299, 0x8086AB0D, 0x55E23D11}
	ck := snowbma.CipherKeyToBytes(secret)

	// --- Before the attack: traffic is recorded but unreadable. ---
	frames := [][]byte{
		[]byte("subscriber 262-01-1234: location update accepted"),
		[]byte("SMS: meet at the usual place at nine"),
		[]byte("RRC: handover to cell 0x0BEE complete"),
	}
	type captured struct {
		count, bearer, dir uint32
		ct                 []byte
	}
	var wire []captured
	for i, f := range frames {
		ct := append([]byte(nil), f...)
		snowbma.UEA2Encrypt(ck, uint32(1000+i), 5, 0, ct)
		wire = append(wire, captured{uint32(1000 + i), 5, 0, ct})
	}
	fmt.Println("== recorded ciphertext frames (attacker cannot read) ==")
	for i, c := range wire {
		fmt.Printf("frame %d: %x...\n", i, c.ct[:16])
	}

	// --- Supply-chain access: the device is attacked. ---
	fmt.Println("\n== device obtained; running the bitstream modification attack ==")
	victim, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: secret})
	if err != nil {
		log.Fatal(err)
	}
	report, err := snowbma.Attack(context.Background(), victim, snowbma.IV{0xA, 0xB, 0xC, 0xD})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered key: %08x %08x %08x %08x (verified=%v, %d loads)\n",
		report.Key[0], report.Key[1], report.Key[2], report.Key[3],
		report.Verified, report.Loads)

	// --- The recorded traffic falls. ---
	fmt.Println("\n== decrypting the recorded traffic with the recovered key ==")
	ckRecovered := snowbma.CipherKeyToBytes(report.Key)
	for i, c := range wire {
		pt := append([]byte(nil), c.ct...)
		snowbma.UEA2Encrypt(ckRecovered, c.count, c.bearer, c.dir, pt)
		fmt.Printf("frame %d: %q\n", i, pt)
	}

	// Integrity protection falls with the same key material.
	msg := []byte("RRC: release connection")
	mac := snowbma.UIA2MAC(ckRecovered, 77, 0x616C7445, 1, msg)
	fmt.Printf("\nattacker can now also forge UIA2 MACs, e.g. %08x for %q\n", mac, msg)
}
