// Encrypted walks the attack model of Section IV-A against a bitstream
// protected with the 7-series MAC-then-encrypt scheme (Fig 1): the AES
// key K_E is recovered by a (simulated) side-channel attack, decryption
// exposes the HMAC key K_A stored in plaintext inside the envelope, and
// the modified bitstream is re-authenticated and re-encrypted — so
// encryption and authentication do not stop the fault attack.
package main

import (
	"context"
	"fmt"
	"log"

	"snowbma"
)

func main() {
	secret := snowbma.Key{0x00112233, 0x44556677, 0x8899AABB, 0xCCDDEEFF}
	enc := &snowbma.EncryptionKeys{}
	for i := range enc.KE {
		enc.KE[i] = byte(0x5A ^ i)
		enc.KA[i] = byte(0xC3 + i)
	}

	fmt.Println("== synthesizing victim with encrypted + authenticated bitstream ==")
	victim, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: secret, Encrypt: enc})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flash image: %d bytes (AES-256-CBC, HMAC-SHA256, K_A stored twice inside)\n\n",
		len(victim.Image))

	iv := snowbma.IV{1, 2, 3, 4}
	fmt.Println("== running the attack through the encryption envelope ==")
	report, err := snowbma.Attack(context.Background(), victim, iv, snowbma.WithLogf(func(f string, a ...any) {
		fmt.Printf("  %s\n", fmt.Sprintf(f, a...))
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nencrypted image attacked: %v\n", report.Encrypted)
	fmt.Printf("recovered key: %08x %08x %08x %08x (correct: %v, verified: %v)\n",
		report.Key[0], report.Key[1], report.Key[2], report.Key[3],
		report.Key == secret, report.Verified)
	fmt.Printf("every faulty load was re-sealed with the recovered K_A; %d loads total\n", report.Loads)
}
