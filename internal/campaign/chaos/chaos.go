// Package chaos injects deterministic, seeded faults into the attack's
// view of the victim device. Real bitstream patching pipelines fail in
// messy ways — corrupted frames, partial readback, integrity-check
// aborts, wedged configuration ports — and the campaign engine uses
// these injectors to prove that every such failure surfaces as a typed,
// observable error instead of a wrong key or a panic.
//
// The taxonomy (one injector per Fault value):
//
//	bitflip       every image written to the configuration port has a
//	              few bits flipped inside live (nonzero) bytes, modeling
//	              frame corruption on the way to the device. Surfaces as
//	              a verification failure in the attack (candidate counts
//	              or keystream checks go wrong) or a parse error.
//	truncate      the flash probe returns a truncated image, modeling
//	              partial readback. Surfaces while the attacker prepares
//	              the working copy (CRC-disable or envelope parse fails)
//	              or when the truncated image is loaded.
//	corrupt-auth  the stored integrity check is corrupted: the CRC word
//	              of a plain image, the sealed envelope tail (ciphertext
//	              covering the HMAC) of an encrypted one. The attacker's
//	              own working copy tolerates this (the CRC is zeroed, a
//	              bad MAC is deliberately ignored — the attacker wants
//	              the plaintext either way), so the fault surfaces when
//	              the *device* re-checks the stored image: the restore
//	              epilogue aborts with INIT_B low (plain) or a BOOTSTS
//	              HMAC failure (encrypted).
//	stall         the configuration port wedges after a seeded number of
//	              loads; every later Load returns ErrStalled. Surfaces
//	              mid-attack in whichever phase hits the stall.
//
// Injection is fully deterministic: a Device seeded identically replays
// the identical fault sequence, which is what makes chaos campaigns
// reproducible byte for byte.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"snowbma/internal/bitstream"
)

// Fault names one injector of the chaos taxonomy.
type Fault string

const (
	// None disables injection; Wrap returns a transparent pass-through.
	None Fault = ""
	// BitFlip corrupts frames on the way to the configuration port.
	BitFlip Fault = "bitflip"
	// Truncate models partial readback of the configuration flash.
	Truncate Fault = "truncate"
	// CorruptAuth corrupts the stored CRC word / sealed envelope tail.
	CorruptAuth Fault = "corrupt-auth"
	// Stall wedges the configuration port after a seeded load count.
	Stall Fault = "stall"
)

// Faults enumerates the injectable faults (excluding None), in the
// order campaign scenario generation draws from.
func Faults() []Fault { return []Fault{BitFlip, Truncate, CorruptAuth, Stall} }

var (
	// ErrStalled is returned by Load once the configuration port has
	// wedged. The attack observes it as a failed reconfiguration.
	ErrStalled = errors.New("chaos: configuration port stalled")
	// ErrUnknownFault is returned by Wrap for a fault name outside the
	// taxonomy.
	ErrUnknownFault = errors.New("chaos: unknown fault")
)

// Victim is the device surface the injector wraps — the same contract as
// core.Victim, restated here so the chaos layer depends only on the
// device protocol, not on the attack engine.
type Victim interface {
	Load([]byte) error
	SetInput(name string, v bool)
	Clock()
	Read(name string) bool
	ReadFlash() []byte
	SideChannelKey() [bitstream.KeySize]byte
}

// Device wraps a victim with one seeded fault injector. It deliberately
// does not implement the batch-loader fast path, so a faulted attack
// runs every candidate through the scalar Load path — exactly where the
// injectors sit.
type Device struct {
	v          Victim
	fault      Fault
	rng        *rand.Rand
	flips      int
	stallAfter int
	loads      int
}

// Wrap builds a fault-injecting view of v. The seed fixes the whole
// fault sequence (flip positions, truncation lengths, stall point).
func Wrap(v Victim, fault Fault, seed int64) (*Device, error) {
	d := &Device{v: v, fault: fault, rng: rand.New(rand.NewSource(seed))}
	switch fault {
	case None, BitFlip, Truncate, CorruptAuth, Stall:
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownFault, fault)
	}
	// Parameters are drawn up front so the per-call draws stay aligned
	// with the seed regardless of fault kind.
	d.flips = 4 + d.rng.Intn(8)
	d.stallAfter = 2 + d.rng.Intn(24)
	return d, nil
}

// Loads reports how many configuration attempts reached the port,
// including ones refused by a stall.
func (d *Device) Loads() int { return d.loads }

// Load forwards img to the victim, first applying the bitflip or stall
// injector. The caller's slice is never mutated.
func (d *Device) Load(img []byte) error {
	d.loads++
	switch d.fault {
	case BitFlip:
		img = d.flip(img)
	case Stall:
		if d.loads > d.stallAfter {
			return fmt.Errorf("%w after %d loads", ErrStalled, d.stallAfter)
		}
	}
	return d.v.Load(img)
}

// flip copies img and flips a few bits inside nonzero bytes. Padding
// frames are all-zero, so restricting flips to live bytes keeps the
// fault observable instead of landing in fabric nobody reads.
func (d *Device) flip(img []byte) []byte {
	out := append([]byte(nil), img...)
	live := make([]int, 0, len(out))
	for i, b := range out {
		if b != 0 {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return out
	}
	for k := 0; k < d.flips; k++ {
		i := live[d.rng.Intn(len(live))]
		out[i] ^= 1 << uint(d.rng.Intn(8))
	}
	return out
}

// ReadFlash returns the stored image through the truncate or
// corrupt-auth injector.
func (d *Device) ReadFlash() []byte {
	img := d.v.ReadFlash()
	switch d.fault {
	case Truncate:
		if len(img) > 1 {
			// Keep between 10% and 90% of the image.
			keep := len(img)/10 + d.rng.Intn(len(img)*8/10)
			if keep < 1 {
				keep = 1
			}
			img = img[:keep]
		}
	case CorruptAuth:
		// Corrupt a private copy: the victim's own flash must stay
		// intact whether or not its ReadFlash hands out copies.
		img = append([]byte(nil), img...)
		d.corruptAuth(img)
	}
	return img
}

// corruptAuth flips one bit of the integrity data in img (the wrapper's
// own copy): the CRC value word of a plain image, or the envelope tail —
// ciphertext covering the embedded HMAC — of an encrypted one.
func (d *Device) corruptAuth(img []byte) {
	if len(img) == 0 {
		return
	}
	if bitstream.IsEncrypted(img) {
		lo := len(img) - 32
		if lo < 0 {
			lo = 0
		}
		img[lo+d.rng.Intn(len(img)-lo)] ^= 1 << uint(d.rng.Intn(8))
		return
	}
	// CRCOffset points at the "write CRC" header word; the stored CRC
	// value is the word after it. Corrupting the header would merely
	// knock out the CRC write — the same thing the attacker does on
	// purpose — so the value word is the one that must be hit for the
	// device's check to fire.
	if p, err := bitstream.ParsePackets(img); err == nil && p.CRCOffset >= 0 && p.CRCOffset+8 <= len(img) {
		img[p.CRCOffset+4+d.rng.Intn(4)] ^= 1 << uint(d.rng.Intn(8))
		return
	}
	img[len(img)-1] ^= 1 << uint(d.rng.Intn(8))
}

// SetInput forwards to the victim.
func (d *Device) SetInput(name string, v bool) { d.v.SetInput(name, v) }

// Clock forwards to the victim.
func (d *Device) Clock() { d.v.Clock() }

// Read forwards to the victim.
func (d *Device) Read(name string) bool { return d.v.Read(name) }

// SideChannelKey forwards to the victim: the side-channel oracle is
// outside the configuration pipeline the chaos engine perturbs.
func (d *Device) SideChannelKey() [bitstream.KeySize]byte { return d.v.SideChannelKey() }
