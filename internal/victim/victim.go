// Package victim is the shared victim-build pipeline: RTL generation,
// technology mapping, placement, bitstream assembly and device
// programming, behind one Config. The snowbma facade, the campaign
// engine and the service job engine all synthesize their victims here,
// so "what a victim is" is defined exactly once.
//
// The package also provides a build cache (Cache): synthesis dominates
// the cost of a victim (mapping and placement are orders of magnitude
// slower than programming a device from a finished image), and a
// long-running job service sees the same designs over and over. The
// cache stores the assembled image, its compiled configuration and the
// synthesis metadata; every hit programs a *fresh* device from the
// cached bytes without recompiling, so concurrent jobs share only
// immutable data, never mutable fabric state.
package victim

import (
	"fmt"
	"math/rand"

	"snowbma/internal/bitstream"
	"snowbma/internal/device"
	"snowbma/internal/hdl"
	"snowbma/internal/mapper"
	"snowbma/internal/snow3g"
)

// DefaultSeed is the placement seed used when Config.Seed is zero.
const DefaultSeed = 0x5B0A

// Keys are the bitstream protection keys: K_E lives in device eFuses,
// K_A is stored inside the encrypted image (Fig. 1 of the paper).
type Keys struct {
	KE [bitstream.KeySize]byte
	KA [bitstream.KeySize]byte
}

// DeriveKeys fills a deterministic protection-key pair from a seed —
// the convention scenario generators and job specs use so an encrypted
// victim is fully described by its seed.
func DeriveKeys(seed int64) Keys {
	var k Keys
	kr := rand.New(rand.NewSource(seed ^ 0x6b65797374726d)) // "keystrm"
	kr.Read(k.KE[:])
	kr.Read(k.KA[:])
	return k
}

// Config describes the FPGA implementation to synthesize. It mirrors
// the facade's VictimConfig field for field (the facade converts).
type Config struct {
	// Key is baked into the bitstream (attack model assumption 2).
	Key snow3g.Key
	// Protected applies the Section VII-A countermeasure with the
	// paper's hand-picked five decoy words.
	Protected bool
	// AutoProtectBits, when nonzero, plans the countermeasure
	// automatically to this security level instead.
	AutoProtectBits int
	// Encrypt wraps the bitstream in the AES + HMAC envelope (any
	// non-nil value enables encryption).
	Encrypt *Keys
	// PadFrames adds empty fabric frames (larger bitstream).
	PadFrames int
	// Seed drives the deterministic placement (0 picks DefaultSeed).
	Seed int64
}

// normalized returns the config with defaults applied, so two configs
// describing the same design compare (and cache) equal.
func (cfg Config) normalized() Config {
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	return cfg
}

// Fingerprint is the stable identity string of the design this config
// describes: two configs that synthesize the same victim (after
// normalization) produce the same fingerprint, and any field that
// changes the bitstream changes it. The fleet coordinator uses it as
// the shard key, so jobs for one victim always land on the worker
// whose build cache already holds that image.
func (cfg Config) Fingerprint() string {
	cfg = cfg.normalized()
	enc := byte(0)
	var kE, kA [bitstream.KeySize]byte
	if cfg.Encrypt != nil {
		enc = 1
		kE, kA = cfg.Encrypt.KE, cfg.Encrypt.KA
	}
	return fmt.Sprintf("v1|%x|%t|%d|%d|%d|%d|%x|%x",
		cfg.Key, cfg.Protected, cfg.AutoProtectBits, cfg.PadFrames, cfg.Seed, enc, kE, kA)
}

// Victim bundles the programmed device with its design metadata.
type Victim struct {
	Device *device.FPGA
	// Image is the programmed flash content (sealed when encrypted).
	Image []byte
	// LUTs is the number of logical LUTs after mapping; Depth the
	// mapped LUT depth; CriticalPathNs the modelled critical path.
	LUTs             int
	Depth            int
	CriticalPathNs   float64
	CriticalEndpoint string
}

// Build synthesizes the SNOW 3G design (RTL generation, technology
// mapping, placement, bitstream assembly) and programs a simulated FPGA
// with it.
func Build(cfg Config) (*Victim, error) {
	cfg = cfg.normalized()
	img, meta, err := synthesize(cfg)
	if err != nil {
		return nil, err
	}
	return program(cfg, img, meta, nil)
}

// meta is the synthesis metadata carried alongside a built image.
type meta struct {
	luts             int
	depth            int
	criticalPathNs   float64
	criticalEndpoint string
}

// synthesize runs the expensive half of the pipeline: design
// generation through (optionally sealed) image assembly.
func synthesize(cfg Config) ([]byte, meta, error) {
	d := hdl.Build(hdl.Config{Key: cfg.Key, Protected: cfg.Protected})
	opts := mapper.Options{K: 6, Boundaries: d.Boundaries}
	pol := mapper.PackPolicy{}
	if cfg.Protected {
		opts.TrivialCuts = d.TrivialCuts
		pol = mapper.PackPolicy{Prefer: d.TrivialCuts, PairWithOthers: true}
	}
	if cfg.AutoProtectBits > 0 {
		plan, err := mapper.PlanCountermeasure(d.N, d.V, cfg.AutoProtectBits)
		if err != nil {
			return nil, meta{}, fmt.Errorf("victim: countermeasure planning: %w", err)
		}
		opts.TrivialCuts = plan.TrivialCuts
		pol = mapper.PackPolicy{Prefer: plan.TrivialCuts, PairWithOthers: true}
	}
	r, err := mapper.Map(d.N, opts)
	if err != nil {
		return nil, meta{}, fmt.Errorf("victim: mapping: %w", err)
	}
	phys := mapper.Pack(r, pol)
	img, err := bitstream.Assemble(d.N, phys, bitstream.AssembleOptions{
		Seed: cfg.Seed, PadFrames: cfg.PadFrames,
	})
	if err != nil {
		return nil, meta{}, fmt.Errorf("victim: assembly: %w", err)
	}
	if cfg.Encrypt != nil {
		var cbcIV [16]byte
		img, err = bitstream.Seal(img, cfg.Encrypt.KE, cfg.Encrypt.KA, cbcIV)
		if err != nil {
			return nil, meta{}, fmt.Errorf("victim: sealing: %w", err)
		}
	}
	timing := r.Timing(mapper.DefaultDelays())
	return img, meta{
		luts:             len(r.LUTs),
		depth:            r.Depth,
		criticalPathNs:   timing.Delay,
		criticalEndpoint: timing.Endpoint,
	}, nil
}

// program is the cheap half: a fresh device configured from a finished
// image. device.FPGA.ProgramCompiled copies the image into flash, and a
// non-nil compiled (the image's own, from an earlier device) spares the
// decode and compile, so the same cached entry can back any number of
// concurrent victims.
func program(cfg Config, img []byte, m meta, compiled *device.Compiled) (*Victim, error) {
	var kE [bitstream.KeySize]byte
	if cfg.Encrypt != nil {
		kE = cfg.Encrypt.KE
	}
	fpga := device.New(kE)
	if err := fpga.ProgramCompiled(img, compiled); err != nil {
		return nil, fmt.Errorf("victim: programming: %w", err)
	}
	return &Victim{
		Device:           fpga,
		Image:            img,
		LUTs:             m.luts,
		Depth:            m.depth,
		CriticalPathNs:   m.criticalPathNs,
		CriticalEndpoint: m.criticalEndpoint,
	}, nil
}
