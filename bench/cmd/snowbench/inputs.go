package main

import (
	"math/rand"

	"snowbma"
	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/device"
	"snowbma/internal/hdl"
	"snowbma/internal/mapper"
	"snowbma/internal/victim"
)

// targetExpr is the function every findlut op searches for: the z_t
// path W-XOR LUT, the CLI's and the census's default target.
const targetExpr = "(a1^a2^a3)a4a5!a6"

// wantLoads is the modeled bitstream-load cost of the standard attack on
// the default placement, whatever the key.
const wantLoads = 47

// victimInput is one member of a workload's hot set: the key baked into
// the victim and the IV the attack drives.
type victimInput struct {
	Key snowbma.Key
	IV  snowbma.IV
}

// hotSet derives n victims from the seed. The first is always the
// paper's key and IV (Table V); the rest are seeded keys on the default
// placement, so the attack's work is the same shape for every member.
func hotSet(seed int64, n int) []victimInput {
	rng := rand.New(rand.NewSource(seed))
	out := []victimInput{{Key: snowbma.PaperKey, IV: snowbma.PaperIV}}
	for len(out) < n {
		out = append(out, victimInput{
			Key: snowbma.Key{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()},
			IV:  snowbma.IV{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()},
		})
	}
	return out
}

// stagedBuild is victim.Build for an unencrypted config, spelled out as
// its public synthesis stages so a traced op can time each one. The
// caller checks the image against victim.Build's, so the two cannot
// drift apart unnoticed.
func stagedBuild(cfg victim.Config, stage func(name string, f func() error) error) ([]byte, *device.FPGA, error) {
	if cfg.Seed == 0 {
		cfg.Seed = victim.DefaultSeed
	}
	var d *hdl.Design
	if err := stage("hdl.build", func() error {
		d = hdl.Build(hdl.Config{Key: cfg.Key, Protected: cfg.Protected})
		return nil
	}); err != nil {
		return nil, nil, err
	}
	opts := mapper.Options{K: 6, Boundaries: d.Boundaries}
	pol := mapper.PackPolicy{}
	if cfg.Protected {
		opts.TrivialCuts = d.TrivialCuts
		pol = mapper.PackPolicy{Prefer: d.TrivialCuts, PairWithOthers: true}
	}
	var r *mapper.Result
	if err := stage("mapper.map", func() (err error) {
		r, err = mapper.Map(d.N, opts)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var phys []mapper.PhysLUT
	if err := stage("mapper.pack", func() error {
		phys = mapper.Pack(r, pol)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var img []byte
	if err := stage("bitstream.assemble", func() (err error) {
		img, err = bitstream.Assemble(d.N, phys, bitstream.AssembleOptions{Seed: cfg.Seed, PadFrames: cfg.PadFrames})
		return err
	}); err != nil {
		return nil, nil, err
	}
	// victim.Build derives the timing report for the victim's metadata;
	// the staged build pays for it too, so both do the same work.
	if err := stage("mapper.timing", func() error {
		_ = r.Timing(mapper.DefaultDelays())
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var dev *device.FPGA
	if err := stage("device.program", func() error {
		dev = device.New([bitstream.KeySize]byte{})
		return dev.Program(img)
	}); err != nil {
		return nil, nil, err
	}
	return img, dev, nil
}

// findOracle is the benchmark's reference FINDLUT: every byte index where
// some input permutation of f, laid out in either 7-series sub-vector
// order, appears as four 2-byte sub-vectors SubVectorOffset bytes apart.
// It shares no code with the program's scanner beyond the ξ encoding,
// and it is fast enough to run in every set-up (the paper's Algorithm 1
// transliteration, core.FindLUTReference, takes seconds per image; a
// test pins the two to the same answer).
func findOracle(img []byte, f boolfn.TT) []int {
	const span = (bitstream.SubVectors-1)*bitstream.SubVectorOffset + bitstream.SubVectorBytes
	type pattern [bitstream.SubVectors][bitstream.SubVectorBytes]byte
	byFirst := map[[bitstream.SubVectorBytes]byte][]pattern{}
	seenTable := map[boolfn.TT]bool{}
	seenPattern := map[pattern]bool{}
	for _, perm := range boolfn.Permutations(boolfn.MaxVars) {
		t := f.Permute(perm)
		if seenTable[t] {
			continue
		}
		seenTable[t] = true
		for _, order := range []bitstream.SliceType{bitstream.SliceL, bitstream.SliceM} {
			p := pattern(bitstream.EncodeLUT(t, order))
			if !seenPattern[p] {
				seenPattern[p] = true
				byFirst[p[0]] = append(byFirst[p[0]], p)
			}
		}
	}
	var out []int
	for l := 0; l+span <= len(img); l++ {
	next:
		for _, p := range byFirst[[bitstream.SubVectorBytes]byte(img[l:l+bitstream.SubVectorBytes])] {
			for q := 1; q < bitstream.SubVectors; q++ {
				off := l + q*bitstream.SubVectorOffset
				if [bitstream.SubVectorBytes]byte(img[off:off+bitstream.SubVectorBytes]) != p[q] {
					continue next
				}
			}
			out = append(out, l)
			break
		}
	}
	return out
}
