package device

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
)

// batchFixture decodes the structural pieces of a base image that the
// batch tests need to craft candidate patches.
type batchFixture struct {
	img     []byte // CRC disabled so modified variants load scalar
	parsed  *bitstream.Parsed
	regions *bitstream.Regions
	desc    *bitstream.Description
}

func newBatchFixture(t testing.TB) *batchFixture {
	t.Helper()
	img, _, _ := buildImage(t, false)
	if err := bitstream.DisableCRC(img); err != nil {
		t.Fatal(err)
	}
	p, err := bitstream.ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	fdri := p.FDRI(img)
	regions, err := bitstream.ParseRegions(fdri)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := bitstream.UnmarshalDescription(fdri[regions.DescOff : regions.DescOff+regions.DescLen])
	if err != nil {
		t.Fatal(err)
	}
	return &batchFixture{img: img, parsed: p, regions: regions, desc: desc}
}

// withLUT returns a copy of img with LUT lut's truth table replaced.
func (fx *batchFixture) withLUT(t testing.TB, img []byte, lut int, tt boolfn.TT) []byte {
	t.Helper()
	mod := append([]byte(nil), img...)
	fdri := fx.parsed.FDRI(mod)
	clb := fdri[fx.regions.CLBOff : fx.regions.CLBOff+fx.regions.CLBLen]
	if err := bitstream.WriteLUT(clb, fx.desc.LUTs[lut].Loc, tt); err != nil {
		t.Fatal(err)
	}
	return mod
}

// withBRAMWord returns a copy of img with one BRAM content word
// replaced.
func (fx *batchFixture) withBRAMWord(img []byte, bram, entry int, w uint64) []byte {
	mod := append([]byte(nil), img...)
	off := fx.regions.BRAMOff + fx.desc.BRAMs[bram].ContentOff + 8*entry
	binary.BigEndian.PutUint64(fx.parsed.FDRI(mod)[off:], w)
	return mod
}

// randomLUT and randomBRAMWord rewrite one LUT or one BRAM word of img,
// drawn from rng.
func (fx *batchFixture) randomLUT(t testing.TB, img []byte, rng *rand.Rand) []byte {
	return fx.withLUT(t, img, rng.Intn(len(fx.desc.LUTs)), boolfn.TT(rng.Uint64()))
}

func (fx *batchFixture) randomBRAMWord(img []byte, rng *rand.Rand) []byte {
	bram := rng.Intn(len(fx.desc.BRAMs))
	return fx.withBRAMWord(img, bram, rng.Intn(1<<len(fx.desc.BRAMs[bram].Addr)), rng.Uint64())
}

func (fx *batchFixture) diff(t testing.TB, mod []byte) bitstream.PatchSet {
	t.Helper()
	ps, err := fx.parsed.DiffFrames(fx.img, mod)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestBatchMatchesScalarLanes: fabric harness rows mixing clean lanes,
// one LUT, one BRAM word and two LUTs in (likely) different frames, at
// full and partial widths.
func TestBatchMatchesScalarLanes(t *testing.T) {
	fx := newBatchFixture(t)
	rng := rand.New(rand.NewSource(99))
	var cases []*fabricCase
	for _, lanes := range []int{1, 5, 37, MaxLanes} {
		images := make([][]byte, lanes)
		for L := range images {
			switch L % 4 {
			case 0: // clean lane
				images[L] = fx.img
			case 1: // one LUT modified
				images[L] = fx.randomLUT(t, fx.img, rng)
			case 2: // one BRAM word modified
				images[L] = fx.randomBRAMWord(fx.img, rng)
			default: // two LUTs in (likely) different frames
				images[L] = fx.randomLUT(t, fx.randomLUT(t, fx.img, rng), rng)
			}
		}
		cases = append(cases, fx.imageCase(t, fmt.Sprintf("lanes=%d", lanes), images, testIV, 6))
	}
	runFabric(t, cases...)
}

// TestBatchEncryptedBase: a fabric harness row over a sealed base. The
// batch evaluator is the attacker's model of the victim, so it is not
// bound by the PartialReconfig security fuse; each scalar lane loads
// its own sealed image.
func TestBatchEncryptedBase(t *testing.T) {
	fx := newBatchFixture(t)
	var kE, kA [bitstream.KeySize]byte
	for i := range kE {
		kE[i] = byte(i + 1)
		kA[i] = byte(i + 101)
	}
	seal := func(img []byte) []byte {
		sealed, err := bitstream.Seal(img, kE, kA, [16]byte{})
		if err != nil {
			t.Fatal(err)
		}
		return sealed
	}
	modImg := fx.withLUT(t, fx.img, 17%len(fx.desc.LUTs), boolfn.TT(0xDEADBEEFCAFEF00D))
	runFabric(t, &fabricCase{
		name:    "sealed base",
		kE:      kE,
		base:    seal(fx.img),
		patches: []bitstream.PatchSet{nil, fx.diff(t, modImg)},
		images:  [][]byte{seal(fx.img), seal(modImg)},
		iv:      testIV,
		words:   4,
	})
}

func TestLoadPatchedValidation(t *testing.T) {
	fx := newBatchFixture(t)
	f := New([bitstream.KeySize]byte{})
	if _, err := f.LoadPatched(fx.img, nil); err == nil {
		t.Fatal("zero lanes accepted")
	}
	if _, err := f.LoadPatched(fx.img, make([]bitstream.PatchSet, MaxLanes+1)); err == nil {
		t.Fatalf("%d lanes accepted", MaxLanes+1)
	}
	frame := make([]byte, bitstream.FrameBytes)
	bad := []struct {
		name string
		ps   bitstream.PatchSet
	}{
		{"short frame data", bitstream.PatchSet{{Frame: 1, Data: frame[:10]}}},
		{"negative frame", bitstream.PatchSet{{Frame: -1, Data: frame}}},
		{"frame out of range", bitstream.PatchSet{{Frame: 1 << 20, Data: frame}}},
		{"header frame", bitstream.PatchSet{{Frame: 0, Data: frame}}},
		{"description frame", bitstream.PatchSet{{Frame: fx.regions.DescOff / bitstream.FrameBytes, Data: frame}}},
	}
	for _, tc := range bad {
		if _, err := f.LoadPatched(fx.img, []bitstream.PatchSet{tc.ps}); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	// A failed LoadPatched must not leave a half-built batch usable; the
	// scalar device itself stays configured (the base loaded fine).
	if !f.Loaded() {
		t.Fatal("base configuration lost after rejected patch set")
	}
}

// TestPartialReconfigReadbackRoundtripUnderPatchedLanes: a lane patch
// applied through PartialReconfig must read back as exactly the patched
// frame bytes. (That it steers the live device to the batch lane's
// keystream is the fabric harness's "reconfigured" value, on every row.)
func TestPartialReconfigReadbackRoundtripUnderPatchedLanes(t *testing.T) {
	fx := newBatchFixture(t)
	lut := 3 % len(fx.desc.LUTs)
	modImg := fx.withLUT(t, fx.img, lut, boolfn.TT(0x5A5A_F0F0_3C3C_9696))
	ps := fx.diff(t, modImg)
	if len(ps) == 0 {
		t.Fatal("LUT patch produced no frame diff")
	}

	f := New([bitstream.KeySize]byte{})
	if err := f.Program(fx.img); err != nil {
		t.Fatal(err)
	}
	base, err := f.Readback()
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range ps {
		if err := f.PartialReconfig(fp.Frame, fp.Data); err != nil {
			t.Fatal(err)
		}
	}
	rb, err := f.Readback()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), base...)
	for _, fp := range ps {
		copy(want[fp.Frame*bitstream.FrameBytes:], fp.Data)
	}
	if !bytes.Equal(rb, want) {
		t.Fatal("readback does not round-trip the patched frames")
	}
}
