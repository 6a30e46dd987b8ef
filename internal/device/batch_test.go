package device

import (
	"bytes"
	"math/rand"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/hdl"
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

// withLUT returns a variant image with LUT lut's truth table replaced.
func (fx *batchFixture) withLUT(t testing.TB, lut int, tt boolfn.TT) []byte {
	t.Helper()
	mod := append([]byte(nil), fx.img...)
	fdri := fx.parsed.FDRI(mod)
	clb := fdri[fx.regions.CLBOff : fx.regions.CLBOff+fx.regions.CLBLen]
	if err := bitstream.WriteLUT(clb, fx.desc.LUTs[lut].Loc, tt); err != nil {
		t.Fatal(err)
	}
	return mod
}

// withBRAMWord returns a variant image with one BRAM content word
// replaced.
func (fx *batchFixture) withBRAMWord(t testing.TB, bram, entry int, w uint64) []byte {
	t.Helper()
	mod := append([]byte(nil), fx.img...)
	fdri := fx.parsed.FDRI(mod)
	off := fx.regions.BRAMOff + fx.desc.BRAMs[bram].ContentOff + 8*entry
	for k := 7; k >= 0; k-- {
		fdri[off+k] = byte(w)
		w >>= 8
	}
	return mod
}

func (fx *batchFixture) diff(t testing.TB, mod []byte) bitstream.PatchSet {
	t.Helper()
	ps, err := fx.parsed.DiffFrames(fx.img, mod)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// scalarKeystream loads an image into a fresh scalar device and runs the
// keystream protocol — the reference the batch lanes must match.
func scalarKeystream(t testing.TB, img []byte, n int) []uint32 {
	t.Helper()
	f := New([bitstream.KeySize]byte{})
	if err := f.Load(img); err != nil {
		t.Fatal(err)
	}
	return hdl.GenerateKeystream(f, testIV, n)
}

// TestBatchMatchesScalarLanes pins the tentpole property: every lane of
// a patched batch produces the exact keystream a scalar device loaded
// with that lane's full image would — at full and partial widths — with
// LUT patches, BRAM patches, multi-frame patches and clean lanes mixed.
func TestBatchMatchesScalarLanes(t *testing.T) {
	fx := newBatchFixture(t)
	rng := rand.New(rand.NewSource(99))
	const n = 6
	for _, lanes := range []int{1, 5, 37, MaxLanes} {
		patches := make([]bitstream.PatchSet, lanes)
		images := make([][]byte, lanes)
		for L := 0; L < lanes; L++ {
			switch L % 4 {
			case 0: // clean lane
				images[L] = fx.img
			case 1: // one LUT modified
				lut := rng.Intn(len(fx.desc.LUTs))
				images[L] = fx.withLUT(t, lut, boolfn.TT(rng.Uint64()))
			case 2: // one BRAM word modified
				bram := rng.Intn(len(fx.desc.BRAMs))
				entry := rng.Intn(1 << len(fx.desc.BRAMs[bram].Addr))
				images[L] = fx.withBRAMWord(t, bram, entry, rng.Uint64())
			default: // two LUTs in (likely) different frames
				a := rng.Intn(len(fx.desc.LUTs))
				b := rng.Intn(len(fx.desc.LUTs))
				mod := fx.withLUT(t, a, boolfn.TT(rng.Uint64()))
				fdri := fx.parsed.FDRI(mod)
				clb := fdri[fx.regions.CLBOff : fx.regions.CLBOff+fx.regions.CLBLen]
				if err := bitstream.WriteLUT(clb, fx.desc.LUTs[b].Loc, boolfn.TT(rng.Uint64())); err != nil {
					t.Fatal(err)
				}
				images[L] = mod
			}
			patches[L] = fx.diff(t, images[L])
		}
		f := New([bitstream.KeySize]byte{})
		batch, err := f.LoadPatched(fx.img, patches)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Lanes() != lanes {
			t.Fatalf("Lanes() = %d, want %d", batch.Lanes(), lanes)
		}
		got := hdl.GenerateKeystreamBatch(batch, testIV, n)
		for L := 0; L < lanes; L++ {
			want := scalarKeystream(t, images[L], n)
			for i := range want {
				if got[L][i] != want[i] {
					t.Fatalf("lanes=%d lane %d word %d: batch %08x != scalar %08x",
						lanes, L, i, got[L][i], want[i])
				}
			}
		}
	}
}

// TestBatchEncryptedBase verifies the batch evaluator accepts an
// encrypted base image (the attacker's simulator models the victim, so
// it is not bound by the PartialReconfig security fuse).
func TestBatchEncryptedBase(t *testing.T) {
	fx := newBatchFixture(t)
	var kE, kA [bitstream.KeySize]byte
	for i := range kE {
		kE[i] = byte(i + 1)
		kA[i] = byte(i + 101)
	}
	var cbcIV [16]byte
	sealed, err := bitstream.Seal(fx.img, kE, kA, cbcIV)
	if err != nil {
		t.Fatal(err)
	}
	lut := 17 % len(fx.desc.LUTs)
	modImg := fx.withLUT(t, lut, boolfn.TT(0xDEADBEEFCAFEF00D))
	f := New(kE)
	batch, err := f.LoadPatched(sealed, []bitstream.PatchSet{nil, fx.diff(t, modImg)})
	if err != nil {
		t.Fatal(err)
	}
	got := hdl.GenerateKeystreamBatch(batch, testIV, 4)
	if want := scalarKeystream(t, fx.img, 4); !equalWords(got[0], want) {
		t.Fatalf("clean lane diverges under encrypted base: %08x != %08x", got[0], want)
	}
	fm := New(kE)
	sealedMod, err := bitstream.Seal(modImg, kE, kA, cbcIV)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.Load(sealedMod); err != nil {
		t.Fatal(err)
	}
	if want := hdl.GenerateKeystream(fm, testIV, 4); !equalWords(got[1], want) {
		t.Fatalf("patched lane diverges under encrypted base: %08x != %08x", got[1], want)
	}
}

func equalWords(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// TestPartialReconfigReadbackRoundtripUnderPatchedLanes closes the loop
// between the three reconfiguration paths: a lane patch applied through
// PartialReconfig must (a) read back as exactly the patched frame bytes
// and (b) steer the live device to the same keystream the batch lane
// computes.
func TestPartialReconfigReadbackRoundtripUnderPatchedLanes(t *testing.T) {
	fx := newBatchFixture(t)
	lut := 3 % len(fx.desc.LUTs)
	modImg := fx.withLUT(t, lut, boolfn.TT(0x5A5A_F0F0_3C3C_9696))
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

	live := hdl.GenerateKeystream(f, testIV, 5)
	fb := New([bitstream.KeySize]byte{})
	batch, err := fb.LoadPatched(fx.img, []bitstream.PatchSet{ps})
	if err != nil {
		t.Fatal(err)
	}
	if got := hdl.GenerateKeystreamBatch(batch, testIV, 5); !equalWords(got[0], live) {
		t.Fatalf("batch lane %08x != partially reconfigured device %08x", got[0], live)
	}
}
