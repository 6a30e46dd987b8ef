package device

import (
	"fmt"
	"math/rand"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/hdl"
	"snowbma/internal/mapper"
	"snowbma/internal/netlist"
	"snowbma/internal/snow3g"
)

var (
	testKey = snow3g.Key{0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48}
	testIV  = snow3g.IV{0xEA024714, 0xAD5C4D84, 0xDF1F9B25, 0x1C0BF45F}
)

func buildImage(t testing.TB, protected bool) ([]byte, *hdl.Design, *mapper.Result) {
	t.Helper()
	d := hdl.Build(hdl.Config{Key: testKey, Protected: protected})
	opts := mapper.Options{K: 6, Boundaries: d.Boundaries}
	if protected {
		opts.TrivialCuts = d.TrivialCuts
	}
	r, err := mapper.Map(d.N, opts)
	if err != nil {
		t.Fatal(err)
	}
	pol := mapper.PackPolicy{}
	if protected {
		pol = mapper.PackPolicy{Prefer: d.TrivialCuts, PairWithOthers: true}
	}
	phys := mapper.Pack(r, pol)
	img, err := bitstream.Assemble(d.N, phys, bitstream.AssembleOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return img, d, r
}

// TestDeviceMatchesModel: a fabric harness row of the unmodified design.
func TestDeviceMatchesModel(t *testing.T) {
	img, _, _ := buildImage(t, false)
	runFabric(t, modelCase("unprotected", [bitstream.KeySize]byte{}, img, 8))
}

// TestProtectedDeviceMatchesModel: a fabric harness row of the design
// under the countermeasure.
func TestProtectedDeviceMatchesModel(t *testing.T) {
	img, _, _ := buildImage(t, true)
	runFabric(t, modelCase("protected", [bitstream.KeySize]byte{}, img, 4))
}

func TestDeviceRejectsCorruptedCRC(t *testing.T) {
	img, _, _ := buildImage(t, false)
	p, err := bitstream.ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	img[p.FDRIOffset+bitstream.FrameBytes+5] ^= 0x01
	f := New([bitstream.KeySize]byte{})
	if err := f.Load(img); err == nil {
		t.Fatal("device accepted bitstream with bad CRC")
	}
	// Disabling the CRC (paper Section V-B) makes the same image load.
	if err := bitstream.DisableCRC(img); err != nil {
		t.Fatal(err)
	}
	if err := f.Load(img); err != nil {
		t.Fatalf("device rejected CRC-disabled bitstream: %v", err)
	}
}

// f2LUT returns img's frame region, its layout and the location of the
// first f2-class LUT of the mapping r, which drives a z-path register.
func f2LUT(t *testing.T, img []byte, r *mapper.Result) ([]byte, *bitstream.Regions, bitstream.Loc) {
	t.Helper()
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
	for _, lut := range r.LUTs {
		if boolfn.PClassCanon(lut.Fn) == boolfn.PClassCanon(boolfn.F2) {
			for _, rec := range desc.LUTs {
				if rec.O6 == uint32(lut.Root) {
					return fdri, regions, rec.Loc
				}
			}
			break
		}
	}
	t.Fatal("no f2-class LUT found in image")
	return nil, nil, bitstream.Loc{}
}

func TestLUTModificationChangesBehaviour(t *testing.T) {
	// Zero one z-path LUT directly via its known location (white-box
	// test; the attack does the same through FINDLUT): that keystream
	// bit must go dead.
	img, _, r := buildImage(t, false)
	fdri, regions, loc := f2LUT(t, img, r)
	clb := fdri[regions.CLBOff : regions.CLBOff+regions.CLBLen]
	if err := bitstream.WriteLUT(clb, loc, boolfn.Const0); err != nil {
		t.Fatal(err)
	}
	if err := bitstream.RecomputeCRC(img); err != nil {
		t.Fatal(err)
	}
	f := New([bitstream.KeySize]byte{})
	if err := f.Load(img); err != nil {
		t.Fatal(err)
	}
	faulty := hdl.GenerateKeystream(f, testIV, 8)
	ref := snow3g.New(snow3g.Fault{})
	ref.Init(testKey, testIV)
	clean := ref.KeystreamWords(8)
	// Exactly one bit position must be stuck at zero and differ from the
	// clean keystream somewhere.
	var changedBits uint32
	for i := range clean {
		changedBits |= clean[i] ^ faulty[i]
	}
	if changedBits == 0 {
		t.Fatal("LUT modification had no effect on keystream")
	}
	// The faulty bit column reads 0 in every word.
	var alwaysZero uint32 = 0xFFFFFFFF
	for _, w := range faulty {
		alwaysZero &= ^w
	}
	if alwaysZero&changedBits == 0 {
		t.Fatal("modified z LUT did not produce a stuck-at-0 column")
	}
}

func TestEncryptedLoadPath(t *testing.T) {
	img, _, _ := buildImage(t, false)
	var kE, kA [bitstream.KeySize]byte
	for i := range kE {
		kE[i], kA[i] = byte(i*3), byte(i*5+1)
	}
	var iv [16]byte
	enc, err := bitstream.Seal(img, kE, kA, iv)
	if err != nil {
		t.Fatal(err)
	}
	runFabric(t, modelCase("sealed", kE, enc, 2))
	right := New(kE)
	if err := right.Program(enc); err != nil {
		t.Fatalf("device with correct eFuse key rejected encrypted image: %v", err)
	}
	wrong := New([bitstream.KeySize]byte{9})
	if err := wrong.Load(enc); err == nil {
		t.Fatal("device with wrong eFuse key accepted encrypted image")
	}
	// Bit flip inside ciphertext: HMAC must reject.
	enc[40] ^= 4
	if err := right.Load(enc); err == nil {
		t.Fatal("device accepted tampered encrypted image")
	}
}

func TestReadFlashReturnsProgrammedImage(t *testing.T) {
	img, _, _ := buildImage(t, false)
	f := New([bitstream.KeySize]byte{})
	if err := f.Program(img); err != nil {
		t.Fatal(err)
	}
	probe := f.ReadFlash()
	if len(probe) != len(img) {
		t.Fatal("flash probe length mismatch")
	}
	for i := range img {
		if probe[i] != img[i] {
			t.Fatal("flash probe differs from programmed image")
		}
	}
	// The probe is a copy: mutating it must not affect the device.
	probe[0] ^= 0xFF
	if f.ReadFlash()[0] == probe[0] {
		t.Fatal("ReadFlash aliases internal flash")
	}
}

func TestClockBeforeLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New([bitstream.KeySize]byte{}).Clock()
}

func TestDeviceReinitializable(t *testing.T) {
	img, _, _ := buildImage(t, false)
	f := New([bitstream.KeySize]byte{})
	if err := f.Program(img); err != nil {
		t.Fatal(err)
	}
	a := hdl.GenerateKeystream(f, testIV, 4)
	b := hdl.GenerateKeystream(f, testIV, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("second run diverged at word %d", i)
		}
	}
}

// BenchmarkDeviceLoad times the three Load paths: a fresh device
// (decode and compile), the programmed bytes again (neither), and an
// image differing from them in one LUT (decode, no compile).
func BenchmarkDeviceLoad(b *testing.B) {
	img, _, _ := buildImage(b, false)
	lut := append([]byte(nil), img...)
	p, err := bitstream.ParsePackets(lut)
	if err != nil {
		b.Fatal(err)
	}
	fdri := p.FDRI(lut)
	r, err := bitstream.ParseRegions(fdri)
	if err != nil {
		b.Fatal(err)
	}
	fdri[r.CLBOff] ^= 1
	if err := bitstream.RecomputeCRC(lut); err != nil {
		b.Fatal(err)
	}
	programmed := New([bitstream.KeySize]byte{})
	if err := programmed.Program(img); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		dev  func() *FPGA
		img  []byte
	}{
		{"fresh", func() *FPGA { return New([bitstream.KeySize]byte{}) }, img},
		{"same-bytes", func() *FPGA { return programmed }, img},
		{"same-description", func() *FPGA { return programmed }, lut},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.dev().Load(bc.img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDeviceKeystream16(b *testing.B) {
	img, _, _ := buildImage(b, false)
	f := New([bitstream.KeySize]byte{})
	if err := f.Program(img); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdl.GenerateKeystream(f, testIV, 16)
	}
}

func TestToolchainGeneralityRandomDesigns(t *testing.T) {
	// The synthesis → bitstream → device pipeline is not SNOW-specific:
	// random sequential designs must behave identically in the netlist
	// simulator and on the bitstream-configured device.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		n := netlist.New()
		ins := make([]netlist.NodeID, 6)
		for i := range ins {
			ins[i] = n.Input(fmt.Sprintf("in[%d]", i))
		}
		regs := n.FFWord("r", 8, uint64(trial*37))
		pool := append(append([]netlist.NodeID{}, ins...), regs...)
		for g := 0; g < 150; g++ {
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			var id netlist.NodeID
			switch rng.Intn(4) {
			case 0:
				id = n.And(a, b)
			case 1:
				id = n.Or(a, b)
			case 2:
				id = n.Xor(a, b)
			default:
				id = n.Mux(pool[rng.Intn(len(pool))], a, b)
			}
			pool = append(pool, id)
		}
		for i := 0; i < 8; i++ {
			n.ConnectFF(regs[i], pool[len(pool)-1-i])
		}
		for i := 0; i < 4; i++ {
			n.Output(fmt.Sprintf("out[%d]", i), pool[len(pool)-9-i])
		}
		r, err := mapper.Map(n, mapper.Options{K: 6})
		if err != nil {
			t.Fatal(err)
		}
		img, err := bitstream.Assemble(n, mapper.Pack(r, mapper.PackPolicy{}),
			bitstream.AssembleOptions{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		dev := New([bitstream.KeySize]byte{})
		if err := dev.Program(img); err != nil {
			t.Fatal(err)
		}
		sim, err := netlist.NewSim(n)
		if err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 24; cycle++ {
			for i, in := range ins {
				v := rng.Intn(2) == 1
				sim.SetInput(in, v)
				dev.SetInput(fmt.Sprintf("in[%d]", i), v)
			}
			sim.Settle()
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("out[%d]", i)
				if sim.Output(name) != dev.Read(name) {
					t.Fatalf("trial %d cycle %d: %s diverges", trial, cycle, name)
				}
			}
			sim.Step()
			dev.Clock()
		}
	}
}

func TestReadbackMatchesLoadedConfiguration(t *testing.T) {
	img, _, _ := buildImage(t, false)
	f := New([bitstream.KeySize]byte{})
	if err := f.Program(img); err != nil {
		t.Fatal(err)
	}
	rb, err := f.Readback()
	if err != nil {
		t.Fatal(err)
	}
	// The readback frames must equal the FDRI region of the image.
	p, err := bitstream.ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	fdri := p.FDRI(img)
	if len(rb) != len(fdri) {
		t.Fatalf("readback %d bytes, FDRI %d", len(rb), len(fdri))
	}
	for i := range rb {
		if rb[i] != fdri[i] {
			t.Fatalf("readback differs from loaded FDRI at byte %d", i)
		}
	}
}

func TestReadbackReflectsModification(t *testing.T) {
	// After loading a LUT-modified bitstream, readback must return the
	// MODIFIED truth tables — the property that lets an attacker confirm
	// injected faults without re-probing flash.
	img, _, r := buildImage(t, false)
	p, _ := bitstream.ParsePackets(img)
	fdri := p.FDRI(img)
	regions, err := bitstream.ParseRegions(fdri)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := bitstream.UnmarshalDescription(fdri[regions.DescOff : regions.DescOff+regions.DescLen])
	if err != nil {
		t.Fatal(err)
	}
	loc := desc.LUTs[3].Loc
	clb := fdri[regions.CLBOff : regions.CLBOff+regions.CLBLen]
	if err := bitstream.WriteLUT(clb, loc, boolfn.TT(0x1234567890ABCDEF)); err != nil {
		t.Fatal(err)
	}
	if err := bitstream.RecomputeCRC(img); err != nil {
		t.Fatal(err)
	}
	f := New([bitstream.KeySize]byte{})
	if err := f.Load(img); err != nil {
		t.Fatal(err)
	}
	rb, err := f.Readback()
	if err != nil {
		t.Fatal(err)
	}
	got, err := bitstream.ReadLUT(rb[bitstream.FrameBytes:bitstream.FrameBytes*(1+desc.CLBFrames)], loc)
	if err != nil {
		t.Fatal(err)
	}
	if got != boolfn.TT(0x1234567890ABCDEF) {
		t.Fatalf("readback shows %v, want the modified table", got)
	}
	_ = r
}

func TestReadbackRefusedWhenEncrypted(t *testing.T) {
	img, _, _ := buildImage(t, false)
	var kE, kA [bitstream.KeySize]byte
	var iv [16]byte
	enc, err := bitstream.Seal(img, kE, kA, iv)
	if err != nil {
		t.Fatal(err)
	}
	f := New(kE)
	if err := f.Program(enc); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Readback(); err == nil {
		t.Fatal("readback allowed on an encrypted configuration")
	}
}

func TestReadbackBeforeLoadFails(t *testing.T) {
	if _, err := New([bitstream.KeySize]byte{}).Readback(); err == nil {
		t.Fatal("readback before configuration should fail")
	}
}

func TestPartialReconfigInjectsFaultKeepingState(t *testing.T) {
	img, _, r := buildImage(t, false)
	f := New([bitstream.KeySize]byte{})
	if err := f.Program(img); err != nil {
		t.Fatal(err)
	}
	fdri, _, loc := f2LUT(t, img, r)
	// Build the modified frame: zero that LUT within its frame bytes.
	frameIdx := 1 + loc.Frame // absolute frame index in fdri (the header frame precedes the CLB region)
	frame := append([]byte(nil),
		fdri[frameIdx*bitstream.FrameBytes:(frameIdx+1)*bitstream.FrameBytes]...)
	sub := bitstream.EncodeLUT(boolfn.Const0, loc.Type)
	for q := 0; q < bitstream.SubVectors; q++ {
		copy(frame[q*bitstream.SubVectorOffset+loc.Slot*bitstream.SubVectorBytes:], sub[q][:])
	}

	// Run half an initialization, inject mid-flight, finish: the fault
	// must take effect without resetting the registers.
	for i := 0; i < 4; i++ {
		f.SetInput(hdl.PortLoad, false)
		f.SetInput(hdl.PortInit, false)
		f.SetInput(hdl.PortRun, false)
		f.SetInput(hdl.PortGen, false)
		f.Clock()
	}
	if err := f.PartialReconfig(frameIdx, frame); err != nil {
		t.Fatal(err)
	}
	z := hdl.GenerateKeystream(f, testIV, 8)
	dead := ^uint32(0)
	for _, w := range z {
		dead &= ^w
	}
	if dead == 0 {
		t.Fatal("partial reconfiguration did not inject the stuck column")
	}
	// Restore the original frame: behaviour returns to normal.
	orig := fdri[frameIdx*bitstream.FrameBytes : (frameIdx+1)*bitstream.FrameBytes]
	if err := f.PartialReconfig(frameIdx, orig); err != nil {
		t.Fatal(err)
	}
	got := hdl.GenerateKeystream(f, testIV, 4)
	ref := snow3g.New(snow3g.Fault{})
	ref.Init(testKey, testIV)
	want := ref.KeystreamWords(4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("device did not recover after frame restore")
		}
	}
}

func TestPartialReconfigValidation(t *testing.T) {
	img, _, _ := buildImage(t, false)
	f := New([bitstream.KeySize]byte{})
	if err := f.PartialReconfig(0, make([]byte, bitstream.FrameBytes)); err == nil {
		t.Fatal("partial reconfig before load accepted")
	}
	if err := f.Program(img); err != nil {
		t.Fatal(err)
	}
	if err := f.PartialReconfig(0, make([]byte, 10)); err == nil {
		t.Fatal("short frame accepted")
	}
	if err := f.PartialReconfig(1<<20, make([]byte, bitstream.FrameBytes)); err == nil {
		t.Fatal("out-of-range frame accepted")
	}
	// Corrupting the header frame must fail and roll back.
	if err := f.PartialReconfig(0, make([]byte, bitstream.FrameBytes)); err == nil {
		t.Fatal("zeroed header frame accepted")
	}
	z := hdl.GenerateKeystream(f, testIV, 2)
	ref := snow3g.New(snow3g.Fault{})
	ref.Init(testKey, testIV)
	want := ref.KeystreamWords(2)
	if z[0] != want[0] || z[1] != want[1] {
		t.Fatal("failed partial reconfig corrupted the device")
	}
}
