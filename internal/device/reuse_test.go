package device

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/hdl"
	"snowbma/internal/obs"
)

// frameRegion returns img's FDRI byte offset and region layout.
func frameRegion(t *testing.T, img []byte) (int, *bitstream.Regions) {
	t.Helper()
	p, err := bitstream.ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	r, err := bitstream.ParseRegions(p.FDRI(img))
	if err != nil {
		t.Fatal(err)
	}
	return p.FDRIOffset, r
}

// oneByteDiff returns the single offset at which a and b differ.
func oneByteDiff(t *testing.T, a, b []byte) int {
	t.Helper()
	at := -1
	for i := range a {
		if a[i] != b[i] {
			if at >= 0 {
				t.Fatalf("edits differ at bytes %d and %d, want one byte", at, i)
			}
			at = i
		}
	}
	if at < 0 || len(a) != len(b) {
		t.Fatal("edit changed no byte (or the length)")
	}
	return at
}

// deviceView is everything observable about a configured device: the
// boot status, readback (or its error), the flip-flop state, and the
// outputs over a few clocks. Two devices with equal views decoded the
// same configuration.
func deviceView(f *FPGA) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "status %+v\n", f.Status())
	rb, err := f.Readback()
	fmt.Fprintf(&b, "readback %x err %v\n", rb, err)
	if !f.Loaded() {
		return b.String()
	}
	fmt.Fprintf(&b, "ff %v\n", f.FlipFlops())
	outs := make([]string, 0, len(f.outPins))
	for name := range f.outPins {
		outs = append(outs, name)
	}
	slices.Sort(outs)
	for cyc := 0; cyc < 3; cyc++ {
		for _, name := range outs {
			fmt.Fprintf(&b, "%v", f.Read(name))
		}
		b.WriteByte('\n')
		f.Clock()
	}
	return b.String()
}

// TestLoadDecodesEveryByteChange pins the reuse rule of Load: only frame
// bytes equal to the device's Compiled byte for byte skip the decoder.
// A device holding the base configuration loads the base with one CLB,
// one description or one BRAM byte flipped (CRC recomputed); each load
// must decode the flip, reading back the flipped frames and behaving as
// a fresh device does, and only the description flip may compile. The
// same flip under the stale CRC is refused — the check runs before any
// comparison — as is the base itself with its CRC word corrupted.
func TestLoadDecodesEveryByteChange(t *testing.T) {
	img, _, _ := buildImage(t, false)
	tel := obs.New()
	dev := New([bitstream.KeySize]byte{})
	dev.SetTelemetry(tel)
	if err := dev.Program(img); err != nil {
		t.Fatal(err)
	}
	fdriOff, r := frameRegion(t, img)
	base := dev.Compiled()
	baseFDRI := img[fdriOff : fdriOff+r.TotalLen]
	desc := base.cfg.desc

	// A CLB byte: one minterm of LUT 0's truth table.
	clb := append([]byte(nil), baseFDRI[r.CLBOff:r.CLBOff+r.CLBLen]...)
	if err := bitstream.WriteLUT(clb, desc.LUTs[0].Loc, base.cfg.lutTT[0]^1); err != nil {
		t.Fatal(err)
	}
	clbAt := r.CLBOff + oneByteDiff(t, baseFDRI[r.CLBOff:r.CLBOff+r.CLBLen], clb)
	// A description byte: flip-flop 0's init value.
	edited := *desc
	edited.FFs = slices.Clone(desc.FFs)
	edited.FFs[0].Init = !edited.FFs[0].Init
	descAt := r.DescOff + oneByteDiff(t, base.cfg.descRaw, bitstream.MarshalDescription(&edited))
	// A BRAM byte: the low bit of entry 0 of the first addressed BRAM.
	bramAt := -1
	for _, rec := range desc.BRAMs {
		if len(rec.Addr) > 0 {
			bramAt = r.BRAMOff + rec.ContentOff + 7
			break
		}
	}
	if bramAt < 0 {
		t.Fatal("design has no addressed BRAM")
	}

	for _, tc := range []struct {
		name     string
		at       int
		compiles int64
	}{
		{"CLB", clbAt, 0},
		{"description", descAt, 1},
		{"BRAM", bramAt, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod := append([]byte(nil), img...)
			mod[fdriOff+tc.at] ^= 1
			stale := append([]byte(nil), mod...)
			if err := dev.Load(stale); err == nil || !dev.Status().InitBLow {
				t.Fatalf("stale CRC: Load = %v, status %+v; want a CRC error", err, dev.Status())
			}
			if err := bitstream.RecomputeCRC(mod); err != nil {
				t.Fatal(err)
			}
			compiles := tel.Counter("device.compiles").Value()
			if err := dev.Load(mod); err != nil {
				t.Fatal(err)
			}
			if got := tel.Counter("device.compiles").Value() - compiles; got != tc.compiles {
				t.Errorf("load compiled %d programs, want %d", got, tc.compiles)
			}
			rb, err := dev.Readback()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rb, mod[fdriOff:fdriOff+r.TotalLen]) || bytes.Equal(rb, baseFDRI) {
				t.Fatal("readback does not carry the flipped byte: the flip was not decoded")
			}
			fresh := New([bitstream.KeySize]byte{})
			if err := fresh.Load(mod); err != nil {
				t.Fatal(err)
			}
			if got, want := deviceView(dev), deviceView(fresh); got != want {
				t.Fatalf("device holding the base diverges from a fresh load:\n got %s\nwant %s", got, want)
			}
		})
	}

	// The base bytes again: no decode, no compile, fresh behaviour.
	compiles := tel.Counter("device.compiles").Value()
	identical := tel.Counter("device.identical_loads").Value()
	if err := dev.Load(img); err != nil {
		t.Fatal(err)
	}
	if tel.Counter("device.compiles").Value() != compiles || tel.Counter("device.identical_loads").Value() != identical+1 {
		t.Fatal("reloading the base bytes did not reuse the Compiled")
	}
	fresh := New([bitstream.KeySize]byte{})
	if err := fresh.Load(img); err != nil {
		t.Fatal(err)
	}
	if got, want := deviceView(dev), deviceView(fresh); got != want {
		t.Fatalf("reloaded base diverges from a fresh load:\n got %s\nwant %s", got, want)
	}

	// Equal frame bytes behind a corrupted CRC word are still refused.
	p, err := bitstream.ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	badCRC := append([]byte(nil), img...)
	binary.BigEndian.PutUint32(badCRC[p.CRCOffset+4:], p.CRCValue^1)
	if err := dev.Load(badCRC); err == nil || !dev.Status().InitBLow || dev.Loaded() {
		t.Fatalf("corrupted CRC word over the base frames: Load = %v, status %+v", err, dev.Status())
	}
}

// TestEncryptedReloadChecksHMAC: a device programmed with a sealed image
// reuses its Compiled on reload, but a tampered tag over the same frame
// bytes still fails authentication (BOOTSTS) and leaves it unconfigured.
func TestEncryptedReloadChecksHMAC(t *testing.T) {
	img, _, _ := buildImage(t, false)
	var kE, kA [bitstream.KeySize]byte
	kE[0], kA[0] = 0xE0, 0xA4
	sealed, err := bitstream.Seal(img, kE, kA, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New()
	dev := New(kE)
	dev.SetTelemetry(tel)
	if err := dev.Program(sealed); err != nil {
		t.Fatal(err)
	}
	if err := dev.Load(sealed); err != nil {
		t.Fatal(err)
	}
	if n := tel.Counter("device.identical_loads").Value(); n != 1 {
		t.Fatalf("sealed reload: %d identical loads, want 1", n)
	}
	bad := append([]byte(nil), sealed...)
	bad[len(bad)-1] ^= 1 // last byte of the HMAC tag
	if err := dev.Load(bad); err == nil || !dev.Status().BootstsError || dev.Loaded() {
		t.Fatalf("tampered tag: Load = %v, status %+v", err, dev.Status())
	}
}

// TestProgramCompiledSharesOneProgram: a device programmed from another
// device's Compiled runs its Program without compiling, and keeps its
// own evaluator state — clocking the first leaves the second exactly
// as a fresh load leaves a device.
func TestProgramCompiledSharesOneProgram(t *testing.T) {
	img, _, _ := buildImage(t, false)
	first := New([bitstream.KeySize]byte{})
	if err := first.Program(img); err != nil {
		t.Fatal(err)
	}
	tel := obs.New()
	second := New([bitstream.KeySize]byte{})
	second.SetTelemetry(tel)
	if err := second.ProgramCompiled(img, first.Compiled()); err != nil {
		t.Fatal(err)
	}
	if second.prog != first.prog || tel.Counter("device.compiles").Value() != 0 {
		t.Fatal("ProgramCompiled compiled instead of reusing the Program")
	}
	hdl.GenerateKeystream(first, testIV, 4)
	fresh := New([bitstream.KeySize]byte{})
	if err := fresh.Load(img); err != nil {
		t.Fatal(err)
	}
	if got, want := deviceView(second), deviceView(fresh); got != want {
		t.Fatalf("clocking one device moved another:\n got %s\nwant %s", got, want)
	}
}
