package device

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/hdl"
)

// Loaded reports whether the device currently holds a valid
// configuration.
func (f *FPGA) Loaded() bool { return f.cfg != nil }

func expectPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, expected one containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v, expected a device message containing %q", r, substr)
		}
	}()
	fn()
}

// TestFailedLoadClearsConfiguration pins the atomicity of Load: a
// configuration that fails mid-decode must leave a cleared fabric, not
// the previous design with half-reset state. Before the staged-commit
// refactor, a failed Load kept the old description and pin maps while
// nulling register state, so Read() crashed with an index panic and
// SetInput silently drove stale nets.
func TestFailedLoadClearsConfiguration(t *testing.T) {
	img, _, _ := buildImage(t, false)
	f := New([bitstream.KeySize]byte{})
	if err := f.Program(img); err != nil {
		t.Fatal(err)
	}
	hdl.GenerateKeystream(f, testIV, 2) // exercise the configuration

	// A CRC-disabled image with a corrupted description region passes the
	// integrity check and fails deep inside configuration decoding.
	bad := append([]byte(nil), img...)
	if err := bitstream.DisableCRC(bad); err != nil {
		t.Fatal(err)
	}
	p, err := bitstream.ParsePackets(bad)
	if err != nil {
		t.Fatal(err)
	}
	fdri := p.FDRI(bad)
	regions, err := bitstream.ParseRegions(fdri)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		fdri[regions.DescOff+i] ^= 0xFF
	}
	if err := f.Load(bad); err == nil {
		t.Fatal("corrupted description accepted")
	}
	if f.Loaded() {
		t.Fatal("device reports loaded after failed Load")
	}
	if _, err := f.Readback(); err == nil {
		t.Fatal("readback allowed on unconfigured device")
	}
	expectPanic(t, "no output pin", func() { f.Read("z[0]") })
	expectPanic(t, "no input pin", func() { f.SetInput("run", true) })
	expectPanic(t, "Clock before successful Load", func() { f.Clock() })

	// The device recovers completely with a good image.
	if err := f.Load(img); err != nil {
		t.Fatal(err)
	}
	z := hdl.GenerateKeystream(f, testIV, 2)
	fresh := New([bitstream.KeySize]byte{})
	if err := fresh.Load(img); err != nil {
		t.Fatal(err)
	}
	if want := hdl.GenerateKeystream(fresh, testIV, 2); !slices.Equal(z, want) {
		t.Fatalf("recovered device diverges: %08x != %08x", z, want)
	}
}

// TestFailedPartialReconfigIsANoOp pins the atomicity of
// PartialReconfig: a rejected frame write must leave the running
// configuration, register state and readback untouched, so a device that
// survived a bad write behaves identically to one that never saw it.
func TestFailedPartialReconfigIsANoOp(t *testing.T) {
	img, _, _ := buildImage(t, false)
	mk := func() *FPGA {
		f := New([bitstream.KeySize]byte{})
		if err := f.Program(img); err != nil {
			t.Fatal(err)
		}
		return f
	}
	victim, control := mk(), mk()

	// Drive both devices into a mid-run state with live register
	// contents.
	partial := func(f *FPGA) {
		hdl.GenerateKeystream(f, testIV, 1)
		f.SetInput("run", true)
		f.Clock()
		f.Clock()
	}
	partial(victim)
	partial(control)

	before, err := victim.Readback()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the header frame: decoding the staged region must fail.
	garbage := make([]byte, bitstream.FrameBytes)
	if err := victim.PartialReconfig(0, garbage); err == nil {
		t.Fatal("garbage header frame accepted")
	}
	// Also a frame write that breaks the description region.
	descFrame := 0
	{
		p, err := bitstream.ParsePackets(img)
		if err != nil {
			t.Fatal(err)
		}
		regions, err := bitstream.ParseRegions(p.FDRI(img))
		if err != nil {
			t.Fatal(err)
		}
		descFrame = regions.DescOff / bitstream.FrameBytes
	}
	if err := victim.PartialReconfig(descFrame, garbage); err == nil {
		t.Fatal("garbage description frame accepted")
	}
	after, err := victim.Readback()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed partial reconfiguration changed the readback image")
	}

	// Register state must be untouched: both devices continue the clocked
	// run in lockstep.
	for c := 0; c < 8; c++ {
		victim.Clock()
		control.Clock()
		for b := 0; b < 32; b += 7 {
			name := "z[" + itoa(b) + "]"
			if victim.Read(name) != control.Read(name) {
				t.Fatalf("cycle %d: %s diverged after failed partial reconfiguration", c, name)
			}
		}
	}
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}
