package chaos_test

import (
	"bytes"
	"errors"
	"testing"

	"snowbma"
	"snowbma/internal/bitstream"
	"snowbma/internal/campaign/chaos"
)

// fakeVictim is a minimal device stand-in recording what crosses the
// chaos boundary.
type fakeVictim struct {
	flash   []byte
	loads   int
	lastImg []byte
	inputs  int
	clocks  int
}

func (f *fakeVictim) Load(b []byte) error {
	f.loads++
	f.lastImg = append([]byte(nil), b...)
	return nil
}
func (f *fakeVictim) SetInput(string, bool)                   { f.inputs++ }
func (f *fakeVictim) Clock()                                  { f.clocks++ }
func (f *fakeVictim) Read(string) bool                        { return false }
func (f *fakeVictim) ReadFlash() []byte                       { return f.flash }
func (f *fakeVictim) SideChannelKey() [bitstream.KeySize]byte { return [bitstream.KeySize]byte{7} }

func TestWrapUnknownFault(t *testing.T) {
	if _, err := chaos.Wrap(&fakeVictim{}, chaos.Fault("meltdown"), 1); !errors.Is(err, chaos.ErrUnknownFault) {
		t.Fatalf("Wrap(unknown) = %v, want ErrUnknownFault", err)
	}
}

func TestNonePassesThrough(t *testing.T) {
	v := &fakeVictim{flash: []byte{1, 2, 3, 4}}
	d, err := chaos.Wrap(v, chaos.None, 1)
	if err != nil {
		t.Fatal(err)
	}
	img := []byte{9, 8, 7}
	if err := d.Load(img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.lastImg, img) {
		t.Fatalf("pass-through Load altered the image: %v", v.lastImg)
	}
	if !bytes.Equal(d.ReadFlash(), v.flash) {
		t.Fatal("pass-through ReadFlash altered the flash")
	}
	d.SetInput("x", true)
	d.Clock()
	if v.inputs != 1 || v.clocks != 1 {
		t.Fatal("SetInput/Clock not forwarded")
	}
	if d.SideChannelKey() != v.SideChannelKey() {
		t.Fatal("SideChannelKey not forwarded")
	}
}

func TestStallBudget(t *testing.T) {
	v := &fakeVictim{}
	d, err := chaos.Wrap(v, chaos.Stall, 17)
	if err != nil {
		t.Fatal(err)
	}
	// The seeded budget is the number of loads that pass before the
	// first refusal.
	budget := 0
	for ; budget <= 25; budget++ {
		if err := d.Load([]byte{1}); err != nil {
			if !errors.Is(err, chaos.ErrStalled) {
				t.Fatalf("load %d = %v, want success or ErrStalled", budget+1, err)
			}
			break
		}
	}
	if budget < 2 || budget > 25 {
		t.Fatalf("stall budget = %d, want the seeded 2..25 range", budget)
	}
	for i := 0; i < 3; i++ {
		err := d.Load([]byte{1})
		if !errors.Is(err, chaos.ErrStalled) {
			t.Fatalf("load past budget = %v, want ErrStalled", err)
		}
	}
	if d.Loads() != budget+4 {
		t.Fatalf("Loads() = %d, want %d (refused attempts count)", d.Loads(), budget+4)
	}
	if v.loads != budget {
		t.Fatalf("victim saw %d loads, want %d (stalls must not reach it)", v.loads, budget)
	}
}

func TestBitFlipTargetsLiveBytesOnly(t *testing.T) {
	v := &fakeVictim{}
	d, err := chaos.Wrap(v, chaos.BitFlip, 5)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 256)
	for i := 64; i < 128; i++ {
		img[i] = byte(i) // live window surrounded by padding zeros
	}
	orig := append([]byte(nil), img...)
	if err := d.Load(img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, orig) {
		t.Fatal("Load mutated the caller's slice")
	}
	if bytes.Equal(v.lastImg, orig) {
		t.Fatal("bitflip forwarded an unmodified image")
	}
	for i, b := range v.lastImg {
		if orig[i] == 0 && b != 0 {
			t.Fatalf("bitflip hit padding byte %d (flips must stay in live bytes)", i)
		}
	}
}

func TestBitFlipDeterministicPerSeed(t *testing.T) {
	img := bytes.Repeat([]byte{0xA5}, 128)
	run := func(seed int64) []byte {
		v := &fakeVictim{}
		d, err := chaos.Wrap(v, chaos.BitFlip, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Load(img); err != nil {
			t.Fatal(err)
		}
		return v.lastImg
	}
	if !bytes.Equal(run(3), run(3)) {
		t.Fatal("identical seeds produced different flip patterns")
	}
	if bytes.Equal(run(3), run(4)) {
		t.Fatal("different seeds produced identical flip patterns")
	}
}

func TestTruncateBounds(t *testing.T) {
	v := &fakeVictim{flash: make([]byte, 1000)}
	d, err := chaos.Wrap(v, chaos.Truncate, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		got := d.ReadFlash()
		if len(got) < 1 || len(got) >= len(v.flash) {
			t.Fatalf("truncated length %d out of bounds (0, %d)", len(got), len(v.flash))
		}
	}
}

// TestCorruptAuthPlain pins the fault's contract on a real synthesized
// image: the corruption lands inside the stored CRC value word, so the
// device refuses the image (INIT_B low) while the packet structure
// still parses.
func TestCorruptAuthPlain(t *testing.T) {
	vic, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: snowbma.PaperKey})
	if err != nil {
		t.Fatal(err)
	}
	orig := vic.Device.ReadFlash()
	p, err := bitstream.ParsePackets(orig)
	if err != nil {
		t.Fatal(err)
	}
	d, err := chaos.Wrap(vic.Device, chaos.CorruptAuth, 23)
	if err != nil {
		t.Fatal(err)
	}
	got := d.ReadFlash()
	diff := -1
	for i := range orig {
		if got[i] != orig[i] {
			if diff >= 0 {
				t.Fatalf("more than one corrupted byte (%d and %d)", diff, i)
			}
			diff = i
		}
	}
	if diff < p.CRCOffset+4 || diff >= p.CRCOffset+8 {
		t.Fatalf("corruption at byte %d, want inside the CRC value word [%d, %d)",
			diff, p.CRCOffset+4, p.CRCOffset+8)
	}
	if _, err := bitstream.ParsePackets(got); err != nil {
		t.Fatalf("corrupted image must still parse (only the check fails): %v", err)
	}
	if err := vic.Device.Load(got); err == nil {
		t.Fatal("device accepted an image with a corrupted CRC")
	}
	if !vic.Device.Status().InitBLow {
		t.Fatal("CRC corruption did not pull INIT_B low")
	}
	if err := vic.Device.Load(orig); err != nil {
		t.Fatalf("pristine image must still load: %v", err)
	}
}

// TestCorruptAuthEncrypted pins the encrypted variant: the corruption
// lands in the sealed envelope tail and the device's HMAC verification
// rejects it (BOOTSTS), while the pristine envelope still loads.
func TestCorruptAuthEncrypted(t *testing.T) {
	keys := &snowbma.EncryptionKeys{KE: [32]byte{1}, KA: [32]byte{2}}
	vic, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: snowbma.PaperKey, Encrypt: keys})
	if err != nil {
		t.Fatal(err)
	}
	orig := vic.Device.ReadFlash()
	d, err := chaos.Wrap(vic.Device, chaos.CorruptAuth, 29)
	if err != nil {
		t.Fatal(err)
	}
	got := d.ReadFlash()
	diff := -1
	for i := range orig {
		if got[i] != orig[i] {
			diff = i
			break
		}
	}
	if diff < len(orig)-32 {
		t.Fatalf("corruption at byte %d, want inside the last 32 envelope bytes (len %d)", diff, len(orig))
	}
	if err := vic.Device.Load(got); err == nil {
		t.Fatal("device accepted an envelope with a corrupted tail")
	}
	if !vic.Device.Status().BootstsError {
		t.Fatal("HMAC corruption did not set BOOTSTS")
	}
	if err := vic.Device.Load(orig); err != nil {
		t.Fatalf("pristine envelope must still load: %v", err)
	}
}
