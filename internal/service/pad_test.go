package service

import (
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/victim"
)

// MaxSpecPadFrames keeps the largest victim a spec can ask for under
// the image cap. Padding grows an image linearly, so the sizes at pad 0
// and 1 bound it at the cap; the sealed, protected design is the
// largest variant.
func TestMaxSpecPadFramesFitsImageCap(t *testing.T) {
	size := func(pad int) int {
		v, err := victim.Build(VictimSpec{Protected: true, Encrypted: true, PadFrames: pad}.Config())
		if err != nil {
			t.Fatal(err)
		}
		return len(v.Image)
	}
	base, one := size(0), size(1)
	if per := one - base; per <= 0 || per > bitstream.FrameBytes+16 {
		t.Fatalf("one pad frame grew the image by %d bytes, want (0, %d]", per, bitstream.FrameBytes+16)
	}
	if atCap := base + MaxSpecPadFrames*(bitstream.FrameBytes+16); atCap >= bitstream.MaxImageBytes {
		t.Fatalf("image at MaxSpecPadFrames can reach %d bytes, cap is %d", atCap, bitstream.MaxImageBytes)
	}
}
