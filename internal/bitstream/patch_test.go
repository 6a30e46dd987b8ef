package bitstream

import (
	"bytes"
	"testing"
)

func TestDiffFramesClean(t *testing.T) {
	img, _, _ := testImage(t)
	mod := append([]byte(nil), img...)
	ps, err := diffFrames(t, img, mod)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 0 {
		t.Fatalf("identical images diff to %d patches", len(ps))
	}
}

func TestDiffFramesLocatesModifiedFrames(t *testing.T) {
	img, _, _ := testImage(t)
	p, err := ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	mod := append([]byte(nil), img...)
	fdri := p.FDRI(mod)
	// Flip bytes in frames 3 and 7.
	fdri[3*FrameBytes+10] ^= 0xFF
	fdri[7*FrameBytes+400] ^= 0x55
	ps, err := diffFrames(t, img, mod)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Frame != 3 || ps[1].Frame != 7 {
		t.Fatalf("unexpected patch set: %+v", ps)
	}
	for _, fp := range ps {
		if !bytes.Equal(fp.Data, fdri[fp.Frame*FrameBytes:(fp.Frame+1)*FrameBytes]) {
			t.Fatalf("patch for frame %d carries wrong bytes", fp.Frame)
		}
	}
}

func TestDiffFramesRejectsNonFDRIChanges(t *testing.T) {
	img, _, _ := testImage(t)
	mod := append([]byte(nil), img...)
	mod[4] ^= 1 // header word, before sync
	if _, err := diffFrames(t, img, mod); err == nil {
		t.Fatal("diff outside the FDRI region not rejected")
	}
	short := append([]byte(nil), img[:len(img)-4]...)
	if _, err := diffFrames(t, img, short); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

// diffFrames diffs mod against base through base's own packet walk.
func diffFrames(t *testing.T, base, mod []byte) (PatchSet, error) {
	t.Helper()
	p, err := ParsePackets(base)
	if err != nil {
		t.Fatal(err)
	}
	return p.DiffFrames(base, mod)
}
