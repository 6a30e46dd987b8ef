package bitstream

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestDiffFramesClean(t *testing.T) {
	img, _, _ := testImage(t)
	mod := append([]byte(nil), img...)
	ps, err := DiffFrames(img, mod)
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
	ps, err := DiffFrames(img, mod)
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
	if _, err := DiffFrames(img, mod); err == nil {
		t.Fatal("diff outside the FDRI region not rejected")
	}
	short := append([]byte(nil), img[:len(img)-4]...)
	if _, err := DiffFrames(img, short); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

func TestResealFramesMatchesFullSeal(t *testing.T) {
	img, _, _ := testImage(t)
	var kE, kA [KeySize]byte
	var cbcIV [16]byte
	for i := range kE {
		kE[i] = byte(i)
		kA[i] = byte(0xA0 + i)
	}
	for i := range cbcIV {
		cbcIV[i] = byte(0x30 + i)
	}
	r, err := NewResealer(img, kE, kA, cbcIV)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	p, err := ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int{
		0,                              // first byte
		len(img) - 1,                   // last byte
		p.FDRIOffset + 5*FrameBytes,    // early frame
		p.FDRIOffset + p.FDRILen - 100, // late frame
	}
	for i := 0; i < 8; i++ {
		offsets = append(offsets, rng.Intn(len(img)))
	}
	for _, off := range offsets {
		mod := append([]byte(nil), img...)
		mod[off] ^= 0x5A
		got, err := r.ResealFrames(mod)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Seal(mod, kE, kA, cbcIV)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("incremental reseal diverges from full seal for diff at byte %d", off)
		}
	}
	// Unmodified image: the sealed base comes back verbatim.
	got, err := r.ResealFrames(append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, r.SealedBase()) {
		t.Fatal("reseal of the unmodified base diverges from the sealed base")
	}
	// Length change falls back to the full path.
	grown := append(append([]byte(nil), img...), 0, 0, 0, 0)
	got, err = r.ResealFrames(grown)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Seal(grown, kE, kA, cbcIV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("full-seal fallback diverges")
	}
	if r.Incremental == 0 || r.Full != 1 {
		t.Fatalf("reseal counters: incremental=%d full=%d", r.Incremental, r.Full)
	}
}

func TestCRCCacheMatchesFullRecompute(t *testing.T) {
	img, _, _ := testImage(t)
	c, err := NewCRCCache(img)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	cases := [][]int{
		{p.FDRIOffset},                                   // first FDRI byte
		{p.FDRIOffset + p.FDRILen - 1},                   // last FDRI byte
		{p.FDRIOffset + 9*FrameBytes + 17},               // mid frame
		{p.FDRIOffset + 3, p.FDRIOffset + p.FDRILen - 7}, // wide span
	}
	for i := 0; i < 8; i++ {
		cases = append(cases, []int{p.FDRIOffset + rng.Intn(p.FDRILen)})
	}
	for _, offs := range cases {
		mod := append([]byte(nil), img...)
		for _, off := range offs {
			mod[off] ^= 0x81
		}
		if err := c.RecomputeCRC(mod); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), img...)
		for _, off := range offs {
			want[off] ^= 0x81
		}
		if err := RecomputeCRC(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mod, want) {
			t.Fatalf("incremental CRC diverges from full recompute for diffs at %v", offs)
		}
		if err := CheckCRC(mod); err != nil {
			t.Fatalf("incremental CRC does not verify: %v", err)
		}
	}
	// Unmodified image keeps the base CRC.
	mod := append([]byte(nil), img...)
	if err := c.RecomputeCRC(mod); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mod, img) {
		t.Fatal("recompute of the unmodified base changed the image")
	}
	// Non-FDRI change falls back to the full path.
	mod = append([]byte(nil), img...)
	mod[4] ^= 1
	if err := c.RecomputeCRC(mod); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), img...)
	want[4] ^= 1
	if err := RecomputeCRC(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mod, want) {
		t.Fatal("full-recompute fallback diverges")
	}
	if c.Incremental == 0 || c.Full != 1 {
		t.Fatalf("CRC counters: incremental=%d full=%d", c.Incremental, c.Full)
	}
}

func TestCRCCacheRejectsDisabledCRC(t *testing.T) {
	img, _, _ := testImage(t)
	if err := DisableCRC(img); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCRCCache(img); err == nil {
		t.Fatal("CRC cache accepted an image without a CRC write")
	}
}
