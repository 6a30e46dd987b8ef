package device

import (
	"strings"
	"testing"

	"snowbma/internal/bitstream"
)

// FuzzLoad mutates a valid bitstream image arbitrarily: Load must either
// succeed or fail with an error — never panic or index out of range —
// and a device that reports success must survive a clock. Each input is
// loaded twice, on a fresh device and on one already programmed with
// the seed image (whose Compiled a same-bytes or same-description input
// reuses), and the two must agree on the error, the boot status, the
// readback and the outputs over a few clocks.
func FuzzLoad(f *testing.F) {
	img, _, _ := buildImage(f, false)
	seed := New([bitstream.KeySize]byte{})
	if err := seed.Program(img); err != nil {
		f.Fatal(err)
	}
	compiled := seed.Compiled()
	f.Add(img)
	plain := append([]byte(nil), img...)
	if err := bitstream.DisableCRC(plain); err != nil {
		f.Fatal(err)
	}
	f.Add(plain) // CRC-disabled variant lets content mutations through
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := New([bitstream.KeySize]byte{})
		errFresh := fresh.Load(data)
		warm := New([bitstream.KeySize]byte{})
		if err := warm.ProgramCompiled(img, compiled); err != nil {
			t.Fatal(err)
		}
		errWarm := warm.Load(data)
		if (errFresh == nil) != (errWarm == nil) || (errFresh != nil && errFresh.Error() != errWarm.Error()) {
			t.Fatalf("fresh Load = %v, Load over the seed's Compiled = %v", errFresh, errWarm)
		}
		if got, want := deviceView(warm), deviceView(fresh); got != want {
			t.Fatalf("device over the seed's Compiled diverges from a fresh one:\n got %s\nwant %s", got, want)
		}
	})
}

// rewrapDescription decodes img's design description, applies edit and
// wraps the frames around the re-marshalled description as a new image
// with a valid CRC, so a crafted description reaches Load's decoder.
func rewrapDescription(t *testing.T, img []byte, edit func(*bitstream.Description)) []byte {
	t.Helper()
	p, err := bitstream.ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	fdri := p.FDRI(img)
	r, err := bitstream.ParseRegions(fdri)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := bitstream.UnmarshalDescription(fdri[r.DescOff : r.DescOff+r.DescLen])
	if err != nil {
		t.Fatal(err)
	}
	edit(desc)
	db := bitstream.MarshalDescription(desc)
	descFrames := (len(db) + bitstream.FrameBytes - 1) / bitstream.FrameBytes
	out := make([]byte, (1+desc.CLBFrames+descFrames+desc.BRAMFrames)*bitstream.FrameBytes)
	bitstream.WriteFDRIHeader(out[:bitstream.FrameBytes], desc.CLBFrames, descFrames, desc.BRAMFrames, len(db))
	copy(out[bitstream.FrameBytes:], fdri[r.CLBOff:r.CLBOff+r.CLBLen])
	copy(out[(1+desc.CLBFrames)*bitstream.FrameBytes:], db)
	copy(out[(1+desc.CLBFrames+descFrames)*bitstream.FrameBytes:], fdri[r.BRAMOff:r.BRAMOff+r.BRAMLen])
	wrapped, err := bitstream.WrapFDRI(out)
	if err != nil {
		t.Fatal(err)
	}
	return wrapped
}

// TestLoadRejectsCraftedDescriptions: descriptions that name an unknown
// slice type, a net past NumNets in a BRAM or adder, a BRAM too wide to
// tabulate or an adder with ragged operands fail Load with an error.
// Each once panicked: the BRAM and slice-type rows inside Load, the
// adder rows on the first clock after a Load that accepted them.
func TestLoadRejectsCraftedDescriptions(t *testing.T) {
	img, _, _ := buildImage(t, false)
	constROM := func(d *bitstream.Description) *bitstream.BRAMRec {
		for i := range d.BRAMs {
			if len(d.BRAMs[i].Addr) == 0 {
				return &d.BRAMs[i]
			}
		}
		t.Fatal("design has no address-less BRAM")
		return nil
	}
	for _, tc := range []struct {
		name string
		edit func(*bitstream.Description)
		want string
	}{
		{"LUT slice type out of range", func(d *bitstream.Description) { d.LUTs[0].Loc.Type = 9 }, "slice type"},
		{"constant ROM output past NumNets", func(d *bitstream.Description) {
			constROM(d).Out[0] = 1 << 24
		}, "invalid net"},
		{"BRAM address wider than any table", func(d *bitstream.Description) {
			d.BRAMs[0].Addr = make([]uint32, 61)
		}, "61 address bits"},
		{"adder sum past NumNets", func(d *bitstream.Description) {
			d.Adders[0].Sum[0] = 1 << 31
		}, "invalid net"},
		{"adder operand widths differ", func(d *bitstream.Description) {
			d.Adders[0].B = d.Adders[0].B[:1]
		}, "ragged operands"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := rewrapDescription(t, img, tc.edit)
			err := New([bitstream.KeySize]byte{}).Load(bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
