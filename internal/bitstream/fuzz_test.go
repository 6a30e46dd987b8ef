package bitstream

import (
	"testing"
)

// Fuzzers harden the parsers that face attacker-controlled bytes: the
// packet walker, the FDRI region header and the design description. The
// invariant under fuzz is "no panic, no out-of-range slicing"; valid
// inputs additionally round-trip.

func FuzzParsePackets(f *testing.F) {
	img, _, _ := testImage(f)
	f.Add(img)
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePackets(data)
		if err != nil {
			return
		}
		// Offsets reported by a successful parse must be in range.
		if p.FDRIOffset < 0 || p.FDRIOffset+p.FDRILen > len(data) {
			t.Fatalf("FDRI region out of range: %d+%d > %d", p.FDRIOffset, p.FDRILen, len(data))
		}
		_ = p.FDRI(data)
		_ = CheckCRC(data)
		// A reported CRC write must be resealable: recomputing it on a
		// copy yields a stream that passes its own check.
		if p.CRCOffset >= 0 {
			fixed := append([]byte(nil), data...)
			if err := RecomputeCRC(fixed); err != nil {
				t.Fatalf("RecomputeCRC on a parsed stream with a CRC write: %v", err)
			}
			if err := CheckCRC(fixed); err != nil {
				t.Fatalf("CheckCRC after RecomputeCRC: %v", err)
			}
		}
	})
}

func FuzzParseRegions(f *testing.F) {
	img, _, _ := testImage(f)
	p, err := ParsePackets(img)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p.FDRI(img))
	f.Add(make([]byte, FrameBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseRegions(data)
		if err != nil {
			return
		}
		if r.TotalLen > len(data) || r.DescOff+r.DescLen > len(data) {
			t.Fatal("regions exceed data")
		}
	})
}

func FuzzUnmarshalDescription(f *testing.F) {
	f.Add(MarshalDescription(&Description{NumNets: 3,
		Ports: []Port{{Name: "a", Dir: In, Net: 2}}}))
	f.Add([]byte{0x53, 0x42, 0x4D, 0x41})
	f.Add(craftedIDListDescription())
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalDescription(data)
		if err != nil {
			return
		}
		// A successful parse must re-marshal without panicking.
		_ = MarshalDescription(d)
	})
}

func FuzzOpenEnvelope(f *testing.F) {
	var kE, kA [KeySize]byte
	var iv [16]byte
	enc, err := Seal([]byte("payload"), kE, kA, iv)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{0x53, 0x42, 0x4D, 0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _ = Open(data, kE)
	})
}
