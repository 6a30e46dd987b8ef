package core

import (
	"fmt"

	"snowbma/internal/bitstream"
)

// Differential bitstream analysis, in the spirit of the BiFI line of
// work the paper builds on [23]–[25]: comparing two images of the same
// design compiled with different secrets localizes exactly where the
// secret material lives in the bitstream. For our SNOW 3G victim, two
// images differing only in the key differ only in the BRAM content
// region (the key ROMs) and the configuration CRC — a direct
// demonstration of attack-model assumption 2.

// DiffRegion classifies where a differing byte lies.
type DiffRegion int

const (
	// DiffPackets is outside the FDRI data (headers, CRC, commands).
	DiffPackets DiffRegion = iota
	// DiffHeaderFrame is the FDRI layout header.
	DiffHeaderFrame
	// DiffCLB is within the CLB (LUT) frames.
	DiffCLB
	// DiffDescription is within the design description frames.
	DiffDescription
	// DiffBRAM is within the block-RAM content frames.
	DiffBRAM
	// DiffUnmapped is FDRI data past every region the header declares.
	DiffUnmapped
)

func (r DiffRegion) String() string {
	switch r {
	case DiffPackets:
		return "packets"
	case DiffHeaderFrame:
		return "fdri-header"
	case DiffCLB:
		return "clb"
	case DiffDescription:
		return "description"
	case DiffBRAM:
		return "bram"
	case DiffUnmapped:
		return "unmapped"
	}
	return "unknown"
}

// DiffReport summarizes a comparison.
type DiffReport struct {
	// Bytes counts differing bytes per region.
	Bytes map[DiffRegion]int
	// LUTSlots lists the CLB slots whose content differs.
	LUTSlots []bitstream.Loc
	// BRAMOffsets lists differing byte offsets within the BRAM region.
	BRAMOffsets []int
}

// Diff compares two plaintext bitstream images of identical length and
// layout, classifying every differing byte: FDRI bytes by the region
// their frame falls in (bitstream.Regions.ClassifyFrame), the rest as
// packets.
func Diff(a, b []byte) (*DiffReport, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("core: images differ in size (%d vs %d)", len(a), len(b))
	}
	pa, err := bitstream.ParsePackets(a)
	if err != nil {
		return nil, err
	}
	pb, err := bitstream.ParsePackets(b)
	if err != nil {
		return nil, err
	}
	if pa.FDRIOffset != pb.FDRIOffset || pa.FDRILen != pb.FDRILen {
		return nil, fmt.Errorf("core: images have different FDRI layout")
	}
	ra, err := bitstream.ParseRegions(pa.FDRI(a))
	if err != nil {
		return nil, err
	}
	rep := &DiffReport{Bytes: map[DiffRegion]int{}}
	slotSeen := map[bitstream.Loc]bool{}
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		rel := i - pa.FDRIOffset
		if rel < 0 || rel >= pa.FDRILen {
			rep.Bytes[DiffPackets]++
			continue
		}
		inFrame := rel % bitstream.FrameBytes
		kind, frame, err := ra.ClassifyFrame(rel / bitstream.FrameBytes)
		switch {
		case err != nil:
			rep.Bytes[DiffUnmapped]++
		case kind == bitstream.FrameHeader:
			rep.Bytes[DiffHeaderFrame]++
		case kind == bitstream.FrameCLB:
			rep.Bytes[DiffCLB]++
			slotByte := inFrame % bitstream.SubVectorOffset
			if slotByte < bitstream.SlotsPerFrame*bitstream.SubVectorBytes {
				loc := bitstream.Loc{Frame: frame, Slot: slotByte / bitstream.SubVectorBytes,
					Type: bitstream.FrameSliceType(frame)}
				if !slotSeen[loc] {
					slotSeen[loc] = true
					rep.LUTSlots = append(rep.LUTSlots, loc)
				}
			}
		case kind == bitstream.FrameDesc:
			rep.Bytes[DiffDescription]++
		default:
			rep.Bytes[DiffBRAM]++
			rep.BRAMOffsets = append(rep.BRAMOffsets, frame*bitstream.FrameBytes+inFrame)
		}
	}
	return rep, nil
}
