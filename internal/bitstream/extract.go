package bitstream

import "snowbma/internal/boolfn"

// ExtractedLUT is one occupied LUT slot recovered from the configuration
// frames — the output of the "extract LUT logics from a downloaded
// bitstream" capability (Jeong et al., the paper's reference [14]) that
// FINDLUT builds on.
type ExtractedLUT struct {
	Loc  Loc
	Init boolfn.TT
	// Dual is a heuristic flag: the two INIT halves differ, so the slot
	// may be a fractured (dual-output) LUT.
	Dual bool
}

// ExtractLUTs decodes every LUT slot of the CLB frame region of a full
// bitstream image and returns the non-empty ones. Slice type is derived
// from the public column layout. It is a reverse-engineering primitive:
// no design description is consulted.
func ExtractLUTs(img []byte) ([]ExtractedLUT, error) {
	p, err := ParsePackets(img)
	if err != nil {
		return nil, err
	}
	fdri := p.FDRI(img)
	regions, err := ParseRegions(fdri)
	if err != nil {
		return nil, err
	}
	clb := fdri[regions.CLBOff : regions.CLBOff+regions.CLBLen]
	frames := len(clb) / FrameBytes
	var out []ExtractedLUT
	for f := 0; f < frames; f++ {
		st := FrameSliceType(f)
		for s := 0; s < SlotsPerFrame; s++ {
			loc := Loc{Frame: f, Slot: s, Type: st}
			tt, err := ReadLUT(clb, loc)
			if err != nil {
				return nil, err
			}
			if tt == boolfn.Const0 {
				continue // uninitialized fabric
			}
			d := boolfn.SplitDual(tt)
			out = append(out, ExtractedLUT{Loc: loc, Init: tt, Dual: d.O5 != d.O6})
		}
	}
	return out, nil
}

// Histogram buckets extracted LUTs by P-equivalence class and returns
// class representative → count, a useful reverse-engineering census
// (e.g. "how many XOR2 LUTs does this design have?").
func Histogram(luts []ExtractedLUT) map[boolfn.TT]int {
	// Canonicalize distinct tables once: designs repeat tables heavily.
	canon := map[boolfn.TT]boolfn.TT{}
	out := make(map[boolfn.TT]int)
	for _, l := range luts {
		c, ok := canon[l.Init]
		if !ok {
			c = boolfn.PClassCanon(l.Init)
			canon[l.Init] = c
		}
		out[c]++
	}
	return out
}
