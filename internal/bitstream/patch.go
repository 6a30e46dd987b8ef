package bitstream

import (
	"bytes"
	"errors"
	"fmt"
)

// The candidate images the attack evaluates differ from the base image
// only in a handful of LUT truth-table bytes — a frame-level delta, the
// same granularity real partial reconfiguration uses (FAR + single-frame
// FDRI writes). This file computes that delta so the evaluation fast
// path can apply candidate modifications to a live configuration instead
// of re-parsing the whole image per guess.

// FramePatch replaces one FDRI frame. Frame is the frame index relative
// to the start of the FDRI region (frame 0 is the header frame).
type FramePatch struct {
	Frame int
	Data  []byte // exactly FrameBytes
}

// PatchSet is the frame-level delta of one candidate image against the
// base image. An empty set denotes the unmodified base configuration.
type PatchSet []FramePatch

// Frames returns the number of patched frames.
func (ps PatchSet) Frames() int { return len(ps) }

// DiffFrames computes the frame-level delta between a base image and a
// modified image of identical length and packet structure; p must
// describe base, so one packet walk serves many candidate diffs. Any
// difference outside the FDRI frame region (packet headers, register
// writes, the stored CRC) is an error: such a candidate cannot be
// expressed as a partial reconfiguration and must take the full-image
// path.
func (p *Parsed) DiffFrames(base, mod []byte) (PatchSet, error) {
	if len(base) != len(mod) {
		return nil, fmt.Errorf("bitstream: diff length mismatch: base %d bytes, mod %d", len(base), len(mod))
	}
	end := p.FDRIOffset + p.FDRILen
	if !bytes.Equal(base[:p.FDRIOffset], mod[:p.FDRIOffset]) || !bytes.Equal(base[end:], mod[end:]) {
		return nil, errors.New("bitstream: images differ outside the FDRI region")
	}
	fb, mb := p.FDRI(base), p.FDRI(mod)
	var ps PatchSet
	for off := 0; off < len(fb); off += FrameBytes {
		hi := off + FrameBytes
		if hi > len(fb) {
			hi = len(fb)
		}
		if !bytes.Equal(fb[off:hi], mb[off:hi]) {
			ps = append(ps, FramePatch{
				Frame: off / FrameBytes,
				Data:  append([]byte(nil), mb[off:hi]...),
			})
		}
	}
	return ps, nil
}
