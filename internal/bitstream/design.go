package bitstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// The interconnect and block-RAM configuration of a real bitstream is a
// proprietary encoding the paper's attack never parses — it only touches
// LUT truth-table bytes. Our stand-in is an explicit design description
// serialized into dedicated frames after the CLB region: ports, flip-
// flops, BRAM wiring, carry chains, LUT placements and an evaluation
// order. The device simulator configures itself from it; the attack code
// is forbidden (and has no need) to look at it.

// NoNet marks an absent net reference (e.g. the O5 output of a
// single-output LUT).
const NoNet = ^uint32(0)

// PortDir distinguishes input and output ports.
type PortDir uint8

const (
	// In is a primary input pin.
	In PortDir = iota
	// Out is a primary output pin.
	Out
)

// Port maps a pin name to the net it drives (In) or samples (Out).
type Port struct {
	Name string
	Dir  PortDir
	Net  uint32
}

// FFRec is one flip-flop: reset value, the net its Q output drives and
// the net feeding its D input.
type FFRec struct {
	Init bool
	Q    uint32
	D    uint32
}

// BRAMRec is one block RAM used as a combinational ROM. Content lives in
// the BRAM frame region at ContentOff, 8 bytes per entry, 1<<len(Addr)
// entries.
type BRAMRec struct {
	Addr       []uint32
	Out        []uint32
	DataBits   int
	ContentOff int
}

// AdderRec is one carry chain computing Sum = A + B mod 2^w.
type AdderRec struct {
	A, B, Sum []uint32
}

// LUTRec is one physical LUT: its location in the CLB frames (where its
// truth table is stored — the part the attack modifies), its routed
// inputs and its output nets.
type LUTRec struct {
	Loc    Loc
	Inputs []uint32
	O6     uint32
	O5     uint32 // NoNet when single-output
}

// EvalKind tags entries of the evaluation order.
type EvalKind uint8

const (
	// EvalLUT evaluates LUTs[Index].
	EvalLUT EvalKind = iota
	// EvalBRAM evaluates BRAMs[Index].
	EvalBRAM
	// EvalAdder evaluates Adders[Index].
	EvalAdder
)

// EvalItem is one step of the combinational evaluation order.
type EvalItem struct {
	Kind  EvalKind
	Index uint32
}

// Description is the complete device configuration except LUT truth
// tables and BRAM content, which live in their frame regions.
type Description struct {
	NumNets uint32
	Ports   []Port
	FFs     []FFRec
	BRAMs   []BRAMRec
	Adders  []AdderRec
	LUTs    []LUTRec
	Eval    []EvalItem
	// Frame region sizes, in frames.
	CLBFrames  int
	BRAMFrames int
}

const descMagic = 0x53424D41 // "SBMA"

// MarshalDescription serializes the description.
func MarshalDescription(d *Description) []byte {
	var buf bytes.Buffer
	w32 := func(v uint32) { _ = binary.Write(&buf, binary.BigEndian, v) }
	wstr := func(s string) {
		w32(uint32(len(s)))
		buf.WriteString(s)
	}
	wids := func(ids []uint32) {
		w32(uint32(len(ids)))
		for _, id := range ids {
			w32(id)
		}
	}
	w32(descMagic)
	w32(d.NumNets)
	w32(uint32(d.CLBFrames))
	w32(uint32(d.BRAMFrames))
	w32(uint32(len(d.Ports)))
	for _, p := range d.Ports {
		wstr(p.Name)
		buf.WriteByte(byte(p.Dir))
		w32(p.Net)
	}
	w32(uint32(len(d.FFs)))
	for _, f := range d.FFs {
		if f.Init {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		w32(f.Q)
		w32(f.D)
	}
	w32(uint32(len(d.BRAMs)))
	for _, r := range d.BRAMs {
		wids(r.Addr)
		wids(r.Out)
		w32(uint32(r.DataBits))
		w32(uint32(r.ContentOff))
	}
	w32(uint32(len(d.Adders)))
	for _, a := range d.Adders {
		wids(a.A)
		wids(a.B)
		wids(a.Sum)
	}
	w32(uint32(len(d.LUTs)))
	for _, l := range d.LUTs {
		w32(uint32(l.Loc.Frame))
		w32(uint32(l.Loc.Slot))
		buf.WriteByte(byte(l.Loc.Type))
		wids(l.Inputs)
		w32(l.O6)
		w32(l.O5)
	}
	w32(uint32(len(d.Eval)))
	for _, e := range d.Eval {
		buf.WriteByte(byte(e.Kind))
		w32(e.Index)
	}
	return buf.Bytes()
}

type descReader struct {
	b   []byte
	pos int
	err error
}

func (r *descReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.pos+4 > len(r.b) {
		r.err = errors.New("bitstream: truncated description")
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

func (r *descReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.err = errors.New("bitstream: truncated description")
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *descReader) str() string {
	n := int(r.u32())
	if r.err != nil || r.pos+n > len(r.b) || n > 1<<20 {
		r.err = errors.New("bitstream: bad string in description")
		return ""
	}
	s := string(r.b[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *descReader) ids() []uint32 {
	n := int(r.u32())
	if r.err != nil || n > 1<<20 || 4*n > len(r.b)-r.pos {
		r.err = errors.New("bitstream: bad id list in description")
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.u32()
	}
	return out
}

// UnmarshalDescription parses a serialized description.
func UnmarshalDescription(b []byte) (*Description, error) {
	r := &descReader{b: b}
	if r.u32() != descMagic {
		return nil, errors.New("bitstream: bad description magic")
	}
	d := &Description{}
	d.NumNets = r.u32()
	d.CLBFrames = int(r.u32())
	d.BRAMFrames = int(r.u32())
	nPorts := int(r.u32())
	for i := 0; i < nPorts && r.err == nil; i++ {
		p := Port{Name: r.str(), Dir: PortDir(r.u8()), Net: r.u32()}
		d.Ports = append(d.Ports, p)
	}
	nFFs := int(r.u32())
	for i := 0; i < nFFs && r.err == nil; i++ {
		f := FFRec{Init: r.u8() == 1, Q: r.u32(), D: r.u32()}
		d.FFs = append(d.FFs, f)
	}
	nBRAMs := int(r.u32())
	for i := 0; i < nBRAMs && r.err == nil; i++ {
		rec := BRAMRec{Addr: r.ids(), Out: r.ids()}
		rec.DataBits = int(r.u32())
		rec.ContentOff = int(r.u32())
		d.BRAMs = append(d.BRAMs, rec)
	}
	nAdders := int(r.u32())
	for i := 0; i < nAdders && r.err == nil; i++ {
		a := AdderRec{A: r.ids(), B: r.ids(), Sum: r.ids()}
		d.Adders = append(d.Adders, a)
	}
	nLUTs := int(r.u32())
	for i := 0; i < nLUTs && r.err == nil; i++ {
		var l LUTRec
		l.Loc.Frame = int(r.u32())
		l.Loc.Slot = int(r.u32())
		l.Loc.Type = SliceType(r.u8())
		l.Inputs = r.ids()
		l.O6 = r.u32()
		l.O5 = r.u32()
		d.LUTs = append(d.LUTs, l)
	}
	nEval := int(r.u32())
	for i := 0; i < nEval && r.err == nil; i++ {
		d.Eval = append(d.Eval, EvalItem{Kind: EvalKind(r.u8()), Index: r.u32()})
	}
	if r.err != nil {
		return nil, r.err
	}
	return d, nil
}

// Regions computes the byte extents of the FDRI sub-regions.
// FDRI layout: [1 header frame][CLB frames][description frames][BRAM
// frames]. The header frame stores magic, region sizes and the exact
// description length.
type Regions struct {
	CLBOff   int
	CLBLen   int
	DescOff  int
	DescLen  int // exact description bytes (region is frame padded)
	BRAMOff  int
	BRAMLen  int
	TotalLen int
}

const fdriMagic = 0x53424649 // "SBFI"

// FrameRegion names the FDRI sub-region a frame index falls in. It is
// the first step of mapping a frame patch onto the device structures
// (and compiled-program instructions) the patch can affect: CLB frames
// carry LUT truth tables, BRAM frames carry block-RAM content, and the
// header/description frames define the shared structure itself.
type FrameRegion uint8

const (
	// FrameHeader is the single FDRI header frame (frame 0).
	FrameHeader FrameRegion = iota
	// FrameCLB is a CLB frame holding LUT truth-table bits.
	FrameCLB
	// FrameDesc is a design-description frame.
	FrameDesc
	// FrameBRAM is a BRAM content frame.
	FrameBRAM
)

// ClassifyFrame maps an absolute frame index onto its region and the
// frame index relative to that region's first frame. Out-of-range
// indices return an error.
func (r *Regions) ClassifyFrame(frame int) (FrameRegion, int, error) {
	total := r.TotalLen / FrameBytes
	switch {
	case frame < 0 || frame >= total:
		return 0, 0, fmt.Errorf("bitstream: frame %d out of range [0,%d)", frame, total)
	case frame == 0:
		return FrameHeader, 0, nil
	case frame < r.DescOff/FrameBytes:
		return FrameCLB, frame - 1, nil
	case frame < r.BRAMOff/FrameBytes:
		return FrameDesc, frame - r.DescOff/FrameBytes, nil
	default:
		return FrameBRAM, frame - r.BRAMOff/FrameBytes, nil
	}
}

// WriteFDRIHeader fills a header frame; exported for configuration
// readback, which regenerates the frame region from device state.
func WriteFDRIHeader(frame []byte, clbFrames, descFrames, bramFrames, descLen int) {
	writeFDRIHeaderFrame(frame, clbFrames, descFrames, bramFrames, descLen)
}

// writeFDRIHeaderFrame fills the header frame fields.
func writeFDRIHeaderFrame(frame []byte, clbFrames, descFrames, bramFrames, descLen int) {
	binary.BigEndian.PutUint32(frame[0:], fdriMagic)
	binary.BigEndian.PutUint32(frame[4:], uint32(clbFrames))
	binary.BigEndian.PutUint32(frame[8:], uint32(descFrames))
	binary.BigEndian.PutUint32(frame[12:], uint32(bramFrames))
	binary.BigEndian.PutUint32(frame[16:], uint32(descLen))
}

// ParseRegions reads the FDRI header frame and computes region extents.
func ParseRegions(fdri []byte) (*Regions, error) {
	if len(fdri) < FrameBytes {
		return nil, errors.New("bitstream: FDRI shorter than a frame")
	}
	if binary.BigEndian.Uint32(fdri) != fdriMagic {
		return nil, errors.New("bitstream: bad FDRI header magic")
	}
	clb := int(binary.BigEndian.Uint32(fdri[4:]))
	desc := int(binary.BigEndian.Uint32(fdri[8:]))
	bram := int(binary.BigEndian.Uint32(fdri[12:]))
	descLen := int(binary.BigEndian.Uint32(fdri[16:]))
	r := &Regions{
		CLBOff:  FrameBytes,
		CLBLen:  clb * FrameBytes,
		DescOff: FrameBytes * (1 + clb),
		DescLen: descLen,
		BRAMOff: FrameBytes * (1 + clb + desc),
		BRAMLen: bram * FrameBytes,
	}
	r.TotalLen = FrameBytes * (1 + clb + desc + bram)
	if r.TotalLen > len(fdri) || descLen > desc*FrameBytes {
		return nil, fmt.Errorf("bitstream: FDRI regions (%d bytes) exceed data (%d bytes)",
			r.TotalLen, len(fdri))
	}
	return r, nil
}
