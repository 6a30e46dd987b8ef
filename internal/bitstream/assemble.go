package bitstream

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"snowbma/internal/mapper"
	"snowbma/internal/netlist"
)

// AssembleOptions tunes the physical image.
type AssembleOptions struct {
	// PadFrames appends empty CLB frames, approximating the unused
	// fabric of a real device (and sizing FINDLUT benchmarks).
	PadFrames int
	// Seed drives the deterministic placement shuffle.
	Seed int64
}

// Assemble serializes a technology-mapped design into a complete
// configuration bitstream: placed LUT truth tables in CLB frames, the
// design description, BRAM content, all wrapped in 7-series packets with
// a valid configuration CRC.
func Assemble(n *netlist.Netlist, phys []mapper.PhysLUT, opt AssembleOptions) ([]byte, error) {
	if opt.PadFrames < 0 {
		return nil, fmt.Errorf("bitstream: PadFrames must be non-negative, got %d", opt.PadFrames)
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Placement: scatter LUTs over enough frames to leave ~30% slots
	// free, mimicking a partially used fabric.
	nLUTs := len(phys)
	clbFrames := (nLUTs*10/7)/SlotsPerFrame + 1 + opt.PadFrames
	type slotKey struct{ frame, slot int }
	used := map[slotKey]bool{}
	locs := make([]Loc, nLUTs)
	for i := range phys {
		for {
			f, s := rng.Intn(clbFrames), rng.Intn(SlotsPerFrame)
			if !used[slotKey{f, s}] {
				used[slotKey{f, s}] = true
				locs[i] = Loc{Frame: f, Slot: s, Type: FrameSliceType(f)}
				break
			}
		}
	}

	// Description records.
	desc := &Description{NumNets: uint32(n.NumNodes()), CLBFrames: clbFrames}
	for _, pi := range n.PIs {
		desc.Ports = append(desc.Ports, Port{Name: n.Nodes[pi].Name, Dir: In, Net: uint32(pi)})
	}
	for _, name := range n.OutputNames() {
		desc.Ports = append(desc.Ports, Port{Name: name, Dir: Out, Net: uint32(n.POs[name])})
	}
	for _, ff := range n.FFs {
		desc.FFs = append(desc.FFs, FFRec{Init: ff.Init, Q: uint32(ff.Q), D: uint32(ff.D)})
	}
	bramBytes := 0
	for i := range n.BRAMs {
		r := &n.BRAMs[i]
		rec := BRAMRec{DataBits: r.DataBits, ContentOff: bramBytes}
		for _, a := range r.Addr {
			rec.Addr = append(rec.Addr, uint32(a))
		}
		for _, o := range r.Out {
			rec.Out = append(rec.Out, uint32(o))
		}
		desc.BRAMs = append(desc.BRAMs, rec)
		bramBytes += 8 * len(r.Content)
	}
	for i := range n.Adders {
		a := &n.Adders[i]
		rec := AdderRec{}
		for _, x := range a.A {
			rec.A = append(rec.A, uint32(x))
		}
		for _, x := range a.B {
			rec.B = append(rec.B, uint32(x))
		}
		for _, x := range a.Sum {
			rec.Sum = append(rec.Sum, uint32(x))
		}
		desc.Adders = append(desc.Adders, rec)
	}
	for i, p := range phys {
		rec := LUTRec{Loc: locs[i], O6: uint32(p.O6Root), O5: NoNet}
		if p.Dual {
			rec.O5 = uint32(p.O5Root)
		}
		for _, in := range p.Inputs {
			rec.Inputs = append(rec.Inputs, uint32(in))
		}
		desc.LUTs = append(desc.LUTs, rec)
	}

	eval, err := evalOrder(n, desc)
	if err != nil {
		return nil, err
	}
	desc.Eval = eval
	desc.BRAMFrames = (bramBytes + FrameBytes - 1) / FrameBytes

	descBytes := MarshalDescription(desc)
	descFrames := (len(descBytes) + FrameBytes - 1) / FrameBytes

	totalFrames := 1 + clbFrames + descFrames + desc.BRAMFrames
	fdri := make([]byte, totalFrames*FrameBytes)
	writeFDRIHeaderFrame(fdri[:FrameBytes], clbFrames, descFrames, desc.BRAMFrames, len(descBytes))
	clb := fdri[FrameBytes : FrameBytes*(1+clbFrames)]
	for i, p := range phys {
		if err := WriteLUT(clb, locs[i], p.Init); err != nil {
			return nil, err
		}
	}
	copy(fdri[FrameBytes*(1+clbFrames):], descBytes)
	bram := fdri[FrameBytes*(1+clbFrames+descFrames):]
	off := 0
	for i := range n.BRAMs {
		for _, w := range n.BRAMs[i].Content {
			binary.BigEndian.PutUint64(bram[off:], w)
			off += 8
		}
	}

	words := make([]uint32, len(fdri)/4)
	for i := range words {
		words[i] = binary.BigEndian.Uint32(fdri[4*i:])
	}
	return buildPackets(words), nil
}

// evalOrder topologically sorts the combinational elements. Each item
// produces one or more nets; an item consuming a net must come after the
// item producing it. Flip-flop outputs and primary inputs are sources.
func evalOrder(n *netlist.Netlist, d *Description) ([]EvalItem, error) {
	type node struct {
		item    EvalItem
		inputs  []uint32
		outputs []uint32
		pending int
		readers []int
	}
	var nodes []node
	for i, l := range d.LUTs {
		nd := node{item: EvalItem{Kind: EvalLUT, Index: uint32(i)}, inputs: l.Inputs, outputs: []uint32{l.O6}}
		if l.O5 != NoNet {
			nd.outputs = append(nd.outputs, l.O5)
		}
		nodes = append(nodes, nd)
	}
	for i, b := range d.BRAMs {
		nodes = append(nodes, node{item: EvalItem{Kind: EvalBRAM, Index: uint32(i)}, inputs: b.Addr, outputs: b.Out})
	}
	for i, a := range d.Adders {
		nd := node{item: EvalItem{Kind: EvalAdder, Index: uint32(i)}, outputs: a.Sum}
		nd.inputs = append(append([]uint32{}, a.A...), a.B...)
		nodes = append(nodes, nd)
	}
	producer := map[uint32]int{}
	for i := range nodes {
		for _, o := range nodes[i].outputs {
			producer[o] = i
		}
	}
	for i := range nodes {
		seen := map[int]bool{}
		for _, in := range nodes[i].inputs {
			if p, ok := producer[in]; ok && p != i && !seen[p] {
				seen[p] = true
				nodes[i].pending++
				nodes[p].readers = append(nodes[p].readers, i)
			}
		}
	}
	var ready []int
	for i := range nodes {
		if nodes[i].pending == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	var order []EvalItem
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		order = append(order, nodes[i].item)
		for _, r := range nodes[i].readers {
			nodes[r].pending--
			if nodes[r].pending == 0 {
				ready = append(ready, r)
			}
		}
	}
	if len(order) != len(nodes) {
		return nil, fmt.Errorf("bitstream: combinational cycle in design (%d of %d items ordered)",
			len(order), len(nodes))
	}
	return order, nil
}
