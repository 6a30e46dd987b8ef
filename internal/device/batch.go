package device

import (
	"fmt"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
)

// The candidate-verification loops of the attack evaluate many variants
// of one design that differ only in a few LUT truth tables or BRAM
// words. Batch packs up to 64 such variants into one simulation: every
// net becomes a 64-bit word whose bit L is the value of that net in
// lane L. All lanes share the parsed Description (the routing never
// changes); per-lane behaviour comes from lane-patched LUT truth tables
// and BRAM tables. LUT evaluation reduces a transposed truth table
// through a mux tree, BRAM reads gather per-lane words and scatter them
// back into bitsliced output nets, and the carry chain ripples
// lane-wise — so one pass through the evaluation order advances all
// lanes together.

// LaneWordBits is the lane capacity of one register word — the unit of
// the bitsliced representation and of the 64x64 transposes.
const LaneWordBits = 64

// MaxLanes is the lane capacity of a Batch: one register word per net.
const MaxLanes = LaneWordBits

// Batch is a bitsliced multi-lane instance of a loaded configuration.
// A configured FPGA runs its scalar pins and clock on a one-lane Batch.
//
// A Batch is NOT safe for concurrent use: every evaluation mutates the
// shared register file and scratch buffers, so all calls on one Batch
// must come from a single goroutine (or be externally serialized).
// Distinct Batches are independent — they share only immutable data
// (the Description, the compiled Program and the base BRAM tables) —
// so concurrent sweeps build one Batch per goroutine over the same
// loaded base.
type Batch struct {
	lanes int
	// st is the compiled-program evaluator state; its regs/ff arrays
	// are the batch's net words (register slots are net ids).
	st    *progState
	dirty bool
}

// newBatch builds a batch of the given width over p, every lane running
// the truth tables tts and BRAM content tabs.
func newBatch(p *Program, tts []boolfn.TT, tabs [][]uint64, lanes int) *Batch {
	return &Batch{lanes: lanes, st: newProgState(p, tts, tabs, lanes), dirty: true}
}

// LoadPatched configures the device from the base image, then builds a
// batch with one lane per patch set, applying each set's frame patches
// to that lane only. This is the simulator analogue of loading the base
// bitstream once and stepping through candidates by partial
// reconfiguration: patches must stay inside the CLB or BRAM frame
// regions (header or description frames would change the shared
// structure and are refused). An empty PatchSet yields an unmodified
// lane. Unlike PartialReconfig — a debug port fused off on secured
// devices — this is the attacker's own model of the victim, so
// encrypted base images are accepted.
func (f *FPGA) LoadPatched(img []byte, patches []bitstream.PatchSet) (*Batch, error) {
	if err := f.Load(img); err != nil {
		return nil, err
	}
	return f.BatchOf(patches)
}

// BatchOf builds a batch over the configuration already loaded into f,
// skipping the base image decode — the fast path for consecutive
// candidate sweeps over one base. The caller owns the knowledge that
// the loaded configuration is the intended base.
func (f *FPGA) BatchOf(patches []bitstream.PatchSet) (*Batch, error) {
	if len(patches) < 1 || len(patches) > MaxLanes {
		return nil, fmt.Errorf("device: lane count must be between 1 and %d, got %d", MaxLanes, len(patches))
	}
	f.tel.Counter("device.batch_passes").Inc()
	f.tel.Counter("device.batch_lanes").Add(int64(len(patches)))
	cfg := f.cfg
	if cfg == nil {
		return nil, fmt.Errorf("device: BatchOf before successful Load")
	}
	c := cfg.base
	b := newBatch(c.prog, cfg.lutTT, cfg.bramTab, len(patches))
	r := cfg.regions
	bramPatched := false
	for lane, ps := range patches {
		var bramRegion []byte
		var bramFrames []int
		for _, fp := range ps {
			if len(fp.Data) != bitstream.FrameBytes {
				return nil, fmt.Errorf("device: lane %d: frame patch must be %d bytes, got %d",
					lane, bitstream.FrameBytes, len(fp.Data))
			}
			kind, rel, err := r.ContentFrame(fp.Frame)
			if err != nil {
				return nil, fmt.Errorf("device: lane %d: %w", lane, err)
			}
			if kind == bitstream.FrameCLB {
				if rel >= len(c.lutsByFrame) {
					continue // no LUT sits in this frame
				}
				for _, li := range c.lutsByFrame[rel] {
					loc := c.prog.desc.LUTs[li].Loc
					loc.Frame = 0 // read from the standalone patched frame
					tt, err := bitstream.ReadLUT(fp.Data, loc)
					if err != nil {
						return nil, fmt.Errorf("device: lane %d: LUT %d: %w", lane, li, err)
					}
					b.st.patchLUTLane(li, lane, tt)
				}
				continue
			}
			if bramRegion == nil {
				bramRegion = append([]byte(nil), cfg.fdri[r.BRAMOff:r.BRAMOff+r.BRAMLen]...)
			}
			copy(bramRegion[rel*bitstream.FrameBytes:], fp.Data)
			bramFrames = append(bramFrames, rel)
		}
		if bramRegion != nil {
			if err := b.rebuildBRAM(lane, bramRegion, bramFrames); err != nil {
				return nil, fmt.Errorf("device: lane %d: %w", lane, err)
			}
			bramPatched = true
		}
	}
	if bramPatched {
		// Lane overrides may hit constant ROMs; recompute their outputs.
		b.st.prologue()
	}
	return b, nil
}

// rebuildBRAM re-decodes the BRAM tables whose content overlaps the
// patched frames of one lane's BRAM region and installs them as that
// lane's tables.
func (b *Batch) rebuildBRAM(lane int, region []byte, frames []int) error {
	for i, rec := range b.st.prog.desc.BRAMs {
		entries := 1 << len(rec.Addr)
		lo, hi := rec.ContentOff, rec.ContentOff+8*entries
		if hi > len(region) {
			return fmt.Errorf("BRAM %d content out of range", i)
		}
		touched := false
		for _, fr := range frames {
			if fr*bitstream.FrameBytes < hi && (fr+1)*bitstream.FrameBytes > lo {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		tab := make([]uint64, entries)
		for e := 0; e < entries; e++ {
			off := lo + 8*e
			var w uint64
			for k := 0; k < 8; k++ {
				w = w<<8 | uint64(region[off+k])
			}
			tab[e] = w
		}
		b.st.setTabLane(i, lane, tab)
	}
	return nil
}

// Lanes reports the number of active lanes.
func (b *Batch) Lanes() int { return b.lanes }

// SetInputLanes drives an input pin with a lane mask: bit L is the
// value lane L sees.
func (b *Batch) SetInputLanes(name string, mask uint64) {
	b.st.regs[b.pin(name, true)] = mask
	b.dirty = true
}

// pin returns the net of an input or output pin. A nil Batch — the
// evaluator of an unconfigured device — has no pins.
func (b *Batch) pin(name string, in bool) uint32 {
	dir := "output"
	if in {
		dir = "input"
	}
	if b != nil {
		pins := b.st.prog.outPins
		if in {
			pins = b.st.prog.inPins
		}
		if net, ok := pins[name]; ok {
			return net
		}
	}
	panic(fmt.Sprintf("device: no %s pin %q", dir, name))
}

// ReadLanes samples an output pin after the last clock edge and returns
// its lane mask; bits at or above Lanes() are zero, so stale register
// content from inactive lanes never leaks to callers.
func (b *Batch) ReadLanes(name string) uint64 {
	net := b.pin(name, false)
	if b.dirty {
		b.st.settle()
		b.dirty = false
	}
	return b.st.regs[net] & (^uint64(0) >> uint(LaneWordBits-b.lanes))
}

// ClockBatch advances all lanes one cycle: evaluate, then latch every
// flip-flop lane-wise.
func (b *Batch) ClockBatch() {
	b.st.clock()
	b.dirty = true
}

// transpose64 transposes a 64x64 bit matrix in place (the recursive
// block-swap of Hacker's Delight 7-3, in LSB-first orientation): after
// the call, bit L of row bi is the old bit bi of row L. Each halving
// level is written out with its constant shift and mask — the compiler
// then proves the row indices in range and drops the bounds checks,
// which is worth ~35% on this hot path.
func transpose64(a *[64]uint64) {
	for k := 0; k < 32; k++ {
		t := (a[k]>>32 ^ a[k+32]) & 0x00000000FFFFFFFF
		a[k] ^= t << 32
		a[k+32] ^= t
	}
	for b := 0; b < 64; b += 32 {
		for k := b; k < b+16; k++ {
			t := (a[k]>>16 ^ a[k+16]) & 0x0000FFFF0000FFFF
			a[k] ^= t << 16
			a[k+16] ^= t
		}
	}
	for b := 0; b < 64; b += 16 {
		for k := b; k < b+8; k++ {
			t := (a[k]>>8 ^ a[k+8]) & 0x00FF00FF00FF00FF
			a[k] ^= t << 8
			a[k+8] ^= t
		}
	}
	for b := 0; b < 64; b += 8 {
		for k := b; k < b+4; k++ {
			t := (a[k]>>4 ^ a[k+4]) & 0x0F0F0F0F0F0F0F0F
			a[k] ^= t << 4
			a[k+4] ^= t
		}
	}
	for b := 0; b < 64; b += 4 {
		for k := b; k < b+2; k++ {
			t := (a[k]>>2 ^ a[k+2]) & 0x3333333333333333
			a[k] ^= t << 2
			a[k+2] ^= t
		}
	}
	for k := 0; k < 64; k += 2 {
		t := (a[k]>>1 ^ a[k+1]) & 0x5555555555555555
		a[k] ^= t << 1
		a[k+1] ^= t
	}
}
