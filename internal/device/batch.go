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
//
// A Batch is NOT safe for concurrent use: every evaluation mutates the
// shared register file and scratch buffers, so all calls on one Batch
// must come from a single goroutine (or be externally serialized).
// Distinct Batches are independent — they share only immutable data
// (the Description, the compiled Program and the base BRAM tables) —
// so concurrent sweeps build one Batch per goroutine over the same
// loaded base.
type Batch struct {
	desc  *bitstream.Description
	lanes int
	// st is the compiled-program evaluator state; its regs/ff arrays
	// are the batch's net words (register slots are net ids), shared
	// with the walker path below.
	st *progState
	// walk switches settle to the legacy description-walking evaluator,
	// kept as the differential oracle (setWalker, test-only). Both
	// evaluators read the state's LUT rows (st.rows), so a lane patch is
	// written once and seen by both; setWalker materializes the rows the
	// compiled path never needed.
	walk bool
	// bramTab is the shared (base) content; bramOver[b][L] overrides it
	// for lane L when non-nil (walker path; the compiled path resolves
	// overrides into st.tabs).
	bramTab  [][]uint64
	bramOver [][][]uint64
	inPins   map[string]uint32
	outPins  map[string]uint32
	// gather is the walker's BRAM buffer: per-lane table words,
	// transposed in place into bitsliced outputs.
	gather [LaneWordBits]uint64
	dirty  bool
	// primed is set after the first walker settle: address-less BRAMs
	// (constant ROMs) drive the same lane masks forever and are skipped
	// afterwards. The compiled path replaces this with the prologue.
	primed bool
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
	if !f.Loaded() {
		return nil, fmt.Errorf("device: BatchOf before successful Load")
	}
	regions, err := bitstream.ParseRegions(f.fdri)
	if err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	desc := f.desc
	b := &Batch{
		desc:     desc,
		lanes:    len(patches),
		bramTab:  f.bramTab,
		bramOver: make([][][]uint64, len(desc.BRAMs)),
		inPins:   f.inPins,
		outPins:  f.outPins,
		dirty:    true,
	}
	b.st = newProgState(f.prog, f.lutTT, f.bramTab, len(patches))
	// Index the CLB frames: which LUTs must be re-read when a frame is
	// patched. Loc.Frame is relative to the CLB region.
	lutsByFrame := make(map[int][]int)
	for i, rec := range desc.LUTs {
		lutsByFrame[rec.Loc.Frame] = append(lutsByFrame[rec.Loc.Frame], i)
	}
	descStart := regions.DescOff / bitstream.FrameBytes
	bramStart := regions.BRAMOff / bitstream.FrameBytes
	totalFrames := regions.TotalLen / bitstream.FrameBytes
	bramPatched := false
	for lane, ps := range patches {
		var bramRegion []byte
		var bramFrames []int
		for _, fp := range ps {
			if len(fp.Data) != bitstream.FrameBytes {
				return nil, fmt.Errorf("device: lane %d: frame patch must be %d bytes, got %d",
					lane, bitstream.FrameBytes, len(fp.Data))
			}
			switch {
			case fp.Frame < 0 || fp.Frame >= totalFrames:
				return nil, fmt.Errorf("device: lane %d: frame %d out of range", lane, fp.Frame)
			case fp.Frame == 0:
				return nil, fmt.Errorf("device: lane %d: header frame cannot be lane-patched", lane)
			case fp.Frame < descStart: // CLB region
				for _, li := range lutsByFrame[fp.Frame-1] {
					loc := desc.LUTs[li].Loc
					loc.Frame = 0 // read from the standalone patched frame
					tt, err := bitstream.ReadLUT(fp.Data, loc)
					if err != nil {
						return nil, fmt.Errorf("device: lane %d: LUT %d: %w", lane, li, err)
					}
					b.setLaneTT(li, lane, tt)
				}
			case fp.Frame < bramStart:
				return nil, fmt.Errorf("device: lane %d: description frame %d cannot be lane-patched",
					lane, fp.Frame)
			default: // BRAM region
				if bramRegion == nil {
					bramRegion = append([]byte(nil),
						f.fdri[regions.BRAMOff:regions.BRAMOff+regions.BRAMLen]...)
				}
				copy(bramRegion[(fp.Frame-bramStart)*bitstream.FrameBytes:], fp.Data)
				bramFrames = append(bramFrames, fp.Frame-bramStart)
			}
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

// setLaneTT installs a truth table into one lane of a LUT's transposed
// rows and switches the LUT's compiled form to read them (an in-place
// site rewrite).
func (b *Batch) setLaneTT(lut, lane int, tt boolfn.TT) {
	b.st.patchLUTLane(lut, lane, tt)
}

// rebuildBRAM re-decodes the BRAM tables whose content overlaps the
// patched frames of one lane's BRAM region and installs them as lane
// overrides.
func (b *Batch) rebuildBRAM(lane int, region []byte, frames []int) error {
	for i, rec := range b.desc.BRAMs {
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
		if b.bramOver[i] == nil {
			b.bramOver[i] = make([][]uint64, MaxLanes)
		}
		b.bramOver[i][lane] = tab
		b.st.setTabLane(i, lane, tab)
	}
	return nil
}

// Lanes reports the number of active lanes.
func (b *Batch) Lanes() int { return b.lanes }

// SetInputLanes drives an input pin with a lane mask: bit L is the
// value lane L sees.
func (b *Batch) SetInputLanes(name string, mask uint64) {
	net, ok := b.inPins[name]
	if !ok {
		panic(fmt.Sprintf("device: no input pin %q", name))
	}
	b.st.regs[net] = mask
	b.dirty = true
}

// ReadLanes samples an output pin after the last clock edge and returns
// its lane mask; bits at or above Lanes() are zero, so stale register
// content from inactive lanes never leaks to callers.
func (b *Batch) ReadLanes(name string) uint64 {
	net, ok := b.outPins[name]
	if !ok {
		panic(fmt.Sprintf("device: no output pin %q", name))
	}
	if b.dirty {
		b.settle()
	}
	return b.st.regs[net] & (^uint64(0) >> uint(LaneWordBits-b.lanes))
}

// ClockBatch advances all lanes one cycle: evaluate, then latch every
// flip-flop lane-wise.
func (b *Batch) ClockBatch() {
	if b.walk {
		b.walkSettle()
		b.st.latch()
	} else {
		b.st.clock()
	}
	b.dirty = true
}

// settle evaluates the combinational fabric for all lanes at once:
// the compiled program by default, or the legacy walker when selected.
func (b *Batch) settle() {
	if !b.walk {
		b.st.settle()
		b.dirty = false
		return
	}
	b.walkSettle()
}

// walkSettle is the original description-walking evaluator, running
// over the same register file as the compiled program — the ground
// truth the compiled kernel is pinned against.
func (b *Batch) walkSettle() {
	nets := b.st.regs
	nets[0] = 0
	nets[1] = ^uint64(0)
	for i, ff := range b.desc.FFs {
		nets[ff.Q] = b.st.ff[i]
	}
	for _, item := range b.desc.Eval {
		switch item.Kind {
		case bitstream.EvalLUT:
			rec := &b.desc.LUTs[item.Index]
			rows := b.st.rows[item.Index]
			if rec.O5 != bitstream.NoNet {
				// Fractured LUT: a6 selects the half (Fig 4); only the
				// first five inputs address within a half.
				k := min(len(rec.Inputs), 5)
				nets[rec.O5] = b.reduce(rows, k, rec.Inputs)
				nets[rec.O6] = b.reduce(rows[32:], k, rec.Inputs)
			} else {
				nets[rec.O6] = b.reduce(rows, len(rec.Inputs), rec.Inputs)
			}
		case bitstream.EvalBRAM:
			rec := &b.desc.BRAMs[item.Index]
			if len(rec.Addr) == 0 && b.primed {
				// Constant ROM: its output lane masks were computed on the
				// first settle and nothing can change them.
				continue
			}
			over := b.bramOver[item.Index]
			words := b.gather[:b.lanes]
			for L := range words {
				addr := 0
				for i, a := range rec.Addr {
					addr |= int(nets[a]>>uint(L)&1) << uint(i)
				}
				tab := b.bramTab[item.Index]
				if over != nil && over[L] != nil {
					tab = over[L]
				}
				words[L] = tab[addr]
			}
			// Scatter the per-lane words back into bitsliced output nets:
			// a 64x64 bit-matrix transpose turns "bit bi of words[L]" into
			// "bit L of row bi" in one pass, far cheaper than a per-out
			// per-lane gather loop. Rows for lanes >= b.lanes carry stale
			// bits, which is harmless: bit L of any net only ever depends
			// on bit L of other nets, and ReadLanes masks to active lanes.
			transpose64(&b.gather)
			for bi, out := range rec.Out {
				nets[out] = b.gather[bi]
			}
		case bitstream.EvalAdder:
			rec := &b.desc.Adders[item.Index]
			var carry uint64
			for i := range rec.A {
				av, bv := nets[rec.A[i]], nets[rec.B[i]]
				x := av ^ bv
				nets[rec.Sum[i]] = x ^ carry
				carry = av&bv | carry&x
			}
		}
	}
	b.dirty = false
	b.primed = true
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

// reduce collapses the first 1<<k transposed truth-table rows through a
// mux tree addressed by the LUT's input nets — the bitsliced equivalent
// of TT.Eval over k inputs for all lanes at once.
func (b *Batch) reduce(rows []uint64, k int, inputs []uint32) uint64 {
	if k == 0 {
		return rows[0]
	}
	// The top mux level reads straight from the rows, halving the work
	// compared to copying all 1<<k rows into scratch first.
	half := 1 << uint(k-1)
	sel := b.st.regs[inputs[k-1]]
	v := b.st.rscratch[:half]
	for m := 0; m < half; m++ {
		v[m] = sel&rows[m|half] | ^sel&rows[m]
	}
	for j := k - 2; j >= 0; j-- {
		sel = b.st.regs[inputs[j]]
		half >>= 1
		for m := 0; m < half; m++ {
			v[m] = sel&v[m|half] | ^sel&v[m]
		}
	}
	return v[0]
}
