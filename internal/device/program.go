package device

import (
	"sync"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/obs"
)

// A description walker re-interprets the Description on every settle:
// each LUT re-reduces a 2^k mux tree, each BRAM re-gathers per-lane
// addresses bit by bit (the fabric harness keeps one as its test-side
// oracle). compile flattens a loaded configuration once into a Program
// — a topologically-ordered flat instruction slice over dense register
// slots (slot = net id; synthesis temporaries follow) — and every Batch,
// the scalar FPGA's one-lane Batch included, runs that bytecode over
// []uint64 words. LUT truth tables are synthesized into short
// Shannon-decomposition micro-programs (a 3-input routing mux becomes
// one fused instruction instead of a 7-mux tree), and parity cones
// become a single XOR-chain instruction. Block RAMs are batched into
// groups that share one 64x64 address transpose and pack every member's
// output words into one shared scatter transpose, so a group costs two
// transposes per settle however many RAMs it holds. Inputs tied to
// the constant nets 0/1 are folded
// out of the truth table at compile time, and constant ROMs become a
// prologue that runs once per state instead of on every settle.
//
// Patching never recompiles: a truth-table change rewrites only the
// affected LUT's instruction site to the generic reduce form over
// per-state rows, and a BRAM change swaps the per-(BRAM,lane) table
// pointer and re-runs the constant-ROM prologue. The Program itself is
// immutable and shared; every mutable operand table lives in progState.

// Opcodes of the compiled program. Two-input fused forms cover every
// Shannon-decomposition special case so a typical routing LUT costs one
// or two instructions.
const (
	opNop      = iota // patched-out slot
	opConst0          // dst = 0
	opConst1          // dst = ^0
	opCopy            // dst = a
	opNot             // dst = ^a
	opAnd             // dst = a & b
	opOr              // dst = a | b
	opXor             // dst = a ^ b
	opAndN            // dst = a &^ b
	opOrN             // dst = a | ^b
	opNand            // dst = ^(a & b)
	opNor             // dst = ^(a | b)
	opXnor            // dst = ^(a ^ b)
	opMux             // dst = c ? a : b
	opMuxNA           // dst = c ? ^a : b
	opMuxNB           // dst = c ? a : ^b
	opMuxNAB          // dst = ^(c ? a : b)
	opXorMuxA         // dst = c ? a.lo^a.hi : b (peephole-fused xor + mux)
	opXorMuxB         // dst = c ? b : a.lo^a.hi
	opXnorMuxA        // dst = c ? ^(a.lo^a.hi) : b
	opXnorMuxB        // dst = c ? b : ^(a.lo^a.hi)
	opXorK            // dst = (^)args[a : a+n] xor-chain, c=1 complements
	opReduce          // dst = mux-reduce of rows[lut=a][c:c+1<<n] by LUT inputs
	opBRAM            // evaluate bramGroups[a]
	opAdder           // ripple-evaluate desc.Adders[a]
)

// insn is one compiled instruction. Operand meaning depends on op; dst
// and the register operands b/c index the state's regs slice, and a
// does too except where the opcode table above notes an index meaning
// (args offset, LUT/group/adder index). Register operands are uint16 —
// the fabric capacity check in validate guarantees every slot fits —
// which keeps the instruction at 12 bytes, and the settle loop streams
// 40% less memory for it.
type insn struct {
	a   uint32 // register, or args offset / LUT / group / adder index
	dst uint16
	b   uint16
	c   uint16
	op  uint8
	n   uint8 // k for opReduce, chain length for opXorK
}

// lutSite locates the instruction range a LUT compiled to, so a
// truth-table patch can rewrite exactly those slots.
type lutSite struct {
	off int32
	n   int32
}

// bramMember is one block RAM inside a bramGroup: where its address
// bits sit in the packed per-lane address word and where its outputs
// scatter to.
type bramMember struct {
	bram    int      // index into desc.BRAMs and the state tab array
	addr    []uint32 // address nets, LSB first
	addrOff uint     // bit offset within the packed per-lane address
	mask    uint64   // (1 << len(addr)) - 1
	outs    []uint32 // output nets, LSB first
	outMask uint64   // keeps only len(outs) bits of a table entry
}

// packEntry is one member's lookup parameters flattened into a pack:
// where its address sits in the packed per-lane address word and where
// its table bits land in the pack's output word.
type packEntry struct {
	bram    int
	addrOff uint
	shift   uint
	mask    uint64
	outMask uint64
}

// bramPack packs up to 64 output bits of consecutive members into one
// per-lane word, so a single scatter transpose serves them all — the
// eight 8-bit S-box RAMs of the design share one transpose this way.
type bramPack struct {
	entries []packEntry
	dsts    []uint32 // transposed row index -> destination register
}

// bramGroup is a run of consecutive, address-independent block RAMs
// evaluated together: one transpose yields every member's per-lane
// address, then each pack does its lookups and one scatter transpose.
type bramGroup struct {
	members []bramMember
	packs   []bramPack
}

// constROM is an address-less BRAM: its outputs are configuration
// constants, computed by the prologue instead of on every settle.
type constROM struct {
	bram int
	outs []uint32
}

// CompileStats summarizes one Description->Program compilation; the
// attack report surfaces them next to the batch-sweep counters.
type CompileStats struct {
	Insns        int // settle-body instructions
	Temps        int // synthesis temporaries beyond the net slots
	ShannonLUTs  int // LUTs compiled to fused-op micro-programs
	ParityLUTs   int // LUT outputs compiled to one XOR chain
	FoldedInputs int // LUT inputs tied to const-0/const-1 and folded out
	BRAMGroups   int // shared-transpose BRAM groups
	ConstROMs    int // address-less BRAMs moved to the prologue
}

// Program is an immutable compiled form of one loaded configuration.
// It is shared by every evaluator state built over the same base; all
// patchable data lives in progState.
type Program struct {
	desc   *bitstream.Description
	baseTT []boolfn.TT // truth tables the instruction stream encodes
	insns  []insn
	args   []uint32 // operand pool for opXorK
	sites  []lutSite
	groups []bramGroup
	consts []constROM
	// ffQ/ffD are the flip-flop nets flattened out of desc.FFs, so the
	// per-settle inject and per-clock latch loops stream one dense
	// uint32 array instead of striding through the record structs.
	ffQ, ffD []uint32
	// ffSafe reports that no evaluation item, input pin or constant net
	// writes a flip-flop Q net. Then Q registers survive across settles
	// and a clock edge is just the hazard-ordered ffCopies list
	// (regs[Q] = regs[D]), eliminating both the per-settle inject and
	// the per-clock latch loop. When the check fails (adversarial
	// descriptions), the classic ff-array inject/latch path runs.
	ffSafe   bool
	ffCopies []regCopy
	nregs    uint32
	stats    CompileStats
	// inPins and outPins map the description's port names to their nets.
	inPins, outPins map[string]uint32
}

// regCopy is one ordered move of the fused clock edge: n register
// slots starting at src copied to the slots starting at dst. The
// planner coalesces runs of adjacent single moves (an LFSR shift is
// hundreds of FFs with consecutive slot numbers) into block copies
// whenever the two ranges are disjoint, so the seed design's 640-FF
// edge executes as three copy() calls.
type regCopy struct {
	dst, src, n uint32
}

// progState is the mutable half of a compiled evaluator: register file,
// flip-flop state, the state-private instruction copy (so patches
// rewrite operand tables without touching the shared Program), resolved
// per-(BRAM,lane) tables and the scratch buffers. Every register slot is
// one 64-lane word: bit L of regs[s] is slot s in lane L. A progState,
// like the Batch wrapping it, is not safe for concurrent use; distinct
// states over one Program are independent.
type progState struct {
	prog  *Program
	lanes int
	regs  []uint64
	ff    []uint64
	insns []insn
	// runs caches the instruction stream grouped into maximal
	// consecutive same-opcode spans; settle dispatches once per run
	// instead of once per instruction (and opNop runs vanish wholesale).
	// Site patches invalidate it (runsDirty) and the next settle
	// rebuilds.
	runs      []insnRun
	runsDirty bool
	// rows[i] is LUT i's 64 transposed truth-table rows, built from the
	// base table on its first patch (nil before).
	rows        [][]uint64
	sitePatched []bool
	// tabs[b*MaxLanes+L] is the content table lane L of BRAM b reads;
	// tabUniform[b] reports that all lanes still share one table, which
	// lets the group lookup loop hoist the table header out of the
	// per-lane loop.
	tabs       [][]uint64
	tabUniform []bool
	// Fused clock edge (ffSafe programs only): once the first settle has
	// injected the ff array, Q registers stay live in regs (ffInline) and
	// a clock edge merely defers the ordered ffCopies to the next settle
	// (pendingLatch). materializeFF folds the state back into ff before
	// anything reads or overwrites the array directly.
	ffInline     bool
	pendingLatch bool
	// scratch/scratch2 are the 64x64 transpose buffers of the BRAM
	// groups; rscratch holds the mux-reduce tree.
	scratch  [LaneWordBits]uint64
	scratch2 [LaneWordBits]uint64
	rscratch [32]uint64
}

// insnRun is one maximal span of consecutive same-opcode instructions
// [lo, hi) in a state's instruction stream.
type insnRun struct {
	lo, hi int32
	op     uint8
}

// buildRuns regroups the instruction stream into opcode runs, dropping
// opNop spans (patched-out slots) entirely.
func (st *progState) buildRuns() {
	st.runs = st.runs[:0]
	insns := st.insns
	for i := 0; i < len(insns); {
		op := insns[i].op
		j := i + 1
		for j < len(insns) && insns[j].op == op {
			j++
		}
		if op != opNop {
			st.runs = append(st.runs, insnRun{lo: int32(i), hi: int32(j), op: op})
		}
		i = j
	}
	st.runsDirty = false
}

// ---------------------------------------------------------------------
// Compilation

type compiler struct {
	desc  *bitstream.Description
	tts   []boolfn.TT
	insns []insn
	args  []uint32
	sites []lutSite
	nets  uint32 // register slots below the temp range
	temps int    // high-water temp count across sites
	stats CompileStats
	// plan and memo are the synthesis scratch maps, allocated once and
	// shared across every site of this compilation: plan entries depend
	// only on the (folded) truth table, so they carry between sites,
	// while memo maps functions to registers and is cleared per site.
	plan map[boolfn.TT]planEntry
	memo map[boolfn.TT]uint32
}

// compile flattens a decoded configuration into a Program. The
// description must already have passed validate.
func compile(desc *bitstream.Description, tts []boolfn.TT, tel *obs.Telemetry) *Program {
	span := tel.StartSpan("device.compile",
		obs.KV("luts", len(desc.LUTs)), obs.KV("eval_items", len(desc.Eval)))
	defer span.End()
	c := &compiler{
		desc:  desc,
		tts:   tts,
		sites: make([]lutSite, len(desc.LUTs)),
		nets:  max(desc.NumNets, 2),
		plan:  map[boolfn.TT]planEntry{},
		memo:  map[boolfn.TT]uint32{},
	}
	var groups []bramGroup
	var consts []constROM
	openIdx := -1     // group accepting the current BRAM run
	var openBits uint // address bits packed so far
	var openOuts map[uint32]bool
	closeGroup := func() {
		if openIdx >= 0 {
			groups[openIdx].packs = packMembers(groups[openIdx].members)
			openIdx = -1
		}
	}
	for _, item := range desc.Eval {
		switch item.Kind {
		case bitstream.EvalLUT:
			closeGroup()
			c.compileLUT(int(item.Index))
		case bitstream.EvalBRAM:
			rec := &desc.BRAMs[item.Index]
			if len(rec.Addr) == 0 {
				// Constant ROM: outputs never change after the prologue.
				// It stays transparent to grouping — it writes no nets a
				// later member could depend on during the run.
				consts = append(consts, constROM{bram: int(item.Index), outs: rec.Out})
				continue
			}
			m := bramMember{
				bram:    int(item.Index),
				addr:    rec.Addr,
				mask:    1<<uint(len(rec.Addr)) - 1,
				outs:    rec.Out,
				outMask: outMaskFor(len(rec.Out)),
			}
			if openIdx >= 0 && openBits+uint(len(rec.Addr)) <= LaneWordBits && independent(rec.Addr, openOuts) {
				m.addrOff = openBits
				openBits += uint(len(rec.Addr))
				groups[openIdx].members = append(groups[openIdx].members, m)
			} else {
				closeGroup()
				groups = append(groups, bramGroup{members: []bramMember{m}})
				openIdx = len(groups) - 1
				openBits = uint(len(rec.Addr))
				openOuts = map[uint32]bool{}
				c.insns = append(c.insns, insn{op: opBRAM, a: uint32(openIdx)})
			}
			for _, out := range rec.Out {
				openOuts[out] = true
			}
		case bitstream.EvalAdder:
			closeGroup()
			c.insns = append(c.insns, insn{op: opAdder, a: item.Index})
		}
	}
	closeGroup()
	fuseMuxPairs(c)
	c.stats.Insns = len(c.insns)
	c.stats.Temps = c.temps
	c.stats.BRAMGroups = len(groups)
	c.stats.ConstROMs = len(consts)
	ffQ := make([]uint32, len(desc.FFs))
	ffD := make([]uint32, len(desc.FFs))
	for i, ff := range desc.FFs {
		ffQ[i], ffD[i] = ff.Q, ff.D
	}
	nregs := c.nets + uint32(c.temps)
	ffSafe, ffCopies, ffTemps := planClockEdge(desc, nregs)
	nregs += uint32(ffTemps)
	p := &Program{
		desc:     desc,
		ffQ:      ffQ,
		ffD:      ffD,
		ffSafe:   ffSafe,
		ffCopies: ffCopies,
		baseTT:   append([]boolfn.TT(nil), tts...),
		insns:    c.insns,
		args:     c.args,
		sites:    c.sites,
		groups:   groups,
		consts:   consts,
		nregs:    nregs,
		stats:    c.stats,
		inPins:   map[string]uint32{},
		outPins:  map[string]uint32{},
	}
	for _, port := range desc.Ports {
		if port.Dir == bitstream.In {
			p.inPins[port.Name] = port.Net
		} else {
			p.outPins[port.Name] = port.Net
		}
	}
	span.SetAttr("insns", p.stats.Insns)
	tel.Counter("device.compiles").Inc()
	tel.Counter("device.compile_insns").Add(int64(p.stats.Insns))
	tel.Counter("device.compile_folded_inputs").Add(int64(p.stats.FoldedInputs))
	return p
}

// fuseMuxPairs rewrites each xor/xnor whose single-use temporary feeds
// the immediately following plain mux within the same LUT site into one
// fused instruction (the temporary pair packs into the 32-bit a field),
// then compacts the instruction list and remaps the site table. The
// SNOW 3G fabric synthesizes well over a hundred such pairs, and each
// fusion drops a register store, a load and a dispatch from the settle
// loop. Patching is unaffected: a reconfigured site is nopped wholesale
// regardless of how its slots were fused.
func fuseMuxPairs(c *compiler) {
	// Temporary slots are reused site to site, so "single use" is a
	// liveness question, not a count: t is fusable when, past the
	// consumer, the next instruction touching its slot overwrites it.
	readsT := func(ins *insn, t uint32) bool {
		switch ins.op {
		case opCopy, opNot:
			return ins.a == t
		case opAnd, opOr, opXor, opAndN, opOrN, opNand, opNor, opXnor:
			return ins.a == t || uint32(ins.b) == t
		case opMux, opMuxNA, opMuxNB, opMuxNAB:
			return ins.a == t || uint32(ins.b) == t || uint32(ins.c) == t
		case opXorMuxA, opXorMuxB, opXnorMuxA, opXnorMuxB:
			return ins.a&0xffff == t || ins.a>>16 == t || uint32(ins.b) == t || uint32(ins.c) == t
		}
		return false
	}
	writesT := func(ins *insn, t uint32) bool {
		switch ins.op {
		case opNop, opBRAM, opAdder:
			return false
		}
		return uint32(ins.dst) == t
	}
	deadAfter := func(from int32, t uint32) bool {
		for j := from; j < int32(len(c.insns)); j++ {
			if readsT(&c.insns[j], t) {
				return false
			}
			if writesT(&c.insns[j], t) {
				return true
			}
		}
		return true
	}
	dead := make([]bool, len(c.insns))
	removed := 0
	for s := range c.sites {
		site := c.sites[s]
		for i := site.off; i < site.off+site.n-1; i++ {
			p, q := &c.insns[i], &c.insns[i+1]
			if (p.op != opXor && p.op != opXnor) || q.op != opMux {
				continue
			}
			t := uint32(p.dst)
			if t < c.nets || uint32(q.c) == t || !deadAfter(i+2, t) {
				continue
			}
			onA, onB := q.a == t, uint32(q.b) == t
			if onA == onB {
				continue
			}
			switch {
			case p.op == opXor && onA:
				q.op = opXorMuxA
			case p.op == opXor:
				q.op = opXorMuxB
			case onA:
				q.op = opXnorMuxA
			default:
				q.op = opXnorMuxB
			}
			if onB {
				q.b = uint16(q.a)
			}
			q.a = p.a | uint32(p.b)<<16
			dead[i] = true
			removed++
		}
	}
	if removed == 0 {
		return
	}
	newIdx := make([]int32, len(c.insns)+1)
	out := c.insns[:0]
	for i, ins := range c.insns {
		newIdx[i] = int32(len(out))
		if !dead[i] {
			out = append(out, ins)
		}
	}
	newIdx[len(c.insns)] = int32(len(out))
	c.insns = out
	for s := range c.sites {
		site := &c.sites[s]
		end := newIdx[site.off+site.n]
		site.off = newIdx[site.off]
		site.n = end - site.off
	}
}

func outMaskFor(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}

// independent reports that none of the address nets is driven by a BRAM
// already in the open group — the condition for hoisting this member's
// address gather to the group's shared transpose.
func independent(addr []uint32, groupOuts map[uint32]bool) bool {
	for _, a := range addr {
		if groupOuts[a] {
			return false
		}
	}
	return true
}

// packMembers greedily packs consecutive members into 64-bit output
// words: every member whose output bits still fit joins the open pack.
func packMembers(members []bramMember) []bramPack {
	var packs []bramPack
	for i := 0; i < len(members); {
		var p bramPack
		shift := 0
		for i < len(members) && (len(p.entries) == 0 || shift+len(members[i].outs) <= 64) {
			m := &members[i]
			p.entries = append(p.entries, packEntry{
				bram:    m.bram,
				addrOff: m.addrOff,
				shift:   uint(shift),
				mask:    m.mask,
				outMask: m.outMask,
			})
			p.dsts = append(p.dsts, m.outs...)
			shift += len(m.outs)
			i++
		}
		packs = append(packs, p)
	}
	return packs
}

// planClockEdge checks the ffSafe invariant — no LUT/BRAM/adder output,
// input port or constant net coincides with a flip-flop Q net, and Q
// nets are unique — and sequentializes the parallel clock-edge move set
// {regs[Q_i] <- regs[D_i]} into an order with no write-before-read
// hazard. Direct Q->D chains (shift registers) force ordering; pure FF
// cycles (ring counters) are broken with a temporary register starting
// at tempBase. Returns (safe, ordered copies, temporaries used).
func planClockEdge(desc *bitstream.Description, tempBase uint32) (bool, []regCopy, int) {
	qIdx := make(map[uint32]int, len(desc.FFs))
	for i, ff := range desc.FFs {
		if ff.Q < 2 {
			return false, nil, 0
		}
		if _, dup := qIdx[ff.Q]; dup {
			return false, nil, 0
		}
		qIdx[ff.Q] = i
	}
	isQ := func(net uint32) bool { _, ok := qIdx[net]; return ok }
	for _, p := range desc.Ports {
		if p.Dir == bitstream.In && isQ(p.Net) {
			return false, nil, 0
		}
	}
	for _, l := range desc.LUTs {
		if isQ(l.O6) || (l.O5 != bitstream.NoNet && isQ(l.O5)) {
			return false, nil, 0
		}
	}
	for _, b := range desc.BRAMs {
		for _, o := range b.Out {
			if isQ(o) {
				return false, nil, 0
			}
		}
	}
	for _, a := range desc.Adders {
		for _, s := range a.Sum {
			if isQ(s) {
				return false, nil, 0
			}
		}
	}
	copies := make([]regCopy, 0, len(desc.FFs))
	for _, ff := range desc.FFs {
		if ff.Q != ff.D {
			copies = append(copies, regCopy{dst: ff.Q, src: ff.D})
		}
	}
	readers := make(map[uint32]int, len(copies))
	byDst := make(map[uint32]int, len(copies))
	for i, cp := range copies {
		readers[cp.src]++
		byDst[cp.dst] = i
	}
	order := make([]regCopy, 0, len(copies))
	done := make([]bool, len(copies))
	remaining := len(copies)
	temps := 0
	var queue []int
	for i, cp := range copies {
		if readers[cp.dst] == 0 {
			queue = append(queue, i)
		}
	}
	for remaining > 0 {
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			cp := copies[i]
			order = append(order, cp)
			done[i] = true
			remaining--
			if readers[cp.src]--; readers[cp.src] == 0 {
				if j, ok := byDst[cp.src]; ok && !done[j] {
					queue = append(queue, j)
				}
			}
		}
		if remaining == 0 {
			break
		}
		// Every undone copy's destination is still read: a pure FF cycle.
		// Spill one destination to a temporary and redirect its readers.
		i := 0
		for done[i] {
			i++
		}
		t := tempBase + uint32(temps)
		temps++
		order = append(order, regCopy{dst: t, src: copies[i].dst})
		for j := range copies {
			if !done[j] && copies[j].src == copies[i].dst {
				copies[j].src = t
			}
		}
		readers[copies[i].dst] = 0
		queue = append(queue, i)
	}
	return true, coalesceCopies(order), temps
}

// coalesceCopies merges runs of single-slot moves whose destination and
// source step together (in either direction) into one block move. The
// merge is sound only when the block's source and destination ranges do
// not overlap: then a copy() of the whole range has exactly the effect
// of the run executed in its planned order. Overlapping or irregular
// moves stay as single-slot entries (n=1) in their original sequence.
func coalesceCopies(order []regCopy) []regCopy {
	out := order[:0]
	for i := 0; i < len(order); {
		j := i + 1
		var step uint32
		if j < len(order) {
			switch {
			case order[j].dst == order[i].dst+1 && order[j].src == order[i].src+1:
				step = 1
			case order[j].dst == order[i].dst-1 && order[j].src == order[i].src-1:
				step = ^uint32(0)
			}
		}
		if step != 0 {
			for j < len(order) && order[j].dst == order[j-1].dst+step && order[j].src == order[j-1].src+step {
				j++
			}
		}
		n := uint32(j - i)
		lo := order[i]
		if order[j-1].dst < lo.dst {
			lo = order[j-1]
		}
		if n > 1 && (lo.dst+n <= lo.src || lo.src+n <= lo.dst) {
			out = append(out, regCopy{dst: lo.dst, src: lo.src, n: n})
			i = j
			continue
		}
		for ; i < j; i++ {
			out = append(out, regCopy{dst: order[i].dst, src: order[i].src, n: 1})
		}
	}
	return out
}

// foldTT canonicalizes a raw k-input truth table into a full 6-variable
// table: don't-care bits above 2^k are forced to the low cofactor
// (matching walker semantics, which never index them), and inputs tied
// to the constant nets fold to their cofactor so synthesis never reads
// them. Returns the folded table and the number of folded inputs.
func foldTT(tt boolfn.TT, inputs []uint32, k int) (boolfn.TT, int) {
	for j := k; j < boolfn.MaxVars; j++ {
		tt = tt.Cofactor(j, false)
	}
	folded := 0
	for j := 0; j < k; j++ {
		switch inputs[j] {
		case 0:
			tt = tt.Cofactor(j, false)
			folded++
		case 1:
			tt = tt.Cofactor(j, true)
			folded++
		}
	}
	return tt, folded
}

// compileLUT synthesizes one LUT's outputs into fused instructions.
func (c *compiler) compileLUT(idx int) {
	rec := &c.desc.LUTs[idx]
	tt := c.tts[idx]
	off := len(c.insns)
	clear(c.memo) // registers are site-local; the plan carries over
	s := &synthCtx{c: c, inputs: rec.Inputs, memo: c.memo, plan: c.plan}
	if rec.O5 != bitstream.NoNet {
		// Fractured LUT: a6 selects the half; each half is a function of
		// the first min(k,5) inputs. One memo across both halves shares
		// common cofactors.
		k := min(len(rec.Inputs), 5)
		lo, f0 := foldTT(tt.Cofactor(5, false), rec.Inputs, k)
		hi, f1 := foldTT(tt.Cofactor(5, true), rec.Inputs, k)
		c.stats.FoldedInputs += f0 + f1
		s.synthOutput(lo, rec.O5)
		s.synthOutput(hi, rec.O6)
	} else {
		f, n := foldTT(tt, rec.Inputs, len(rec.Inputs))
		c.stats.FoldedInputs += n
		s.synthOutput(f, rec.O6)
	}
	c.stats.ShannonLUTs++
	if s.temp > c.temps {
		c.temps = s.temp
	}
	c.sites[idx] = lutSite{off: int32(off), n: int32(len(c.insns) - off)}
}

// rowsFromTT builds the 64 transposed truth-table rows with the given
// lane mask set on 1-bits.
func rowsFromTT(tt boolfn.TT, lanemask uint64) []uint64 {
	rows := make([]uint64, 64)
	for m := range rows {
		if tt>>uint(m)&1 == 1 {
			rows[m] = lanemask
		}
	}
	return rows
}

// synthCtx synthesizes one LUT site. Registers are uint32 slot indices:
// nets below c.nets, temporaries above. Synthesis plans first — an
// exhaustive memoized search over Shannon split variables, so a routing
// mux compiles to one instruction no matter where the mapper put its
// select input — then emits along the chosen decomposition with
// cofactor sharing.
type synthCtx struct {
	c      *compiler
	inputs []uint32
	memo   map[boolfn.TT]uint32
	plan   map[boolfn.TT]planEntry
	temp   int
}

type planEntry struct {
	cost int16
	v    int8 // chosen split variable
}

// planCost returns the minimal instruction count to synthesize f,
// choosing the Shannon split variable exhaustively. Emit-time cofactor
// sharing can only lower the real cost below this bound.
func (s *synthCtx) planCost(f boolfn.TT) int {
	if f == 0 || f == ^boolfn.TT(0) {
		return 0
	}
	sup, n := support(f)
	switch n {
	case 1:
		if f == boolfn.Var(sup[0]) {
			return 0
		}
		return 1 // complemented input
	case 2:
		return 1 // any 2-variable function is one fused instruction
	}
	if e, ok := s.plan[f]; ok {
		return int(e.cost)
	}
	planMu.RLock()
	e, cached := planCache[f]
	planMu.RUnlock()
	if cached {
		s.plan[f] = e
		return int(e.cost)
	}
	best, bestV := int(^uint(0)>>1), -1
	for _, v := range sup[:n] {
		f0, f1 := f.Cofactor(v, false), f.Cofactor(v, true)
		var c int
		switch {
		case f1 == ^f0:
			c = s.planCost(f0) + 1
		case f0 == 0, f0 == ^boolfn.TT(0):
			c = s.planCost(f1) + 1
		case f1 == 0, f1 == ^boolfn.TT(0):
			c = s.planCost(f0) + 1
		default:
			cf0, cf1 := s.planCost(f0), s.planCost(f1)
			// A complemented-input data leg fuses into the mux itself
			// (opMuxNA/NB/NAB), costing nothing.
			if isNegLeaf(f0) {
				cf0 = 0
			}
			if isNegLeaf(f1) {
				cf1 = 0
			}
			c = cf0 + cf1 + 1
		}
		if c < best {
			best, bestV = c, v
		}
	}
	e = planEntry{cost: int16(best), v: int8(bestV)}
	s.plan[f] = e
	planMu.Lock()
	if len(planCache) < planCacheMax {
		planCache[f] = e
	}
	planMu.Unlock()
	return best
}

// planCache memoizes the exhaustive Shannon-split search per (folded)
// truth table across compilations: every compile of one design — a
// fresh process's first victim, a candidate whose patch reaches the
// description — plans the same functions, and the plan depends only on
// the function, never on routing. Bounded so adversarial streams of
// random designs cannot grow memory without limit.
var (
	planMu    sync.RWMutex
	planCache = map[boolfn.TT]planEntry{}
)

const planCacheMax = 1 << 16

func (s *synthCtx) alloc() uint32 {
	r := s.c.nets + uint32(s.temp)
	s.temp++
	return r
}

func (s *synthCtx) emit(op uint8, a, b, sel uint32) uint32 {
	dst := s.alloc()
	s.c.insns = append(s.c.insns, insn{op: op, dst: uint16(dst), a: a, b: uint16(b), c: uint16(sel)})
	return dst
}

// synthOutput synthesizes f into dst, retargeting the final instruction
// when possible so buffer copies only appear for pass-through LUTs.
func (s *synthCtx) synthOutput(f boolfn.TT, dst uint32) {
	switch f {
	case 0:
		s.c.insns = append(s.c.insns, insn{op: opConst0, dst: uint16(dst)})
		return
	case ^boolfn.TT(0):
		s.c.insns = append(s.c.insns, insn{op: opConst1, dst: uint16(dst)})
		return
	}
	if sup, n := support(f); n >= 3 {
		p := boolfn.TT(0)
		for _, j := range sup[:n] {
			p ^= boolfn.Var(j)
		}
		if f == p || f == ^p {
			argOff := uint32(len(s.c.args))
			for _, j := range sup[:n] {
				s.c.args = append(s.c.args, s.inputs[j])
			}
			comp := 0
			if f == ^p {
				comp = 1
			}
			s.c.insns = append(s.c.insns, insn{op: opXorK, n: uint8(n), dst: uint16(dst), a: argOff, c: uint16(comp)})
			s.c.stats.ParityLUTs++
			return
		}
	}
	r := s.synth(f)
	if n := len(s.c.insns); r >= s.c.nets && n > 0 && uint32(s.c.insns[n-1].dst) == r {
		// The value was produced by the instruction just emitted: write
		// it straight to the output net and keep the memo consistent.
		s.c.insns[n-1].dst = uint16(dst)
		for k, v := range s.memo {
			if v == r {
				s.memo[k] = dst
			}
		}
		return
	}
	s.c.insns = append(s.c.insns, insn{op: opCopy, dst: uint16(dst), a: r})
}

// synth returns a register holding f, emitting instructions as needed.
// Shannon decomposition on the planned split variable, with fused forms
// for the constant and complement cofactor cases and memoized sharing
// of repeated cofactors within the site.
func (s *synthCtx) synth(f boolfn.TT) uint32 {
	if f == 0 {
		return 0 // const-0 net
	}
	if f == ^boolfn.TT(0) {
		return 1 // const-1 net
	}
	if r, ok := s.memo[f]; ok {
		return r
	}
	sup, n := support(f)
	var r uint32
	if n <= 2 {
		r = s.emitSmall(f, &sup, n)
		s.memo[f] = r
		return r
	}
	s.planCost(f)
	v := int(s.plan[f].v)
	in := s.inputs[v]
	switch f0, f1 := f.Cofactor(v, false), f.Cofactor(v, true); {
	case f1 == ^f0:
		r = s.emit(opXor, in, s.synth(f0), 0)
	case f0 == 0:
		r = s.emit(opAnd, in, s.synth(f1), 0)
	case f1 == 0:
		r = s.emit(opAndN, s.synth(f0), in, 0)
	case f0 == ^boolfn.TT(0):
		r = s.emit(opOrN, s.synth(f1), in, 0)
	case f1 == ^boolfn.TT(0):
		r = s.emit(opOr, in, s.synth(f0), 0)
	default:
		// Complemented single-input data legs fuse into the mux: the
		// not+mux pairs of the design's routing cones become one
		// instruction.
		in1, n1 := s.negLeaf(f1)
		in0, n0 := s.negLeaf(f0)
		switch {
		case n1 && n0:
			r = s.emit(opMuxNAB, in1, in0, in)
		case n1:
			r = s.emit(opMuxNA, in1, s.synth(f0), in)
		case n0:
			r = s.emit(opMuxNB, s.synth(f1), in0, in)
		default:
			r1 := s.synth(f1)
			r0 := s.synth(f0)
			r = s.emit(opMux, r1, r0, in)
		}
	}
	s.memo[f] = r
	return r
}

// negLeaf reports that f is the complement of a single input variable
// and returns that input's register, letting a mux absorb the
// complement instead of spending an opNot.
func (s *synthCtx) negLeaf(f boolfn.TT) (uint32, bool) {
	if !isNegLeaf(f) {
		return 0, false
	}
	sup, _ := support(f)
	return s.inputs[sup[0]], true
}

func isNegLeaf(f boolfn.TT) bool {
	sup, n := support(f)
	return n == 1 && f == ^boolfn.Var(sup[0])
}

// emitSmall produces any function of at most two live variables as a
// single instruction — the leaf level of the decomposition, where a
// 16-way table beats further splitting (no separate NOT for the
// complemented forms). sup holds f's n live variables.
func (s *synthCtx) emitSmall(f boolfn.TT, sup *[boolfn.MaxVars]int, n int) uint32 {
	if n == 1 {
		in := s.inputs[sup[0]]
		if f == boolfn.Var(sup[0]) {
			return in
		}
		return s.emit(opNot, in, 0, 0)
	}
	u, v := s.inputs[sup[0]], s.inputs[sup[1]]
	// p is f's truth table over (u,v): bit (uVal + 2*vVal).
	var p uint
	for m := uint(0); m < 4; m++ {
		fu := f.Cofactor(sup[0], m&1 == 1)
		if fu.Cofactor(sup[1], m&2 == 2) == ^boolfn.TT(0) {
			p |= 1 << m
		}
	}
	switch p {
	case 0b0110:
		return s.emit(opXor, u, v, 0)
	case 0b1001:
		return s.emit(opXnor, u, v, 0)
	case 0b1000:
		return s.emit(opAnd, u, v, 0)
	case 0b1110:
		return s.emit(opOr, u, v, 0)
	case 0b0001:
		return s.emit(opNor, u, v, 0)
	case 0b0111:
		return s.emit(opNand, u, v, 0)
	case 0b0010:
		return s.emit(opAndN, u, v, 0)
	case 0b0100:
		return s.emit(opAndN, v, u, 0)
	case 0b1011:
		return s.emit(opOrN, u, v, 0)
	case 0b1101:
		return s.emit(opOrN, v, u, 0)
	}
	panic("device: emitSmall: function is not 2-variable")
}

// support lists the live variables of f in sup[:n], ascending. Bit-
// parallel: variable j is live iff the two halves of the table along j
// differ, i.e. shifting the m_j=1 bits onto the m_j=0 positions changes
// the masked table. A fixed array rather than an appended slice keeps
// the synthesis search, which asks for the support of every cofactor it
// visits, free of heap allocation.
func support(f boolfn.TT) (sup [boolfn.MaxVars]int, n int) {
	for j := 0; j < boolfn.MaxVars; j++ {
		v := boolfn.Var(j)
		if (f>>(uint(1)<<j))&^v != f&^v {
			sup[n] = j
			n++
		}
	}
	return sup, n
}

// ---------------------------------------------------------------------
// Evaluation state

// newProgState builds an evaluator state over p for the given truth
// tables and BRAM content. tts may differ from the compiled base (after
// a patch-only partial reconfiguration); differing LUTs are installed
// through the patch path. Flip-flops start at their init values and the
// constant-ROM prologue has run.
func newProgState(p *Program, tts []boolfn.TT, tabs [][]uint64, lanes int) *progState {
	st := &progState{
		prog:  p,
		lanes: lanes,
		// The register file is allocated at the full 2^16 slot space a
		// uint16 operand can address, not at nregs: the settle loop
		// reslices it to that constant length, which lets the compiler
		// drop the bounds check on every operand access. Slots past
		// nregs are never touched, so the cost is address space, not
		// cache traffic.
		regs:        make([]uint64, 1<<16),
		ff:          make([]uint64, len(p.desc.FFs)),
		insns:       append([]insn(nil), p.insns...),
		runsDirty:   true,
		rows:        make([][]uint64, len(p.sites)),
		sitePatched: make([]bool, len(p.sites)),
		tabs:        make([][]uint64, len(p.desc.BRAMs)*MaxLanes),
		tabUniform:  make([]bool, len(p.desc.BRAMs)),
	}
	for b, tab := range tabs {
		st.tabUniform[b] = true
		for L := 0; L < MaxLanes; L++ {
			st.tabs[b*MaxLanes+L] = tab
		}
	}
	for i, ff := range p.desc.FFs {
		if ff.Init {
			st.ff[i] = ^uint64(0)
		}
	}
	for i := range tts {
		if tts[i] != p.baseTT[i] {
			st.patchLUTAll(i, tts[i])
		}
	}
	st.prologue()
	return st
}

// clock advances one rising edge. On ffSafe programs the latch is
// deferred: the next settle replays it as the ordered copy list instead
// of streaming the ff array out and back in.
func (st *progState) clock() {
	st.settle()
	if st.prog.ffSafe {
		st.pendingLatch = true
	} else {
		st.latch()
	}
}

// materializeFF folds the inline flip-flop state back into the ff
// array. Required before anything reads or rewrites ff directly: reset
// via external copy (preserveFF), flip-flop readout, or the fabric
// harness's walker.
func (st *progState) materializeFF() {
	if !st.ffInline {
		return
	}
	if st.pendingLatch {
		st.latch()
		st.pendingLatch = false
	} else {
		for i, q := range st.prog.ffQ {
			st.ff[i] = st.regs[q]
		}
	}
	st.ffInline = false
}

// ensureRows builds LUT i's rows from the base truth table.
func (st *progState) ensureRows(i int) {
	if st.rows[i] == nil {
		st.rows[i] = rowsFromTT(st.prog.baseTT[i], ^uint64(0))
	}
}

// ensureReduceSite switches LUT i's compiled form to read the state's
// rows — the patch path: the instruction site is rewritten in place to
// the generic reduce form. Only state-private tables change; the shared
// Program is untouched.
func (st *progState) ensureReduceSite(i int) {
	if st.sitePatched[i] {
		return
	}
	st.ensureRows(i)
	rec := &st.prog.desc.LUTs[i]
	site := st.prog.sites[i]
	for j := site.off; j < site.off+site.n; j++ {
		st.insns[j] = insn{op: opNop}
	}
	if rec.O5 != bitstream.NoNet {
		k := uint8(min(len(rec.Inputs), 5))
		st.insns[site.off] = insn{op: opReduce, n: k, dst: uint16(rec.O5), a: uint32(i), c: 0}
		st.insns[site.off+1] = insn{op: opReduce, n: k, dst: uint16(rec.O6), a: uint32(i), c: 32}
	} else {
		st.insns[site.off] = insn{op: opReduce, n: uint8(len(rec.Inputs)), dst: uint16(rec.O6), a: uint32(i)}
	}
	st.sitePatched[i] = true
	st.runsDirty = true
}

// patchLUTAll installs a truth table for every lane of LUT i.
func (st *progState) patchLUTAll(i int, tt boolfn.TT) {
	st.ensureReduceSite(i)
	rows := st.rows[i]
	for m := range rows {
		var v uint64
		if tt>>uint(m)&1 == 1 {
			v = ^uint64(0)
		}
		rows[m] = v
	}
}

// patchLUTLane installs a truth table for one lane of LUT i.
func (st *progState) patchLUTLane(i, lane int, tt boolfn.TT) {
	st.ensureReduceSite(i)
	rows := st.rows[i]
	bit := uint64(1) << uint(lane)
	for m := range rows {
		if tt>>uint(m)&1 == 1 {
			rows[m] |= bit
		} else {
			rows[m] &^= bit
		}
	}
}

// setTabLane points one lane of BRAM b at a patched content table. The
// caller re-runs the prologue after the last patch.
func (st *progState) setTabLane(b, lane int, tab []uint64) {
	st.tabs[b*MaxLanes+lane] = tab
	st.tabUniform[b] = false
}

// setTabAll repoints every lane of BRAM b.
func (st *progState) setTabAll(b int, tab []uint64) {
	for L := 0; L < MaxLanes; L++ {
		st.tabs[b*MaxLanes+L] = tab
	}
	st.tabUniform[b] = true
}

// prologue computes the constant-ROM output nets — once per state (and
// again after BRAM patches) instead of on every settle. Lane bits beyond lanes carry the lane-0 value, which is
// harmless under the lane-locality invariant.
func (st *progState) prologue() {
	for _, c := range st.prog.consts {
		base := c.bram * MaxLanes
		masks := st.scratch2[:len(c.outs)]
		w0 := st.tabs[base][0]
		for bi := range masks {
			masks[bi] = -(w0 >> uint(bi) & 1)
		}
		for L := 1; L < st.lanes; L++ {
			wv := st.tabs[base+L][0]
			if wv == w0 {
				continue
			}
			bit := uint64(1) << uint(L)
			for bi := range masks {
				if wv>>uint(bi)&1 == 1 {
					masks[bi] |= bit
				} else {
					masks[bi] &^= bit
				}
			}
		}
		for bi, out := range c.outs {
			st.regs[out] = masks[bi]
		}
	}
}

// latch captures every flip-flop's D input — the rising clock edge.
func (st *progState) latch() {
	regs := st.regs
	ff := st.ff
	for i, d := range st.prog.ffD {
		ff[i] = regs[d]
	}
}

// settle evaluates the combinational fabric: constants, flip-flop
// injection, then the compiled instruction stream in topological order.
// Dispatch is per opcode *run* — the stream grouped into maximal
// same-opcode spans — so the unpredictable indirect dispatch branch
// fires once per span instead of once per instruction.
func (st *progState) settle() {
	if st.runsDirty {
		st.buildRuns()
	}
	p := st.prog
	// Constant-length reslice: with len(regs) pinned to the full uint16
	// operand space, every regs[ins.dst]/[ins.b]/[ins.c] access below is
	// provably in bounds and compiles without a check.
	regs := st.regs[: 1<<16 : 1<<16]
	regs[0] = 0
	regs[1] = ^uint64(0)
	switch {
	case !p.ffSafe || !st.ffInline:
		ff := st.ff
		for i, q := range p.ffQ {
			regs[q] = ff[i]
		}
		st.ffInline = p.ffSafe
	case st.pendingLatch:
		for _, cp := range p.ffCopies {
			if cp.n == 1 {
				regs[cp.dst] = regs[cp.src]
			} else {
				copy(regs[cp.dst:cp.dst+cp.n], regs[cp.src:cp.src+cp.n])
			}
		}
		st.pendingLatch = false
	}
	insns := st.insns
	for r := range st.runs {
		run := &st.runs[r]
		body := insns[run.lo:run.hi]
		switch run.op {
		case opConst0:
			for i := range body {
				regs[body[i].dst] = 0
			}
		case opConst1:
			for i := range body {
				regs[body[i].dst] = ^uint64(0)
			}
		case opCopy:
			for i := range body {
				ins := &body[i]
				regs[ins.dst] = regs[uint16(ins.a)]
			}
		case opNot:
			for i := range body {
				ins := &body[i]
				regs[ins.dst] = ^regs[uint16(ins.a)]
			}
		case opAnd:
			for i := range body {
				ins := &body[i]
				regs[ins.dst] = regs[uint16(ins.a)] & regs[ins.b]
			}
		case opOr:
			for i := range body {
				ins := &body[i]
				regs[ins.dst] = regs[uint16(ins.a)] | regs[ins.b]
			}
		case opXor:
			for i := range body {
				ins := &body[i]
				regs[ins.dst] = regs[uint16(ins.a)] ^ regs[ins.b]
			}
		case opAndN:
			for i := range body {
				ins := &body[i]
				regs[ins.dst] = regs[uint16(ins.a)] &^ regs[ins.b]
			}
		case opOrN:
			for i := range body {
				ins := &body[i]
				regs[ins.dst] = regs[uint16(ins.a)] | ^regs[ins.b]
			}
		case opNand:
			for i := range body {
				ins := &body[i]
				regs[ins.dst] = ^(regs[uint16(ins.a)] & regs[ins.b])
			}
		case opNor:
			for i := range body {
				ins := &body[i]
				regs[ins.dst] = ^(regs[uint16(ins.a)] | regs[ins.b])
			}
		case opXnor:
			for i := range body {
				ins := &body[i]
				regs[ins.dst] = ^(regs[uint16(ins.a)] ^ regs[ins.b])
			}
		case opMux:
			for i := range body {
				ins := &body[i]
				sel := regs[ins.c]
				regs[ins.dst] = regs[uint16(ins.a)]&sel | regs[ins.b]&^sel
			}
		case opMuxNA:
			for i := range body {
				ins := &body[i]
				sel := regs[ins.c]
				regs[ins.dst] = ^regs[uint16(ins.a)]&sel | regs[ins.b]&^sel
			}
		case opMuxNB:
			for i := range body {
				ins := &body[i]
				sel := regs[ins.c]
				regs[ins.dst] = regs[uint16(ins.a)]&sel | ^regs[ins.b]&^sel
			}
		case opMuxNAB:
			for i := range body {
				ins := &body[i]
				sel := regs[ins.c]
				regs[ins.dst] = ^(regs[uint16(ins.a)]&sel | regs[ins.b]&^sel)
			}
		case opXorMuxA:
			for i := range body {
				ins := &body[i]
				sel := regs[ins.c]
				regs[ins.dst] = (regs[ins.a&0xffff]^regs[ins.a>>16])&sel | regs[ins.b]&^sel
			}
		case opXorMuxB:
			for i := range body {
				ins := &body[i]
				sel := regs[ins.c]
				regs[ins.dst] = regs[ins.b]&sel | (regs[ins.a&0xffff]^regs[ins.a>>16])&^sel
			}
		case opXnorMuxA:
			for i := range body {
				ins := &body[i]
				sel := regs[ins.c]
				regs[ins.dst] = ^(regs[ins.a&0xffff]^regs[ins.a>>16])&sel | regs[ins.b]&^sel
			}
		case opXnorMuxB:
			for i := range body {
				ins := &body[i]
				sel := regs[ins.c]
				regs[ins.dst] = regs[ins.b]&sel | ^(regs[ins.a&0xffff]^regs[ins.a>>16])&^sel
			}
		case opXorK:
			for i := range body {
				ins := &body[i]
				args := p.args[ins.a : ins.a+uint32(ins.n)]
				x := regs[args[0]]
				for _, a := range args[1:] {
					x ^= regs[a]
				}
				if ins.c != 0 {
					x = ^x
				}
				regs[ins.dst] = x
			}
		case opReduce:
			for i := range body {
				ins := &body[i]
				lut := ins.a
				rows := st.rows[lut]
				regs[ins.dst] = st.reduce(rows[ins.c:], int(ins.n), p.desc.LUTs[lut].Inputs)
			}
		case opBRAM:
			for i := range body {
				st.evalGroup(&p.groups[body[i].a])
			}
		case opAdder:
			for i := range body {
				rec := &p.desc.Adders[body[i].a]
				var carry uint64
				for j := range rec.A {
					av, bv := regs[rec.A[j]], regs[rec.B[j]]
					x := av ^ bv
					regs[rec.Sum[j]] = x ^ carry
					carry = av&bv | carry&x
				}
			}
		}
	}
}

// reduce collapses the first 1<<k rows through a mux tree addressed by
// the input nets — the bitsliced TT.Eval for patched/dense LUTs.
func (st *progState) reduce(rows []uint64, k int, inputs []uint32) uint64 {
	if k == 0 {
		return rows[0]
	}
	half := 1 << uint(k-1)
	sel := st.regs[inputs[k-1]]
	v := st.rscratch[:half]
	for m := 0; m < half; m++ {
		v[m] = sel&rows[m|half] | ^sel&rows[m]
	}
	for j := k - 2; j >= 0; j-- {
		sel = st.regs[inputs[j]]
		half >>= 1
		for m := 0; m < half; m++ {
			v[m] = sel&v[m|half] | ^sel&v[m]
		}
	}
	return v[0]
}

// evalGroup evaluates one BRAM group. The multi-lane path transposes
// the packed address bits once for the whole group, does the per-lane
// lookups pack-merged, and transposes each pack’s output word back
// into bitsliced nets. The 1-lane path gathers directly — three 64x64
// transposes are a poor trade for a single lane.
func (st *progState) evalGroup(g *bramGroup) {
	regs := st.regs
	if st.lanes == 1 {
		for i := range g.members {
			m := &g.members[i]
			addr := 0
			for bi, a := range m.addr {
				addr |= int(regs[a]&1) << uint(bi)
			}
			w := st.tabs[m.bram*MaxLanes][addr]
			for bi, out := range m.outs {
				regs[out] = -(w >> uint(bi) & 1)
			}
		}
		return
	}
	sc := &st.scratch
	row := 0
	for i := range g.members {
		for _, a := range g.members[i].addr {
			sc[row] = regs[a]
			row++
		}
	}
	// Rows beyond the packed address bits hold stale values; every
	// member masks its own address slice, so they never matter.
	transpose64(sc)
	out := &st.scratch2
	lanes := st.lanes
	for pi := range g.packs {
		p := &g.packs[pi]
		// Two entries per pass over the lanes: table headers and the
		// uniform-lanes check (all lanes share one table — the common
		// unpatched-BRAM case) hoist out of the lane loop, and the pack
		// word streams through out[] at most half as often as entries.
		for ei := 0; ei < len(p.entries); ei += 2 {
			e0 := &p.entries[ei]
			if ei+1 < len(p.entries) {
				e1 := &p.entries[ei+1]
				if st.tabUniform[e0.bram] && st.tabUniform[e1.bram] {
					// Reslicing to the address range proves the lookup
					// index in bounds, dropping the per-lane checks.
					u0 := st.tabs[e0.bram*MaxLanes][: e0.mask+1 : e0.mask+1]
					u1 := st.tabs[e1.bram*MaxLanes][: e1.mask+1 : e1.mask+1]
					if ei == 0 {
						for L := 0; L < lanes; L++ {
							s := sc[L]
							out[L] = u0[s>>e0.addrOff&e0.mask]&e0.outMask |
								(u1[s>>e1.addrOff&e1.mask]&e1.outMask)<<e1.shift
						}
					} else {
						for L := 0; L < lanes; L++ {
							s := sc[L]
							out[L] |= (u0[s>>e0.addrOff&e0.mask]&e0.outMask)<<e0.shift |
								(u1[s>>e1.addrOff&e1.mask]&e1.outMask)<<e1.shift
						}
					}
				} else {
					t0 := st.tabs[e0.bram*MaxLanes : (e0.bram+1)*MaxLanes]
					t1 := st.tabs[e1.bram*MaxLanes : (e1.bram+1)*MaxLanes]
					if ei == 0 {
						for L := 0; L < lanes; L++ {
							s := sc[L]
							out[L] = t0[L][s>>e0.addrOff&e0.mask]&e0.outMask |
								(t1[L][s>>e1.addrOff&e1.mask]&e1.outMask)<<e1.shift
						}
					} else {
						for L := 0; L < lanes; L++ {
							s := sc[L]
							out[L] |= (t0[L][s>>e0.addrOff&e0.mask]&e0.outMask)<<e0.shift |
								(t1[L][s>>e1.addrOff&e1.mask]&e1.outMask)<<e1.shift
						}
					}
				}
				continue
			}
			if st.tabUniform[e0.bram] {
				u0 := st.tabs[e0.bram*MaxLanes][: e0.mask+1 : e0.mask+1]
				if ei == 0 {
					for L := 0; L < lanes; L++ {
						out[L] = u0[sc[L]>>e0.addrOff&e0.mask] & e0.outMask
					}
				} else {
					for L := 0; L < lanes; L++ {
						out[L] |= (u0[sc[L]>>e0.addrOff&e0.mask] & e0.outMask) << e0.shift
					}
				}
			} else {
				t0 := st.tabs[e0.bram*MaxLanes : (e0.bram+1)*MaxLanes]
				if ei == 0 {
					for L := 0; L < lanes; L++ {
						out[L] = t0[L][sc[L]>>e0.addrOff&e0.mask] & e0.outMask
					}
				} else {
					for L := 0; L < lanes; L++ {
						out[L] |= (t0[L][sc[L]>>e0.addrOff&e0.mask] & e0.outMask) << e0.shift
					}
				}
			}
		}
		transpose64(out)
		for bi, dst := range p.dsts {
			regs[dst] = out[bi]
		}
	}
}
