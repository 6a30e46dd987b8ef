package device

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/hdl"
	"snowbma/internal/obs"
	"snowbma/internal/snow3g"
)

// keystreamBatchToggling mirrors hdl.GenerateKeystreamBatch but flips
// the batch between the compiled and walker evaluators every third
// clock, exercising the inline-FF materialization handoff mid-protocol.
func keystreamBatchToggling(b *Batch, n int) [][]uint32 {
	clocks := 0
	tick := func() {
		b.setWalker(clocks/3%2 == 1)
		clocks++
		b.ClockBatch()
	}
	for i := 0; i < 4; i++ {
		var words [32]uint64
		for bit := 0; bit < 32; bit++ {
			if testIV[i]>>uint(bit)&1 == 1 {
				words[bit] = ^uint64(0)
			}
			b.SetInputLanes(fmt.Sprintf("%s[%d]", hdl.IVPort(i), bit), words[bit])
		}
	}
	ctl := func(load, init, run, gen bool) {
		all := func(v bool) uint64 {
			if v {
				return ^uint64(0)
			}
			return 0
		}
		b.SetInputLanes(hdl.PortLoad, all(load))
		b.SetInputLanes(hdl.PortInit, all(init))
		b.SetInputLanes(hdl.PortRun, all(run))
		b.SetInputLanes(hdl.PortGen, all(gen))
	}
	ctl(true, false, true, false)
	tick()
	ctl(false, true, true, false)
	for i := 0; i < 32; i++ {
		tick()
	}
	ctl(false, false, true, true)
	tick()
	out := make([][]uint32, b.Lanes())
	for L := range out {
		out[L] = make([]uint32, n)
	}
	for t := 0; t < n; t++ {
		tick()
		for i := 0; i < 32; i++ {
			mask := b.ReadLanes(fmt.Sprintf("%s[%d]", hdl.PortZ, i))
			for L := range out {
				if mask>>uint(L)&1 == 1 {
					out[L][t] |= 1 << uint(i)
				}
			}
		}
	}
	return out
}

// miniBatch assembles a Batch directly from an in-memory Description,
// bypassing the bitstream container: the compiled program and the walker
// then run the same hand-built design, which lets the edge-case tests
// below reach shapes the SNOW 3G toolchain never emits (constant-tied
// inputs, flip-flop swap rings, LUT outputs driving Q nets).
func miniBatch(t testing.TB, desc *bitstream.Description, tts []boolfn.TT, tabs [][]uint64, lanes int) *Batch {
	t.Helper()
	prog := compile(desc, tts, obs.New())
	b := &Batch{
		desc:     desc,
		lanes:    lanes,
		bramTab:  tabs,
		bramOver: make([][][]uint64, len(desc.BRAMs)),
		inPins:   map[string]uint32{},
		outPins:  map[string]uint32{},
		dirty:    true,
	}
	for _, p := range desc.Ports {
		if p.Dir == bitstream.In {
			b.inPins[p.Name] = p.Net
		} else {
			b.outPins[p.Name] = p.Net
		}
	}
	b.st = newProgState(prog, tts, tabs, lanes)
	return b
}

// diffCycles drives two identically-built batches — one compiled, one
// walking the description — through the same stimulus and requires every
// output to agree on every cycle.
func diffCycles(t *testing.T, mk func() *Batch, cycles int, drive func(b *Batch, cycle int)) {
	t.Helper()
	cb, wb := mk(), mk()
	wb.setWalker(true)
	outs := make([]string, 0, len(cb.outPins))
	for name := range cb.outPins {
		outs = append(outs, name)
	}
	for cy := 0; cy < cycles; cy++ {
		if drive != nil {
			drive(cb, cy)
			drive(wb, cy)
		}
		for _, o := range outs {
			if g, w := cb.ReadLanes(o), wb.ReadLanes(o); g != w {
				t.Fatalf("cycle %d output %q: compiled %016x walker %016x", cy, o, g, w)
			}
		}
		cb.ClockBatch()
		wb.ClockBatch()
	}
}

// TestCompileFoldsConstantInputs pins the constant-folding compile path:
// a LUT with two of three inputs tied to the constant nets must fold to
// a function of the live input alone, and still match the walker, which
// evaluates the full table against the always-0/always-1 nets.
func TestCompileFoldsConstantInputs(t *testing.T) {
	desc := &bitstream.Description{
		NumNets: 4,
		Ports: []bitstream.Port{
			{Name: "in", Dir: bitstream.In, Net: 2},
			{Name: "out", Dir: bitstream.Out, Net: 3},
		},
		LUTs: []bitstream.LUTRec{
			{Inputs: []uint32{2, 0, 1}, O6: 3, O5: bitstream.NoNet},
		},
		Eval: []bitstream.EvalItem{{Kind: bitstream.EvalLUT, Index: 0}},
	}
	// f(a,b,c) = a xor b xor c with b tied to 0, c tied to 1 => ^a.
	tts := []boolfn.TT{boolfn.TT(0x9696969696969696)}
	prog := compile(desc, tts, obs.New())
	if prog.stats.FoldedInputs != 2 {
		t.Fatalf("FoldedInputs = %d, want 2", prog.stats.FoldedInputs)
	}
	diffCycles(t, func() *Batch { return miniBatch(t, desc, tts, nil, 64) }, 4,
		func(b *Batch, cy int) { b.SetInputLanes("in", uint64(0x0123456789ABCDEF)<<uint(cy)) })
}

// TestCompileLUTEdges covers the degenerate LUT shapes: a zero-input
// constant LUT and a fractured LUT with fewer than five shared inputs,
// both against the walker's reduce.
func TestCompileLUTEdges(t *testing.T) {
	t.Run("const-k0", func(t *testing.T) {
		desc := &bitstream.Description{
			NumNets: 4,
			Ports: []bitstream.Port{
				{Name: "in", Dir: bitstream.In, Net: 2},
				{Name: "out", Dir: bitstream.Out, Net: 3},
			},
			LUTs: []bitstream.LUTRec{
				{Inputs: nil, O6: 3, O5: bitstream.NoNet},
			},
			Eval: []bitstream.EvalItem{{Kind: bitstream.EvalLUT, Index: 0}},
		}
		for _, tt := range []boolfn.TT{0, 1, ^boolfn.TT(0)} {
			tts := []boolfn.TT{tt}
			diffCycles(t, func() *Batch { return miniBatch(t, desc, tts, nil, 64) }, 2, nil)
		}
	})
	t.Run("fractured-2in", func(t *testing.T) {
		desc := &bitstream.Description{
			NumNets: 6,
			Ports: []bitstream.Port{
				{Name: "a", Dir: bitstream.In, Net: 2},
				{Name: "b", Dir: bitstream.In, Net: 3},
				{Name: "o5", Dir: bitstream.Out, Net: 4},
				{Name: "o6", Dir: bitstream.Out, Net: 5},
			},
			LUTs: []bitstream.LUTRec{
				{Inputs: []uint32{2, 3}, O6: 5, O5: 4},
			},
			Eval: []bitstream.EvalItem{{Kind: bitstream.EvalLUT, Index: 0}},
		}
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 8; trial++ {
			tts := []boolfn.TT{boolfn.TT(rng.Uint64())}
			diffCycles(t, func() *Batch { return miniBatch(t, desc, tts, nil, 64) }, 4,
				func(b *Batch, cy int) {
					b.SetInputLanes("a", rowPattern(trial, cy))
					b.SetInputLanes("b", rowPattern(cy, trial+1))
				})
		}
	})
}

func rowPattern(i, j int) uint64 {
	return 0x9E3779B97F4A7C15*uint64(i+1) ^ 0xC2B2AE3D27D4EB4F*uint64(j+1)
}

// TestClockEdgePlanner pins both halves of the fused clock edge: a
// flip-flop swap ring forces the parallel-move sequentializer to spill
// through a temporary, and a LUT driving a Q net directly must disable
// the fused path entirely and fall back to inject/latch — in both cases
// bit-identically to the walker.
func TestClockEdgePlanner(t *testing.T) {
	t.Run("swap-ring-spill", func(t *testing.T) {
		desc := &bitstream.Description{
			NumNets: 4,
			Ports: []bitstream.Port{
				{Name: "p", Dir: bitstream.Out, Net: 2},
				{Name: "q", Dir: bitstream.Out, Net: 3},
			},
			FFs: []bitstream.FFRec{
				{Init: true, Q: 2, D: 3},
				{Init: false, Q: 3, D: 2},
			},
		}
		mk := func() *Batch { return miniBatch(t, desc, nil, nil, 64) }
		b := mk()
		if !b.st.prog.ffSafe {
			t.Fatal("swap ring should keep the fused clock edge")
		}
		diffCycles(t, mk, 6, nil)
		// And the values actually swap.
		b2 := mk()
		for cy := 0; cy < 4; cy++ {
			p, q := b2.ReadLanes("p"), b2.ReadLanes("q")
			if cy%2 == 0 && (p != ^uint64(0) || q != 0) {
				t.Fatalf("cycle %d: p=%016x q=%016x, want swap phase 0", cy, p, q)
			}
			if cy%2 == 1 && (p != 0 || q != ^uint64(0)) {
				t.Fatalf("cycle %d: p=%016x q=%016x, want swap phase 1", cy, p, q)
			}
			b2.ClockBatch()
		}
	})
	t.Run("lut-drives-q-fallback", func(t *testing.T) {
		// LUT writes net 3, which is also FF 0's Q: the settle recomputes
		// the Q net combinationally, so Q registers do not survive the
		// settle and the fused edge must be refused.
		desc := &bitstream.Description{
			NumNets: 5,
			Ports: []bitstream.Port{
				{Name: "in", Dir: bitstream.In, Net: 2},
				{Name: "out", Dir: bitstream.Out, Net: 4},
			},
			FFs: []bitstream.FFRec{
				{Init: false, Q: 3, D: 4},
			},
			LUTs: []bitstream.LUTRec{
				{Inputs: []uint32{2}, O6: 3, O5: bitstream.NoNet}, // ^in -> Q net
				{Inputs: []uint32{3}, O6: 4, O5: bitstream.NoNet}, // copy -> out
			},
			Eval: []bitstream.EvalItem{
				{Kind: bitstream.EvalLUT, Index: 0},
				{Kind: bitstream.EvalLUT, Index: 1},
			},
		}
		tts := []boolfn.TT{boolfn.TT(0x5555555555555555), boolfn.TT(0xAAAAAAAAAAAAAAAA)}
		b := miniBatch(t, desc, tts, nil, 64)
		if b.st.prog.ffSafe {
			t.Fatal("LUT driving a Q net must disable the fused clock edge")
		}
		diffCycles(t, func() *Batch { return miniBatch(t, desc, tts, nil, 64) }, 6,
			func(b *Batch, cy int) { b.SetInputLanes("in", rowPattern(cy, cy)) })
	})
}

// TestPartialWidthMasking pins the stale-bit contract for partial
// batches: register bits above the active lane count may carry garbage
// internally (the evaluators compute full 64-lane words), but ReadLanes
// must mask them off, in both evaluators. The SNOW 3G fabric pins the
// compiled and walker outputs against each other; a combinational
// inverter pins the exact mask: internally its output word is the
// complement of the driven pattern in all 64 bits, so every inactive
// lane holding a 1 there must read back as 0.
func TestPartialWidthMasking(t *testing.T) {
	fx := newBatchFixture(t)
	inv := &bitstream.Description{
		NumNets: 4,
		Ports: []bitstream.Port{
			{Name: "in", Dir: bitstream.In, Net: 2},
			{Name: "out", Dir: bitstream.Out, Net: 3},
		},
		LUTs: []bitstream.LUTRec{
			{Inputs: []uint32{2}, O6: 3, O5: bitstream.NoNet},
		},
		Eval: []bitstream.EvalItem{{Kind: bitstream.EvalLUT, Index: 0}},
	}
	invTT := []boolfn.TT{boolfn.TT(0x5555555555555555)} // ^in
	for _, lanes := range []int{1, 3, 63, 64} {
		mask := ^uint64(0) >> uint(64-lanes)
		mkDev := func(walk bool) *Batch {
			dev := New([bitstream.KeySize]byte{})
			batch, err := dev.LoadPatched(fx.img, make([]bitstream.PatchSet, lanes))
			if err != nil {
				t.Fatal(err)
			}
			batch.setWalker(walk)
			return batch
		}
		cb, wb := mkDev(false), mkDev(true)
		for _, b := range []*Batch{cb, wb} {
			// Drive the run input high so outputs carry live data, then
			// clock a few cycles into the protocol.
			b.SetInputLanes(hdl.PortRun, ^uint64(0))
			for i := 0; i < 4; i++ {
				b.ClockBatch()
			}
		}
		for name := range cb.outPins {
			g, w := cb.ReadLanes(name), wb.ReadLanes(name)
			if g != w {
				t.Fatalf("lanes=%d %q: compiled %016x != walker %016x", lanes, name, g, w)
			}
			if g&^mask != 0 {
				t.Fatalf("lanes=%d %q: bits above lane count leak: %016x", lanes, name, g)
			}
		}
		for _, walk := range []bool{false, true} {
			b := miniBatch(t, inv, invTT, nil, lanes)
			b.setWalker(walk)
			in := rowPattern(lanes, 1)
			b.SetInputLanes("in", in)
			b.ClockBatch()
			if got, want := b.ReadLanes("out"), ^in&mask; got != want {
				t.Fatalf("lanes=%d walker=%v: out %016x, want %016x", lanes, walk, got, want)
			}
		}
	}
}

// TestCompiledMatchesWalkerKeystream runs the full keystream protocol
// over mixed patched lanes in both evaluator modes, including a
// mid-stream evaluator switch (which exercises the inline-FF
// materialization handoff in both directions).
func TestCompiledMatchesWalkerKeystream(t *testing.T) {
	fx := newBatchFixture(t)
	rng := rand.New(rand.NewSource(7))
	const lanes = 64
	patches := make([]bitstream.PatchSet, lanes)
	for L := 0; L < lanes; L++ {
		switch rng.Intn(3) {
		case 0: // clean lane
		case 1:
			patches[L] = fx.diff(t, fx.withLUT(t, rng.Intn(len(fx.desc.LUTs)), boolfn.TT(rng.Uint64())))
		default:
			bram := rng.Intn(len(fx.desc.BRAMs))
			entry := rng.Intn(1 << len(fx.desc.BRAMs[bram].Addr))
			patches[L] = fx.diff(t, fx.withBRAMWord(t, bram, entry, rng.Uint64()))
		}
	}
	mk := func() *Batch {
		dev := New([bitstream.KeySize]byte{})
		b, err := dev.LoadPatched(fx.img, patches)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const n = 8
	compiled, walker, mixed := mk(), mk(), mk()
	walker.setWalker(true)
	zc := hdl.GenerateKeystreamBatch(compiled, testIV, n)
	zw := hdl.GenerateKeystreamBatch(walker, testIV, n)
	zm := keystreamBatchToggling(mixed, n)
	for L := 0; L < lanes; L++ {
		if !equalWords(zc[L], zw[L]) {
			t.Fatalf("lane %d: compiled %08x != walker %08x", L, zc[L], zw[L])
		}
		if !equalWords(zc[L], zm[L]) {
			t.Fatalf("lane %d: compiled %08x != mode-switching %08x", L, zc[L], zm[L])
		}
	}
}

// TestCompiledMatchesWalkerAfterPartialReconfig pins the patch-only
// reconfiguration path: after PartialReconfig rewrites a CLB frame and a
// BRAM frame, a batch built over the patched device must agree between
// evaluators and with a scalar device loaded from the equivalent full
// image.
func TestCompiledMatchesWalkerAfterPartialReconfig(t *testing.T) {
	fx := newBatchFixture(t)
	rng := rand.New(rand.NewSource(21))
	mod := fx.withLUT(t, rng.Intn(len(fx.desc.LUTs)), boolfn.TT(rng.Uint64()))
	// Stack a BRAM change on top of the LUT change.
	{
		parsed, err := bitstream.ParsePackets(mod)
		if err != nil {
			t.Fatal(err)
		}
		fdri := parsed.FDRI(mod)
		bram := rng.Intn(len(fx.desc.BRAMs))
		entry := rng.Intn(1 << len(fx.desc.BRAMs[bram].Addr))
		off := fx.regions.BRAMOff + fx.desc.BRAMs[bram].ContentOff + 8*entry
		w := rng.Uint64()
		for k := 7; k >= 0; k-- {
			fdri[off+k] = byte(w)
			w >>= 8
		}
	}
	dev := New([bitstream.KeySize]byte{})
	if err := dev.Load(fx.img); err != nil {
		t.Fatal(err)
	}
	for _, fp := range fx.diff(t, mod) {
		if err := dev.PartialReconfig(fp.Frame, fp.Data); err != nil {
			t.Fatal(err)
		}
	}
	// 40 clean lanes over the patched base: a partial word, and every
	// lane must reproduce the reconfigured design.
	const n, lanes = 6, 40
	mkBatch := func(walk bool) [][]uint32 {
		b, err := dev.BatchOf(make([]bitstream.PatchSet, lanes))
		if err != nil {
			t.Fatal(err)
		}
		b.setWalker(walk)
		return hdl.GenerateKeystreamBatch(b, testIV, n)
	}
	zc, zw := mkBatch(false), mkBatch(true)
	zs := scalarKeystream(t, mod, n)
	for L := 0; L < lanes; L++ {
		if !equalWords(zc[L], zw[L]) {
			t.Fatalf("after partial reconfig lane %d: compiled %08x != walker %08x", L, zc[L], zw[L])
		}
		if !equalWords(zc[L], zs) {
			t.Fatalf("after partial reconfig lane %d: compiled %08x != scalar full-image %08x", L, zc[L], zs)
		}
	}
}

// TestValidateRejectsOversizedFabric pins the capacity check that backs
// the 16-bit instruction operands.
func TestValidateRejectsOversizedFabric(t *testing.T) {
	desc := &bitstream.Description{NumNets: MaxNets + 1}
	if err := validate(desc); err == nil {
		t.Fatal("validate accepted a description beyond fabric capacity")
	}
}

// TestTranspose64 checks the unrolled bit-matrix transpose against a
// naive per-bit reference on random matrices.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 16; trial++ {
		var m, want [64]uint64
		for i := range m {
			m[i] = rng.Uint64()
		}
		if trial == 0 {
			m = [64]uint64{} // all zero
		}
		if trial == 1 {
			for i := range m {
				m[i] = ^uint64(0)
			}
		}
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				if m[c]>>uint(r)&1 == 1 {
					want[r] |= 1 << uint(c)
				}
			}
		}
		got := m
		transpose64(&got)
		if got != want {
			t.Fatalf("trial %d: transpose64 diverges from reference", trial)
		}
	}
}

// TestCoalesceCopies checks that the clock-edge block-copy merge is an
// exact semantic rewrite: for random move lists, executing the coalesced
// program over a random register file must equal executing the original
// single-slot list in order.
func TestCoalesceCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	runSingles := func(order []regCopy, regs []uint64) {
		for _, cp := range order {
			regs[cp.dst] = regs[cp.src]
		}
	}
	runCoalesced := func(order []regCopy, regs []uint64) {
		for _, cp := range order {
			if cp.n == 1 {
				regs[cp.dst] = regs[cp.src]
			} else {
				copy(regs[cp.dst:cp.dst+cp.n], regs[cp.src:cp.src+cp.n])
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		var order []regCopy
		for len(order) < 24 {
			switch rng.Intn(3) {
			case 0: // random single
				order = append(order, regCopy{dst: uint32(rng.Intn(96)), src: uint32(rng.Intn(96))})
			case 1: // ascending run, possibly overlapping
				d, s, n := rng.Intn(64), rng.Intn(64), 2+rng.Intn(8)
				for k := 0; k < n; k++ {
					order = append(order, regCopy{dst: uint32(d + k), src: uint32(s + k)})
				}
			default: // descending run, possibly overlapping
				d, s, n := 24+rng.Intn(64), 24+rng.Intn(64), 2+rng.Intn(8)
				for k := 0; k < n; k++ {
					order = append(order, regCopy{dst: uint32(d - k), src: uint32(s - k)})
				}
			}
		}
		base := make([]uint64, 128)
		for i := range base {
			base[i] = rng.Uint64()
		}
		want := append([]uint64(nil), base...)
		runSingles(order, want)
		got := append([]uint64(nil), base...)
		runCoalesced(coalesceCopies(append([]regCopy(nil), order...)), got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: slot %d: coalesced %016x != sequential %016x", trial, i, got[i], want[i])
			}
		}
	}
}

// FuzzProgramDifferential is the compiled evaluator's oracle: for fuzzed
// lane counts in 1..MaxLanes and per-lane LUT/BRAM patches, the compiled program and the description walker
// must emit identical keystreams over identical register files.
func FuzzProgramDifferential(f *testing.F) {
	fx := newBatchFixture(f)
	f.Add(uint8(0), int64(1), uint64(0xEA024714AD5C4D84))
	f.Add(uint8(5), int64(42), uint64(0xDF1F9B251C0BF45F))
	f.Add(uint8(63), int64(1234), uint64(0x0123456789ABCDEF))
	f.Add(uint8(99), int64(77), uint64(0x243F6A8885A308D3)) // 36 lanes
	f.Add(uint8(200), int64(9), uint64(0x13198A2E03707344)) // 9 lanes
	f.Add(uint8(255), int64(3), uint64(0xA4093822299F31D0)) // 64 lanes: full word
	f.Fuzz(func(t *testing.T, laneByte uint8, patchSeed int64, ivSeed uint64) {
		lanes := 1 + int(laneByte)%MaxLanes
		rng := rand.New(rand.NewSource(patchSeed))
		iv := snow3g.IV{uint32(ivSeed), uint32(ivSeed >> 32), uint32(ivSeed) ^ 0xA5A5A5A5, uint32(ivSeed>>32) ^ 0x5A5A5A5A}
		patches := make([]bitstream.PatchSet, lanes)
		for L := 0; L < lanes; L++ {
			switch rng.Intn(3) {
			case 0:
			case 1:
				patches[L] = fx.diff(t, fx.withLUT(t, rng.Intn(len(fx.desc.LUTs)), boolfn.TT(rng.Uint64())))
			default:
				bram := rng.Intn(len(fx.desc.BRAMs))
				entry := rng.Intn(1 << len(fx.desc.BRAMs[bram].Addr))
				patches[L] = fx.diff(t, fx.withBRAMWord(t, bram, entry, rng.Uint64()))
			}
		}
		mk := func(walk bool) [][]uint32 {
			dev := New([bitstream.KeySize]byte{})
			b, err := dev.LoadPatched(fx.img, patches)
			if err != nil {
				t.Fatal(err)
			}
			b.setWalker(walk)
			return hdl.GenerateKeystreamBatch(b, iv, 3)
		}
		zc, zw := mk(false), mk(true)
		for L := 0; L < lanes; L++ {
			if !equalWords(zc[L], zw[L]) {
				t.Fatalf("lane %d/%d: compiled %08x != walker %08x", L, lanes, zc[L], zw[L])
			}
		}
	})
}

// TestConcurrentBatchesOverOneDescription pins the concurrency contract
// documented on Batch: one Batch is single-goroutine, but distinct
// Batches over one loaded configuration share only immutable data — the
// compiled Program, the Description and the base BRAM tables — so
// independent goroutines may sweep concurrently, including at mixed
// widths. Run under -race (the tier-1 suite always is), any shared
// scratch would be reported.
func TestConcurrentBatchesOverOneDescription(t *testing.T) {
	fx := newBatchFixture(t)
	dev := New([bitstream.KeySize]byte{})
	if err := dev.Load(fx.img); err != nil {
		t.Fatal(err)
	}
	widths := []int{1, 8, 33, MaxLanes}
	workers := len(widths)
	results := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		b, err := dev.BatchOf(make([]bitstream.PatchSet, widths[w]))
		if err != nil {
			t.Fatal(err)
		}
		if w%2 == 1 {
			b.setWalker(true) // both evaluators must honor the contract
		}
		wg.Add(1)
		go func(w int, b *Batch) {
			defer wg.Done()
			results[w] = hdl.GenerateKeystreamBatch(b, testIV, 4)[0]
		}(w, b)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !equalWords(results[w], results[0]) {
			t.Fatalf("worker %d diverges: %08x != %08x", w, results[w], results[0])
		}
	}
}
