package device

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/hdl"
	"snowbma/internal/obs"
)

// miniBatch assembles a Batch directly from an in-memory Description,
// bypassing the bitstream container: the compiled program and the walker
// then run the same hand-built design, which lets the edge-case tests
// below reach shapes the SNOW 3G toolchain never emits (constant-tied
// inputs, flip-flop swap rings, LUT outputs driving Q nets).
func miniBatch(t testing.TB, desc *bitstream.Description, tts []boolfn.TT, tabs [][]uint64, lanes int) *Batch {
	t.Helper()
	return newBatch(compile(desc, tts, obs.New()), tts, tabs, lanes)
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
	runFabric(t, &fabricCase{name: "folded", mini: &miniCase{desc: desc, tts: tts, lanes: 64, cycles: 4,
		drive: func(b hdl.BatchDevice, cy int) { b.SetInputLanes("in", uint64(0x0123456789ABCDEF)<<uint(cy)) }}})
}

// TestCompileLUTEdges: fabric harness rows for the degenerate LUT
// shapes, a zero-input constant LUT and a fractured LUT with fewer than
// five shared inputs.
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
		var cases []*fabricCase
		for _, tt := range []boolfn.TT{0, 1, ^boolfn.TT(0)} {
			cases = append(cases, &fabricCase{name: fmt.Sprintf("tt=%016x", tt),
				mini: &miniCase{desc: desc, tts: []boolfn.TT{tt}, lanes: 64, cycles: 2}})
		}
		runFabric(t, cases...)
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
		var cases []*fabricCase
		for trial := 0; trial < 8; trial++ {
			cases = append(cases, &fabricCase{name: fmt.Sprintf("trial=%d", trial), mini: &miniCase{
				desc: desc, tts: []boolfn.TT{boolfn.TT(rng.Uint64())}, lanes: 64, cycles: 4,
				drive: func(b hdl.BatchDevice, cy int) {
					b.SetInputLanes("a", rowPattern(trial, cy))
					b.SetInputLanes("b", rowPattern(cy, trial+1))
				}}})
		}
		runFabric(t, cases...)
	})
}

func rowPattern(i, j int) uint64 {
	return 0x9E3779B97F4A7C15*uint64(i+1) ^ 0xC2B2AE3D27D4EB4F*uint64(j+1)
}

// TestClockEdgePlanner pins both halves of the fused clock edge: a
// flip-flop swap ring forces the parallel-move sequentializer to spill
// through a temporary, and a LUT driving a Q net directly must disable
// the fused path entirely and fall back to inject/latch. Each shape is
// also a fabric harness row.
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
		if !miniBatch(t, desc, nil, nil, 64).st.prog.ffSafe {
			t.Fatal("swap ring should keep the fused clock edge")
		}
		runFabric(t, &fabricCase{name: "ring", mini: &miniCase{desc: desc, lanes: 64, cycles: 6}})
		// And the values actually swap.
		b2 := miniBatch(t, desc, nil, nil, 64)
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
		runFabric(t, &fabricCase{name: "fallback", mini: &miniCase{desc: desc, tts: tts, lanes: 64, cycles: 6,
			drive: func(b hdl.BatchDevice, cy int) { b.SetInputLanes("in", rowPattern(cy, cy)) }}})
	})
}

// TestPartialWidthMasking: fabric harness rows at every width 1..64
// over the SNOW 3G fabric (clean lanes and lanes with one LUT and one
// BRAM word rewritten, in turn), and a combinational inverter at widths
// 1, 3, 63 and 64, whose output word is the complement of the driven
// pattern in all 64 bits internally. The inverter rows want each lane's
// complemented input bit, and the harness fails on any output bit at or
// above the lane count, so every value must read back exactly
// ^in & mask: the inactive lanes holding ones must read as zero.
func TestPartialWidthMasking(t *testing.T) {
	fx := newBatchFixture(t)
	patched := fx.withLUT(t, fx.img, 5%len(fx.desc.LUTs), boolfn.TT(0x0F0F_3C3C_5A5A_9696))
	pool := [][]byte{fx.img, fx.withBRAMWord(patched, 0, 1, 0xFEDC_BA98_7654_3210)}
	var cases []*fabricCase
	for lanes := 1; lanes <= MaxLanes; lanes++ {
		images := make([][]byte, lanes)
		for L := range images {
			images[L] = pool[L%len(pool)]
		}
		cases = append(cases, fx.imageCase(t, fmt.Sprintf("lanes=%d", lanes), images, testIV, 2))
	}
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
	for _, lanes := range []int{1, 3, 63, 64} {
		want := make([][]uint32, lanes)
		for L := range want {
			for cy := 0; cy < 2; cy++ {
				want[L] = append(want[L], uint32(^rowPattern(lanes, cy)>>uint(L)&1))
			}
		}
		cases = append(cases, &fabricCase{name: fmt.Sprintf("inverter lanes=%d", lanes), want: want, mini: &miniCase{
			desc: inv, tts: []boolfn.TT{boolfn.TT(0x5555555555555555)}, lanes: lanes, cycles: 2, // ^in
			drive: func(b hdl.BatchDevice, cy int) { b.SetInputLanes("in", rowPattern(lanes, cy)) }}})
	}
	runFabric(t, cases...)
}

// TestCompiledMatchesWalkerKeystream: a fabric harness row of 64 lanes,
// each clean, LUT-patched or BRAM-patched at random.
func TestCompiledMatchesWalkerKeystream(t *testing.T) {
	fx := newBatchFixture(t)
	rng := rand.New(rand.NewSource(7))
	images := make([][]byte, MaxLanes)
	for L := range images {
		images[L] = fx.randomImage(t, rng)
	}
	runFabric(t, fx.imageCase(t, "random mix", images, testIV, 8))
}

// TestCompiledMatchesWalkerAfterPartialReconfig: a fabric harness row
// over the patch-only reconfiguration path. PartialReconfig rewrites a
// CLB frame and a BRAM frame of the loaded base, and 40 clean lanes
// built over the patched device — a partial word — must each reproduce
// the edited design.
func TestCompiledMatchesWalkerAfterPartialReconfig(t *testing.T) {
	fx := newBatchFixture(t)
	rng := rand.New(rand.NewSource(21))
	mod := fx.randomBRAMWord(fx.randomLUT(t, fx.img, rng), rng) // a LUT and a BRAM word
	const lanes = 40
	images := make([][]byte, lanes)
	for L := range images {
		images[L] = mod
	}
	runFabric(t, &fabricCase{
		name:     "CLB and BRAM frames",
		base:     fx.img,
		reconfig: fx.diff(t, mod),
		patches:  make([]bitstream.PatchSet, lanes),
		images:   images,
		iv:       testIV,
		words:    6,
	})
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
		hb := &harnessBatch{Batch: b, t: t}
		hb.setWalker(w%2 == 1) // both evaluators must honor the contract
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = hdl.GenerateKeystreamBatch(hb, testIV, 4)[0]
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(results[w], results[0]) {
			t.Fatalf("worker %d diverges: %08x != %08x", w, results[w], results[0])
		}
	}
}
