package device

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/hdl"
	"snowbma/internal/snow3g"
)

// The fabric harness. Every fast path of the fabric and each oracle it
// is pinned against is one value of the implementation axis
// fabricImpls; every row (fabricCase) runs on every value, and all
// values must emit the same per-lane outputs. Each value reaches the
// fabric through its own entry point — the walker, which lives here as
// test code, evaluates the description with its own reduce and BRAM
// gather; the scalar device configures its one-lane batch through Load
// or PartialReconfig, never BatchOf — so an oracle never calls into the
// path it checks, and retiring an alternate is dropping its axis value.

// fabricImpls is the implementation axis: the batch values, which run
// all of a row's lanes in one word, then the lane values, which run
// each lane on its own.
var fabricImpls = slices.Concat(batchImpls, laneImpls)

var batchImpls = []fabricImpl{
	// The compiled program over a patched batch: the production path.
	{"compiled", batchRun(evalCompiled)},
	// The description walker (harnessBatch.walkSettle) over the same
	// lane patches.
	{"walker", batchRun(evalWalker)},
	// The batch switching evaluators every third clock, which hands
	// inline flip-flop state across mid-protocol in both directions.
	{"toggling", batchRun(evalToggling)},
}

var laneImpls = []fabricImpl{
	// A scalar device loaded with each lane's full image.
	{"scalar", imageRun(func(t testing.TB, c *fabricCase) func(L int) *FPGA {
		return func(L int) *FPGA {
			f := New(c.kE)
			if err := f.Load(c.images[L]); err != nil {
				t.Fatal(err)
			}
			return f
		}
	})},
	// A device programmed with each lane's image through the Compiled
	// of a device programmed with the base: lanes that leave the
	// description alone reuse its Program with their tables patched in.
	{"shared-compiled", imageRun(func(t testing.TB, c *fabricCase) func(L int) *FPGA {
		src := New(c.kE)
		if err := src.Program(c.base); err != nil {
			t.Fatal(err)
		}
		return func(L int) *FPGA {
			f := New(c.kE)
			if err := f.ProgramCompiled(c.images[L], src.Compiled()); err != nil {
				t.Fatal(err)
			}
			return f
		}
	})},
	// One scalar device reloaded with the base and stepped to each lane
	// by PartialReconfig of the row's and the lane's frames: the
	// debug-port path, which sealed images do not offer.
	{"reconfigured", imageRun(func(t testing.TB, c *fabricCase) func(L int) *FPGA {
		if bitstream.IsEncrypted(c.base) {
			return nil
		}
		f := New(c.kE)
		return func(L int) *FPGA {
			if err := f.Load(c.base); err != nil {
				t.Fatal(err)
			}
			for _, fp := range append(slices.Clone(c.reconfig), c.patches[L]...) {
				if err := f.PartialReconfig(fp.Frame, fp.Data); err != nil {
					t.Fatal(err)
				}
			}
			return f
		}
	})},
	// The SNOW 3G software model, for rows whose lanes all run the
	// unmodified design built with a known key.
	{"model", func(t testing.TB, c *fabricCase) [][]uint32 {
		if c.model == nil {
			return nil
		}
		m := snow3g.New(snow3g.Fault{})
		m.Init(*c.model, c.iv)
		z := m.KeystreamWords(c.words)
		out := make([][]uint32, len(c.images))
		for L := range out {
			out[L] = z
		}
		return out
	}},
}

// fabricImpl is one value of the implementation axis. run returns each
// lane's output words, or nil when the row is out of its reach (a
// scalar device needs an image).
type fabricImpl struct {
	name string
	run  func(t testing.TB, c *fabricCase) [][]uint32
}

// fabricCase is one harness row. Image rows configure a bitstream and
// run the keystream protocol; mini rows hand-build a Description that
// only the batch evaluators run.
type fabricCase struct {
	name string
	kE   [bitstream.KeySize]byte
	// base is the image the batch device loads; reconfig, when set, is
	// written into the loaded device by PartialReconfig before the
	// batch is built over it.
	base     []byte
	reconfig bitstream.PatchSet
	// patches holds one patch set per lane, images each lane's full
	// image as a scalar device loads it.
	patches []bitstream.PatchSet
	images  [][]byte
	iv      snow3g.IV
	words   int
	// model, when set, is the key of the design every lane runs
	// unmodified.
	model *snow3g.Key
	mini  *miniCase
	// want, when set, is the per-lane output every value must match.
	want [][]uint32
}

// miniCase is a hand-built design: shapes the SNOW 3G toolchain never
// emits (constant-tied inputs, flip-flop swap rings, LUT outputs
// driving Q nets). Its output words are, per cycle, the design's
// outputs in name order, one bit each.
type miniCase struct {
	desc   *bitstream.Description
	tts    []boolfn.TT
	lanes  int
	cycles int
	drive  func(b hdl.BatchDevice, cycle int)
}

// runFabric runs each row as a subtest on every implementation.
func runFabric(t *testing.T, cases ...*fabricCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkFabric(t, c, fabricImpls) })
	}
}

// checkFabric runs one row on every value of impls and requires each to
// match the row's want, or else the first value; it returns the
// outputs they agreed on.
func checkFabric(t testing.TB, c *fabricCase, impls []fabricImpl) [][]uint32 {
	t.Helper()
	ref, refName := c.want, "want"
	for _, impl := range impls {
		got := impl.run(t, c)
		if got == nil {
			continue
		}
		if ref == nil {
			ref, refName = got, impl.name
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %s ran %d lanes, %s %d", c.name, impl.name, len(got), refName, len(ref))
		}
		for L := range ref {
			if !slices.Equal(got[L], ref[L]) {
				t.Fatalf("%s lane %d/%d: %s %08x != %s %08x", c.name, L, len(ref), impl.name, got[L], refName, ref[L])
			}
		}
	}
	return ref
}

type evalMode int

const (
	evalCompiled evalMode = iota
	evalWalker
	evalToggling
)

// batchRun builds the row's batch and runs it in one evaluator mode.
func batchRun(mode evalMode) func(testing.TB, *fabricCase) [][]uint32 {
	return func(t testing.TB, c *fabricCase) [][]uint32 {
		b := rowBatch(t, c)
		hb := &harnessBatch{Batch: b, t: t, toggle: mode == evalToggling}
		hb.setWalker(mode == evalWalker)
		if c.mini != nil {
			return c.mini.trace(hb)
		}
		if b.Lanes() != len(c.patches) {
			t.Fatalf("Lanes() = %d, want %d", b.Lanes(), len(c.patches))
		}
		return hdl.GenerateKeystreamBatch(hb, c.iv, c.words)
	}
}

// rowBatch builds the row's batch: the mini design with its tables, or
// the base image (stepped by the row's reconfig frames) with one lane
// per patch set.
func rowBatch(t testing.TB, c *fabricCase) *Batch {
	if c.mini != nil {
		return miniBatch(t, c.mini.desc, c.mini.tts, nil, c.mini.lanes)
	}
	dev := New(c.kE)
	if err := dev.Load(c.base); err != nil {
		t.Fatal(err)
	}
	for _, fp := range c.reconfig {
		if err := dev.PartialReconfig(fp.Frame, fp.Data); err != nil {
			t.Fatal(err)
		}
	}
	b, err := dev.BatchOf(c.patches)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// harnessBatch drives a Batch for the harness: through the compiled
// program, or through the description walker when walk is set. It
// switches evaluators every third clock when toggle is set, and fails
// on any ReadLanes bit at or above the lane count (inactive lanes may
// hold garbage inside the 64-lane words, but must never leak out).
type harnessBatch struct {
	*Batch
	t      testing.TB
	walk   bool
	toggle bool
	clocks int
	// gather is the walker's BRAM buffer: per-lane table words,
	// transposed in place into bitsliced outputs.
	gather [LaneWordBits]uint64
}

func (h *harnessBatch) ClockBatch() {
	if h.toggle {
		h.setWalker(h.clocks/3%2 == 1)
	}
	h.clocks++
	if !h.walk {
		h.Batch.ClockBatch()
		return
	}
	h.walkSettle()
	h.st.latch()
	h.dirty = true
}

func (h *harnessBatch) ReadLanes(name string) uint64 {
	if h.walk && h.dirty {
		h.walkSettle()
	}
	v := h.Batch.ReadLanes(name)
	if v>>uint(h.Lanes()) != 0 {
		h.t.Fatalf("%q: bits at or above lane %d leak: %016x", name, h.Lanes(), v)
	}
	return v
}

// setWalker switches between the compiled-program evaluator and the
// description walker. Both run over the same register file, LUT rows
// and per-lane BRAM tables, so results are identical.
func (h *harnessBatch) setWalker(on bool) {
	if on {
		// The walker reads and latches the ff array directly; fold any
		// inline flip-flop state back into it first. It also evaluates
		// every LUT through its rows, including the Shannon-form ones the
		// compiled path never materialized.
		st := h.st
		st.materializeFF()
		for i := range st.rows {
			if st.rows[i] == nil {
				st.rows[i] = rowsFromTT(st.prog.baseTT[i], ^uint64(0))
			}
		}
	}
	h.walk = on
}

// walkSettle is the description-walking evaluator, running over the
// batch's register file — the ground truth the compiled program is
// pinned against.
func (h *harnessBatch) walkSettle() {
	st := h.st
	desc := st.prog.desc
	nets := st.regs
	nets[0] = 0
	nets[1] = ^uint64(0)
	for i, ff := range desc.FFs {
		nets[ff.Q] = st.ff[i]
	}
	for _, item := range desc.Eval {
		switch item.Kind {
		case bitstream.EvalLUT:
			rec := &desc.LUTs[item.Index]
			rows := st.rows[item.Index]
			if rec.O5 != bitstream.NoNet {
				// Fractured LUT: a6 selects the half (Fig 4); only the
				// first five inputs address within a half.
				k := min(len(rec.Inputs), 5)
				nets[rec.O5] = h.reduce(rows, k, rec.Inputs)
				nets[rec.O6] = h.reduce(rows[32:], k, rec.Inputs)
			} else {
				nets[rec.O6] = h.reduce(rows, len(rec.Inputs), rec.Inputs)
			}
		case bitstream.EvalBRAM:
			rec := &desc.BRAMs[item.Index]
			words := h.gather[:h.Lanes()]
			for L := range words {
				addr := 0
				for i, a := range rec.Addr {
					addr |= int(nets[a]>>uint(L)&1) << uint(i)
				}
				words[L] = st.tabs[int(item.Index)*MaxLanes+L][addr]
			}
			// Bit L of row bi becomes bit bi of words[L]. Rows for lanes
			// at or above the lane count carry stale bits, which is
			// harmless: bit L of any net only ever depends on bit L of
			// other nets.
			transpose64(&h.gather)
			for bi, out := range rec.Out {
				nets[out] = h.gather[bi]
			}
		case bitstream.EvalAdder:
			rec := &desc.Adders[item.Index]
			var carry uint64
			for i := range rec.A {
				av, bv := nets[rec.A[i]], nets[rec.B[i]]
				x := av ^ bv
				nets[rec.Sum[i]] = x ^ carry
				carry = av&bv | carry&x
			}
		}
	}
	h.dirty = false
}

// reduce collapses the first 1<<k transposed truth-table rows through a
// mux tree addressed by the LUT's input nets — the bitsliced TT.Eval
// over k inputs for all lanes at once.
func (h *harnessBatch) reduce(rows []uint64, k int, inputs []uint32) uint64 {
	var v [32]uint64
	if k == 0 {
		return rows[0]
	}
	half := 1 << uint(k-1)
	sel := h.st.regs[inputs[k-1]]
	for m := 0; m < half; m++ {
		v[m] = sel&rows[m|half] | ^sel&rows[m]
	}
	for j := k - 2; j >= 0; j-- {
		sel = h.st.regs[inputs[j]]
		half >>= 1
		for m := 0; m < half; m++ {
			v[m] = sel&v[m|half] | ^sel&v[m]
		}
	}
	return v[0]
}

// imageRun runs the keystream protocol on one scalar device per
// distinct lane image, each configured by the lane function open
// returns for the row (nil: the row is out of its reach).
func imageRun(open func(testing.TB, *fabricCase) func(L int) *FPGA) func(testing.TB, *fabricCase) [][]uint32 {
	return func(t testing.TB, c *fabricCase) [][]uint32 {
		if c.mini != nil {
			return nil
		}
		lane := open(t, c)
		if lane == nil {
			return nil
		}
		byImage := map[string][]uint32{}
		out := make([][]uint32, len(c.images))
		for L, img := range c.images {
			z, ok := byImage[string(img)]
			if !ok {
				z = hdl.GenerateKeystream(lane(L), c.iv, c.words)
				byImage[string(img)] = z
			}
			out[L] = z
		}
		return out
	}
}

// trace clocks a mini design through its stimulus, recording every
// output on every cycle.
func (m *miniCase) trace(b hdl.BatchDevice) [][]uint32 {
	var outs []string
	for _, p := range m.desc.Ports {
		if p.Dir == bitstream.Out {
			outs = append(outs, p.Name)
		}
	}
	slices.Sort(outs)
	out := make([][]uint32, m.lanes)
	for cy := 0; cy < m.cycles; cy++ {
		if m.drive != nil {
			m.drive(b, cy)
		}
		words := make([]uint32, m.lanes)
		for j, name := range outs {
			mask := b.ReadLanes(name)
			for L := range words {
				words[L] |= uint32(mask>>uint(L)&1) << uint(j)
			}
		}
		for L := range out {
			out[L] = append(out[L], words[L])
		}
		b.ClockBatch()
	}
	return out
}

// modelCase is a one-lane row over img, an unmodified design built with
// testKey, pinned to the software model.
func modelCase(name string, kE [bitstream.KeySize]byte, img []byte, words int) *fabricCase {
	return &fabricCase{name: name, kE: kE, base: img, patches: []bitstream.PatchSet{nil},
		images: [][]byte{img}, iv: testIV, words: words, model: &testKey}
}

// imageCase is an image row over fx's base: one lane per image, each
// patched in by its frame diff against the base.
func (fx *batchFixture) imageCase(t testing.TB, name string, images [][]byte, iv snow3g.IV, words int) *fabricCase {
	t.Helper()
	c := &fabricCase{name: name, base: fx.img, images: images, iv: iv, words: words}
	for _, img := range images {
		c.patches = append(c.patches, fx.diff(t, img))
	}
	return c
}

// randomImage is a lane image drawn from rng: the base, one LUT
// rewritten, or one BRAM word rewritten.
func (fx *batchFixture) randomImage(t testing.TB, rng *rand.Rand) []byte {
	switch rng.Intn(3) {
	case 0:
		return fx.img
	case 1:
		return fx.randomLUT(t, fx.img, rng)
	}
	return fx.randomBRAMWord(fx.img, rng)
}

// fuzzFabric is the fabric harness under fuzzing: a fuzzed lane count
// (1 + laneByte % MaxLanes), per-lane random LUT and BRAM patches drawn
// from patchSeed, and an IV from ivSeed. The batch values run every
// lane; the lane values, which configure a device per distinct image,
// run one lane drawn from patchSeed against the batch word's output,
// so an input costs a few compiles rather than one per lane.
func fuzzFabric(f *testing.F) {
	fx := newBatchFixture(f)
	f.Fuzz(func(t *testing.T, laneByte uint8, patchSeed int64, ivSeed uint64) {
		lanes := 1 + int(laneByte)%MaxLanes
		rng := rand.New(rand.NewSource(patchSeed))
		iv := snow3g.IV{uint32(ivSeed), uint32(ivSeed >> 32), uint32(ivSeed) ^ 0xA5A5A5A5, uint32(ivSeed>>32) ^ 0x5A5A5A5A}
		images := make([][]byte, lanes)
		for L := range images {
			images[L] = fx.randomImage(t, rng)
		}
		c := fx.imageCase(t, "fuzz", images, iv, 3)
		out := checkFabric(t, c, batchImpls)
		L := rng.Intn(lanes)
		one := *c
		one.name = fmt.Sprintf("fuzz lane %d", L)
		one.patches, one.images, one.want = c.patches[L:L+1], c.images[L:L+1], out[L:L+1]
		checkFabric(t, &one, laneImpls)
	})
}

// FuzzProgramDifferential is the fabric harness's fuzzer: every
// implementation of the axis must agree on random lane counts, patch
// mixes and IVs. The seeds pin lane counts 1, 6, 9, 36 and 64.
func FuzzProgramDifferential(f *testing.F) {
	f.Add(uint8(0), int64(1), uint64(0xEA024714AD5C4D84))
	f.Add(uint8(5), int64(42), uint64(0xDF1F9B251C0BF45F))
	f.Add(uint8(63), int64(1234), uint64(0x0123456789ABCDEF))
	f.Add(uint8(99), int64(77), uint64(0x243F6A8885A308D3)) // 36 lanes
	f.Add(uint8(200), int64(9), uint64(0x13198A2E03707344)) // 9 lanes
	f.Add(uint8(255), int64(3), uint64(0xA4093822299F31D0)) // 64 lanes: full word
	fuzzFabric(f)
}

// FuzzClockBatchDifferential replays its own seeds and committed corpus
// through the same harness; FuzzProgramDifferential is the one to
// fuzz with.
func FuzzClockBatchDifferential(f *testing.F) {
	f.Add(uint8(1), int64(1), uint64(0xEA024714AD5C4D84))
	f.Add(uint8(2), int64(7), uint64(0xDF1F9B251C0BF45F))
	f.Add(uint8(64), int64(1234), uint64(0x0123456789ABCDEF))
	f.Add(uint8(65), int64(55), uint64(0x082EFA98EC4E6C89))  // 2 lanes
	f.Add(uint8(128), int64(21), uint64(0x452821E638D01377)) // 1 lane
	f.Add(uint8(255), int64(12), uint64(0xBE5466CF34E90C6C)) // 64 lanes: full word
	fuzzFabric(f)
}
