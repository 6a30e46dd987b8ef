package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
)

// The scan harness. Every scan path and each oracle it replaced is one
// value of the implementation axis scanImpls; every row (scanCase) runs
// on every value, and all values must report the same match indexes
// and dual-XOR hits — and, where they report them, the same orders and
// permutations. Each value is driven through its own entry point, so
// Algorithm 1 as written and the literal serial dual-XOR sweep never
// call into the scanner they check.

// scanImpls is the implementation axis.
var scanImpls = []scanImpl{
	// One batch Scanner over every function and window: one pass.
	{"scanner", scannerRun(FindOptions{})},
	// The same batch on one worker, and on more workers than the image
	// has useful split points.
	{"parallel-1", scannerRun(FindOptions{Parallel: 1})},
	{"parallel-64", scannerRun(FindOptions{Parallel: 64})},
	// One FindLUT per function and one FindDualXOR per window.
	{"findlut", func(b []byte, c *scanCase) *scanResult {
		r := &scanResult{}
		for _, f := range c.fns {
			r.matches = append(r.matches, FindLUT(b, f, FindOptions{}))
		}
		for _, w := range c.windows {
			r.duals = append(r.duals, FindDualXOR(b, w[0], w[1]))
		}
		return r
	}},
	// The literal serial dual-XOR sweep: decodes at every offset.
	{"serial-dual", func(b []byte, c *scanCase) *scanResult {
		r := &scanResult{}
		for _, w := range c.windows {
			r.duals = append(r.duals, findDualXORSerial(b, w[0], w[1]))
		}
		return r
	}},
	// Algorithm 1 as written. Last on the axis: fuzzScanImpls drops it.
	{"algorithm1", func(b []byte, c *scanCase) *scanResult {
		r := &scanResult{}
		for _, f := range c.fns {
			r.indexes = append(r.indexes, FindLUTReference(b, f, SevenSeries()))
		}
		return r
	}},
}

// FindLUT is FINDLUT for one function: a Scanner over f alone. The
// harness's "findlut" value runs one per function.
func FindLUT(b []byte, f boolfn.TT, opt FindOptions) []Match {
	s := NewScanner(opt)
	s.AddFunction("f", f)
	return s.Scan(b).Matches["f"]
}

// fuzzScanImpls is the axis the fuzzer runs: Algorithm 1 as written
// costs ~35 µs per byte per function, too slow to fuzz with, so only
// the suite's rows run it.
var fuzzScanImpls = scanImpls[:len(scanImpls)-1]

type scanImpl struct {
	name string
	run  func(b []byte, c *scanCase) *scanResult
}

// scanCase is one harness row: an image, the functions to find in it
// and the dual-XOR windows to sweep.
type scanCase struct {
	name    string
	img     []byte
	fns     []boolfn.TT
	windows [][2]int
}

// scanResult holds one implementation's answers in row order. An
// implementation leaves nil what it does not report: the serial
// dual-XOR sweep reports no functions, Algorithm 1 no windows and no
// orders or permutations.
type scanResult struct {
	matches [][]Match
	indexes [][]int
	duals   [][]int
}

func scannerRun(opt FindOptions) func([]byte, *scanCase) *scanResult {
	return func(b []byte, c *scanCase) *scanResult {
		s := NewScanner(opt)
		for i, f := range c.fns {
			s.AddFunction(fmt.Sprintf("fn%d", i), f)
		}
		for i, w := range c.windows {
			s.AddDualXOR(fmt.Sprintf("w%d", i), w[0], w[1])
		}
		res := s.Scan(b)
		r := &scanResult{}
		for i := range c.fns {
			r.matches = append(r.matches, res.Matches[fmt.Sprintf("fn%d", i)])
		}
		for i := range c.windows {
			r.duals = append(r.duals, res.DualHits[fmt.Sprintf("w%d", i)])
		}
		return r
	}
}

// checkScan runs one row on every implementation of impls, requires
// them to agree with the first (the batch scanner, which reports
// everything), and returns its result.
func checkScan(t testing.TB, c *scanCase, impls []scanImpl) *scanResult {
	t.Helper()
	ref := impls[0].run(c.img, c)
	for _, ms := range ref.matches {
		ref.indexes = append(ref.indexes, matchIndexes(ms))
	}
	for _, impl := range impls[1:] {
		got := impl.run(c.img, c)
		for i, f := range c.fns {
			label := fmt.Sprintf("%s %v: %s vs %s", c.name, f, impl.name, impls[0].name)
			switch {
			case got.matches != nil:
				matchesEqual(t, label, got.matches[i], ref.matches[i])
			case got.indexes != nil && !slices.Equal(got.indexes[i], ref.indexes[i]):
				t.Fatalf("%s: %v != %v", label, got.indexes[i], ref.indexes[i])
			}
		}
		for i, w := range c.windows {
			if got.duals != nil && !slices.Equal(got.duals[i], ref.duals[i]) {
				t.Fatalf("%s window %v: %s hits %v, %s %v", c.name, w, impl.name, got.duals[i], impls[0].name, ref.duals[i])
			}
		}
	}
	return ref
}

// runScan runs each row as a subtest on the whole axis.
func runScan(t *testing.T, cases ...*scanCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkScan(t, c, scanImpls) })
	}
}

func matchIndexes(ms []Match) []int {
	idx := make([]int, 0, len(ms))
	for _, m := range ms {
		idx = append(idx, m.Index)
	}
	return idx
}

// scannerTestFuncs is the function set the differential tests batch:
// the three confirmed paper targets plus a guessed MUX shape (small
// support → misaligned false positives, stressing the demultiplexer).
func scannerTestFuncs() []boolfn.TT {
	return []boolfn.TT{
		boolfn.F2,
		boolfn.F8,
		boolfn.F19,
		boolfn.MustParse("a1a2 + !a1a3"),
	}
}

// dualPlants are plantImage's dual-output XOR LUTs: three with the XOR
// in O5 and two in O6, covering both slice orders for each half.
var dualPlants = []struct {
	loc     bitstream.Loc
	xorVars [2]int
	inO6    bool
}{
	{bitstream.Loc{Frame: 10, Slot: 0, Type: bitstream.SliceL}, [2]int{1, 3}, false},
	{bitstream.Loc{Frame: 11, Slot: 7, Type: bitstream.SliceM}, [2]int{2, 3}, false},
	{bitstream.Loc{Frame: 12, Slot: 14, Type: bitstream.SliceL}, [2]int{1, 3}, false},
	{bitstream.Loc{Frame: 14, Slot: 11, Type: bitstream.SliceL}, [2]int{2, 5}, true},
	{bitstream.Loc{Frame: 15, Slot: 20, Type: bitstream.SliceM}, [2]int{4, 5}, true},
}

// plantImage builds a frame image with LUTs planted for permuted
// variants of the test functions in both slice types, plus deterministic
// noise bytes in an unused tail region (noise may create false
// positives; both scan paths must agree on them too).
func plantImage(t testing.TB) []byte {
	t.Helper()
	img := make([]byte, 24*bitstream.FrameBytes)
	rng := rand.New(rand.NewSource(99))
	fns := scannerTestFuncs()
	for i, f := range fns {
		for j, typ := range []bitstream.SliceType{bitstream.SliceL, bitstream.SliceM} {
			perm := boolfn.Permutations(boolfn.MaxVars)[rng.Intn(720)]
			loc := bitstream.Loc{Frame: 2*i + j, Slot: 3 + 5*i + j, Type: typ}
			if err := bitstream.WriteLUT(img, loc, f.Permute(perm)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Dual-output XOR plants for the Section VII-B predicate: the XOR in
	// the O5 half (byte lane 1) or the O6 half (byte lane 0), the other
	// half random.
	for _, pl := range dualPlants {
		xor := boolfn.Shrink5(boolfn.Xor(boolfn.A(pl.xorVars[0]), boolfn.A(pl.xorVars[1])))
		d := boolfn.DualLUT{O5: xor, O6: boolfn.TT5(rng.Uint32())}
		if pl.inO6 {
			d.O5, d.O6 = d.O6, d.O5
		}
		if err := bitstream.WriteLUT(img, pl.loc, d.Pack()); err != nil {
			t.Fatal(err)
		}
	}
	// Noise tail.
	noise := img[18*bitstream.FrameBytes:]
	for i := range noise {
		noise[i] = byte(rng.Intn(256))
	}
	return img
}

// matchesEqual requires got and want to hold the same matches: index,
// slice order and permutation.
func matchesEqual(t testing.TB, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].Order != want[i].Order ||
			!reflect.DeepEqual(got[i].Perm, want[i].Perm) {
			t.Fatalf("%s: match %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestScannerBatchEquivalence: a scan harness row over the whole
// planted image — every test function, planted in both slice types,
// plus the noise tail.
func TestScannerBatchEquivalence(t *testing.T) {
	runScan(t, &scanCase{name: "planted", img: plantImage(t), fns: scannerTestFuncs()})
}

// TestScannerMatchesAlgorithm1Reference: a scan harness row over the
// head of the planted image, every test function on six frames.
func TestScannerMatchesAlgorithm1Reference(t *testing.T) {
	runScan(t, &scanCase{name: "head", img: plantImage(t)[:6*bitstream.FrameBytes], fns: scannerTestFuncs()})
}

// findDualXORSerial is the literal pre-scanner sweep (two full 64-bit
// decodes at every byte offset, no prefilter, no workers) kept as the
// oracle for the routed implementation.
func findDualXORSerial(b []byte, lo, hi int) []int {
	span := (bitstream.SubVectors-1)*bitstream.SubVectorOffset + bitstream.SubVectorBytes
	if hi <= 0 || hi > len(b)-span {
		hi = len(b) - span
	}
	if lo < 0 {
		lo = 0
	}
	var hits []int
	for l := lo; l <= hi; l++ {
		var sub [bitstream.SubVectors][bitstream.SubVectorBytes]byte
		for q := 0; q < bitstream.SubVectors; q++ {
			off := l + q*bitstream.SubVectorOffset
			sub[q][0], sub[q][1] = b[off], b[off+1]
		}
		for _, order := range []bitstream.SliceType{bitstream.SliceL, bitstream.SliceM} {
			if boolfn.DualXorCandidate(bitstream.DecodeLUT(sub, order)) {
				hits = append(hits, l)
				break
			}
		}
	}
	return hits
}

// TestFindDualXORMatchesSerialSweep: a scan harness row of dual-XOR
// windows over the planted image — whole, head, middle, clamped and
// open-ended — and every plant must be among the full sweep's hits.
func TestFindDualXORMatchesSerialSweep(t *testing.T) {
	img := plantImage(t)
	res := checkScan(t, &scanCase{name: "windows", img: img, windows: [][2]int{
		{0, 0},
		{0, 5 * bitstream.FrameBytes},
		{3 * bitstream.FrameBytes, 12 * bitstream.FrameBytes},
		{-7, len(img) + 100},
		{17 * bitstream.FrameBytes, 0},
	}}, scanImpls)
	for _, pl := range dualPlants {
		l := pl.loc.Frame*bitstream.FrameBytes + pl.loc.Slot*bitstream.SubVectorBytes
		if !slices.Contains(res.duals[0], l) {
			t.Fatalf("full sweep missed the %+v plant at %d", pl, l)
		}
	}
}

// TestDualLaneSeparation proves the byte-lane split the raw-byte dual
// predicate relies on, exhaustively: under both slice orders, INIT bit i
// lands in the high byte (lane 1) of its sub-vector iff i < 32, i.e. the
// O5 half is lane 1 and the O6 half lane 0.
func TestDualLaneSeparation(t *testing.T) {
	for _, order := range []bitstream.SliceType{bitstream.SliceL, bitstream.SliceM} {
		for i := 0; i < 64; i++ {
			sub := bitstream.EncodeLUT(boolfn.TT(1)<<i, order)
			lane := -1
			for q := range sub {
				for j, v := range sub[q] {
					if v == 0 {
						continue
					}
					if lane >= 0 {
						t.Fatalf("%v bit %d: set in more than one byte", order, i)
					}
					lane = j
				}
			}
			want := 0 // O6 half
			if i < 32 {
				want = 1 // O5 half
			}
			if lane != want {
				t.Fatalf("%v bit %d landed in lane %d, want %d", order, i, lane, want)
			}
		}
	}
}

// TestDualLaneKeySetsEqual pins what the single key list of dualLanes
// rests on: the lane keys of the O5 half (lane 1) are the same set as
// those of the O6 half (lane 0), the set dualLaneTables compiles.
func TestDualLaneKeySetsEqual(t *testing.T) {
	var lanes [2][]uint32
	for _, x := range boolfn.Xor2Halves() {
		for j, init := range [2]boolfn.TT{boolfn.TT(x) << 32, boolfn.TT(x)} {
			for _, order := range []bitstream.SliceType{bitstream.SliceL, bitstream.SliceM} {
				sub := bitstream.EncodeLUT(init, order)
				lanes[j] = append(lanes[j], uint32(sub[0][j])|uint32(sub[1][j])<<8|
					uint32(sub[2][j])<<16|uint32(sub[3][j])<<24)
			}
		}
	}
	compiled := slices.Clone(dualLaneTables().keys)
	slices.Sort(compiled)
	for j := range lanes {
		slices.Sort(lanes[j])
		lanes[j] = slices.Compact(lanes[j])
		if !slices.Equal(lanes[j], compiled) {
			t.Fatalf("lane %d keys %x differ from the compiled keys %x", j, lanes[j], compiled)
		}
	}
	if len(compiled) != 17 {
		t.Fatalf("%d lane keys, want 17", len(compiled))
	}
}

// TestDualLaneKeysDifferential is a dense scan harness row for the
// lane-key predicate: every XOR2 lane key
// and each of its one-bit mutations is written into both byte lanes of a
// frame slot, with the other lane blank, random or another key. Random
// bytes almost never hit, so this is where the exact key check and the
// 16-bit prefilter meet their near misses.
func TestDualLaneKeysDifferential(t *testing.T) {
	keys := dualLaneTables().keys
	if len(keys) == 0 {
		t.Fatal("no lane keys")
	}
	rng := rand.New(rand.NewSource(5))
	var slots [][2]uint32 // lane-0 and lane-1 keys per slot
	for _, k := range keys {
		for bit := -1; bit < 32; bit++ {
			v := k
			if bit >= 0 {
				v ^= 1 << bit
			}
			other := [3]uint32{0, rng.Uint32(), keys[rng.Intn(len(keys))]}[rng.Intn(3)]
			slots = append(slots, [2]uint32{v, other}, [2]uint32{other, v})
		}
	}
	frames := (len(slots)-1)/bitstream.SlotsPerFrame + 2
	img := make([]byte, frames*bitstream.FrameBytes)
	for i, lanes := range slots {
		base := (i/bitstream.SlotsPerFrame)*bitstream.FrameBytes + (i%bitstream.SlotsPerFrame)*bitstream.SubVectorBytes
		for j, key := range lanes {
			for q := 0; q < bitstream.SubVectors; q++ {
				img[base+j+q*bitstream.SubVectorOffset] = byte(key >> (8 * q))
			}
		}
	}
	res := checkScan(t, &scanCase{name: "lane keys", img: img, windows: [][2]int{{0, 0}}}, scanImpls)
	if len(res.duals[0]) < len(keys) {
		t.Fatalf("only %d hits for %d planted keys", len(res.duals[0]), len(keys))
	}
}

// TestScannerDualWindowsShareOnePass: two dual-XOR windows take one
// pass (what each window reports is the scan harness's).
func TestScannerDualWindowsShareOnePass(t *testing.T) {
	s := NewScanner(FindOptions{})
	s.AddDualXOR("all", 0, 0)
	s.AddDualXOR("head", 0, 5*bitstream.FrameBytes)
	if res := s.Scan(plantImage(t)); res.Stats.Passes != 1 {
		t.Fatalf("two windows took %d passes, want 1", res.Stats.Passes)
	}
}

func TestScanStatsObservability(t *testing.T) {
	ResetCatalogueCache()
	img := plantImage(t)
	fns := scannerTestFuncs()
	build := func() *Scanner {
		s := NewScanner(FindOptions{})
		for i, f := range fns {
			s.AddFunction(fmt.Sprintf("fn%d", i), f)
		}
		s.AddDualXOR("dual", 0, 0)
		return s
	}
	cold := build().Scan(img).Stats
	if cold.Functions != len(fns) || cold.DualTargets != 1 {
		t.Fatalf("targets %d/%d, want %d/1", cold.Functions, cold.DualTargets, len(fns))
	}
	if cold.Passes != 1 || cold.BytesScanned == 0 || cold.AnchorProbes == 0 {
		t.Fatalf("walk counters implausible: %+v", cold)
	}
	if cold.CandidatesCompiled == 0 || cold.CatalogueMisses != len(fns) || cold.CatalogueHits != 0 {
		t.Fatalf("cold compile counters wrong: %+v", cold)
	}
	if cold.DualProbes == 0 || cold.DualDecodes == 0 || cold.DualDecodes > cold.DualProbes {
		t.Fatalf("dual counters implausible: %+v", cold)
	}
	// Blank fabric must stay off the decode path: most of the image is
	// empty, so the prefilter must reject the bulk of the probes.
	if cold.DualDecodes*2 > cold.DualProbes {
		t.Fatalf("prefilter ineffective: %d decodes for %d probes", cold.DualDecodes, cold.DualProbes)
	}
	warm := build().Scan(img).Stats
	if warm.CatalogueHits != len(fns) || warm.CatalogueMisses != 0 {
		t.Fatalf("catalogue cache not reused: %+v", warm)
	}
	var acc ScanStats
	acc.Accumulate(cold)
	acc.Accumulate(warm)
	if acc.Passes != 2 || acc.Functions != 2*len(fns) {
		t.Fatalf("accumulation wrong: %+v", acc)
	}
}

// TestScannerIndexReuse pins the scanner-local compiled index: a second
// Scan on the same scanner serves the anchor index from the scanner
// itself (no catalogue traffic, byte-identical results), and a later
// AddFunction invalidates it so the next Scan sees the new query set.
func TestScannerIndexReuse(t *testing.T) {
	img := plantImage(t)
	s := NewScanner(FindOptions{})
	s.AddFunction("f", boolfn.F2)
	first := s.Scan(img)
	second := s.Scan(img)
	if !reflect.DeepEqual(first.Matches, second.Matches) {
		t.Fatal("reused index changed the matches")
	}
	if second.Stats.CatalogueMisses != 0 || second.Stats.CatalogueHits != 1 {
		t.Fatalf("second scan recompiled: %+v", second.Stats)
	}
	if second.Stats.CandidatesCompiled != first.Stats.CandidatesCompiled {
		t.Fatalf("candidate count drifted: %d vs %d",
			second.Stats.CandidatesCompiled, first.Stats.CandidatesCompiled)
	}
	// Re-adding the key with a different function must rebuild the index
	// and produce that function's FindLUT-identical matches.
	s.AddFunction("f", boolfn.F19)
	matchesEqual(t, "post-invalidate", s.Scan(img).Matches["f"],
		FindLUT(img, boolfn.F19, FindOptions{}))
}

// checkAnchorIndex verifies the compiled CSR index against the
// scanner's catalogues: offsets ascend to the candidate count, each
// bucket holds exactly the candidates anchored on its key, in
// (function, candidate) order. It returns the number of keys shared by
// candidates of two or more functions.
func checkAnchorIndex(t *testing.T, s *Scanner) (shared int) {
	t.Helper()
	if got := int(s.start[len(s.start)-1]); got != s.compiled || len(s.refs) != s.compiled {
		t.Fatalf("index ends at %d with %d refs, want %d candidates", got, len(s.refs), s.compiled)
	}
	for k := 0; k < 1<<16; k++ {
		from, to := s.start[k], s.start[k+1]
		if from > to {
			t.Fatalf("key %04x: offsets %d > %d", k, from, to)
		}
		fns := map[int32]bool{}
		for i := from; i < to; i++ {
			r := s.refs[i]
			c := s.catalogues[r.fn][r.ci]
			if int(c.sub[c.anchor]) != k {
				t.Fatalf("key %04x holds candidate %d/%d anchored on %04x", k, r.fn, r.ci, c.sub[c.anchor])
			}
			if i > from {
				p := s.refs[i-1]
				if p.fn > r.fn || p.fn == r.fn && p.ci >= r.ci {
					t.Fatalf("key %04x: ref %+v follows %+v", k, r, p)
				}
			}
			fns[r.fn] = true
		}
		if len(fns) > 1 {
			shared++
		}
	}
	return shared
}

// TestScannerSharedAnchorKeys: scan harness rows batching functions
// whose candidates share anchor keys (a function under two keys, a
// P-equivalent variant, and small-support shapes whose sub-vectors
// recur), so index buckets mix functions. One scanner, scanned, then
// re-added to, must rebuild its index in place and answer each row as
// the harness does.
func TestScannerSharedAnchorKeys(t *testing.T) {
	img := plantImage(t)[:8*bitstream.FrameBytes] // every function's plants; the reference is slow
	keys := []string{"f2", "f2 again", "f2 perm", "f8", "mux", "xor2"}
	fns := []boolfn.TT{
		boolfn.F2,
		boolfn.F2,
		boolfn.F2.Permute([]int{3, 0, 5, 1, 4, 2}),
		boolfn.F8,
		boolfn.MustParse("a1a2 + !a1a3"),
		boolfn.MustParse("a1^a2"),
	}
	s := NewScanner(FindOptions{})
	for i, k := range keys {
		s.AddFunction(k, fns[i])
	}
	scansLikeRow(t, s, img, keys, checkScan(t, &scanCase{name: "shared", img: img, fns: fns}, scanImpls))
	if shared := checkAnchorIndex(t, s); shared == 0 {
		t.Fatal("no anchor key is shared by two functions; the row tests nothing")
	}

	// Re-add after a Scan: replace one key's function and add a new key.
	fns[5] = boolfn.F19
	keys, fns = append(keys, "f19 perm"), append(fns, boolfn.F19.Permute([]int{5, 4, 3, 2, 1, 0}))
	s.AddFunction(keys[5], fns[5]).AddFunction(keys[6], fns[6])
	scansLikeRow(t, s, img, keys, checkScan(t, &scanCase{name: "re-added", img: img, fns: fns}, scanImpls))
	checkAnchorIndex(t, s)
}

// scansLikeRow requires s, holding the row's functions under keys, to
// scan img to the harness's answer.
func scansLikeRow(t *testing.T, s *Scanner, img []byte, keys []string, want *scanResult) {
	t.Helper()
	res := s.Scan(img)
	for i, k := range keys {
		matchesEqual(t, k, res.Matches[k], want.matches[i])
	}
}

func TestScannerWorkerCapOnTinyInput(t *testing.T) {
	frames := make([]byte, 2*bitstream.FrameBytes)
	if err := bitstream.WriteLUT(frames, bitstream.Loc{Frame: 0, Slot: 5}, boolfn.F8); err != nil {
		t.Fatal(err)
	}
	s := NewScanner(FindOptions{Parallel: 1 << 20})
	s.AddFunction("f8", boolfn.F8)
	res := s.Scan(frames)
	if res.Stats.Workers > len(frames) {
		t.Fatalf("%d workers for %d scannable positions", res.Stats.Workers, len(frames))
	}
	if !slices.Contains(matchIndexes(res.Matches["f8"]), 10) {
		t.Fatal("oversubscribed scanner lost the plant")
	}
	// The probe window must not extend past the last useful anchor
	// position: limit + maxAnchor·d + 1 ≤ len(b) − 1.
	if res.Stats.AnchorProbes > int64(len(frames)-1) {
		t.Fatalf("probed %d positions in a %d-byte image", res.Stats.AnchorProbes, len(frames))
	}
}

func TestScannerEmptyAndTinyBuffers(t *testing.T) {
	s := NewScanner(FindOptions{})
	s.AddFunction("f", boolfn.F2)
	s.AddDualXOR("d", 0, 0)
	for _, b := range [][]byte{nil, make([]byte, 10), make([]byte, 304)} {
		res := s.Scan(b)
		if res.Matches["f"] != nil || res.DualHits["d"] != nil {
			t.Fatalf("len %d: non-empty result %+v", len(b), res)
		}
	}
}

// FuzzScannerDifferential is the scan harness under fuzzing: random
// frames through every implementation but Algorithm 1 as written.
func FuzzScannerDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 400))
	img := plantImage(f)
	f.Add(img[:2*bitstream.FrameBytes])
	f.Add(img[9*bitstream.FrameBytes : 13*bitstream.FrameBytes])
	f.Add(img[14*bitstream.FrameBytes : 16*bitstream.FrameBytes]) // O6-half plants
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<14 {
			b = b[:1<<14]
		}
		checkScan(t, &scanCase{
			name:    "fuzz",
			img:     b,
			fns:     []boolfn.TT{boolfn.F2, boolfn.F19, boolfn.MustParse("a1a2 + !a1a3")},
			windows: [][2]int{{0, 0}},
		}, fuzzScanImpls)
	})
}

// ResetCatalogueCache clears the process-wide catalogue cache so a test can count
// catalogue hits and misses from a cold start.
func ResetCatalogueCache() {
	catMu.Lock()
	defer catMu.Unlock()
	catCache = map[boolfn.TT][]candidate{}
}
