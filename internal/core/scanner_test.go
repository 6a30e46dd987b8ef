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

// The differential suite: the batch Scanner must be byte-identical to
// per-function FindLUT and to FindLUTReference (Algorithm 1 as written)
// on every option path, and FindDualXOR must be byte-identical to the
// literal serial sweep it replaced.

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

func matchesEqual(t *testing.T, label string, batch, single []Match) {
	t.Helper()
	if len(batch) != len(single) {
		t.Fatalf("%s: batch found %d matches, sequential %d", label, len(batch), len(single))
	}
	for i := range batch {
		if batch[i].Index != single[i].Index || batch[i].Order != single[i].Order ||
			!reflect.DeepEqual(batch[i].Perm, single[i].Perm) {
			t.Fatalf("%s: match %d differs: batch %+v vs sequential %+v",
				label, i, batch[i], single[i])
		}
	}
}

func TestScannerBatchEquivalence(t *testing.T) {
	img := plantImage(t)
	fns := scannerTestFuncs()
	for _, opt := range []FindOptions{
		{},
		{Parallel: 1},
		{Parallel: 64},
		{NoPermDedup: true},
	} {
		label := fmt.Sprintf("opt=%+v", opt)
		s := NewScanner(opt)
		for i, f := range fns {
			s.AddFunction(fmt.Sprintf("fn%d", i), f)
		}
		res := s.Scan(img)
		for i, f := range fns {
			single := FindLUT(img, f, opt)
			matchesEqual(t, fmt.Sprintf("%s fn%d", label, i),
				res.Matches[fmt.Sprintf("fn%d", i)], single)
		}
	}
}

func TestScannerMatchesAlgorithm1Reference(t *testing.T) {
	img := plantImage(t)[:6*bitstream.FrameBytes] // the reference is slow
	for _, f := range scannerTestFuncs() {
		want := FindLUTReference(img, f, SevenSeries())
		s := NewScanner(FindOptions{})
		s.AddFunction("f", f)
		got := s.Scan(img).Matches["f"]
		if len(got) != len(want) {
			t.Fatalf("%v: scanner %d indexes, Algorithm 1 %d", f, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != want[i] {
				t.Fatalf("%v: index %d is %d, Algorithm 1 says %d", f, i, got[i].Index, want[i])
			}
		}
	}
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

func TestFindDualXORMatchesSerialSweep(t *testing.T) {
	img := plantImage(t)
	for _, window := range [][2]int{
		{0, 0},
		{0, 5 * bitstream.FrameBytes},
		{3 * bitstream.FrameBytes, 12 * bitstream.FrameBytes},
		{-7, len(img) + 100},
		{17 * bitstream.FrameBytes, 0},
	} {
		want := findDualXORSerial(img, window[0], window[1])
		got := FindDualXOR(img, window[0], window[1])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %v: routed %v, serial oracle %v", window, got, want)
		}
		if window == [2]int{0, 0} {
			for _, pl := range dualPlants {
				l := pl.loc.Frame*bitstream.FrameBytes + pl.loc.Slot*bitstream.SubVectorBytes
				if !slices.Contains(got, l) {
					t.Fatalf("full sweep missed the %+v plant at %d", pl, l)
				}
			}
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

// TestDualLaneKeysDifferential is a dense differential of the lane-key
// predicate against the decode-based serial oracle: every XOR2 lane key
// and each of its one-bit mutations is written into both byte lanes of a
// frame slot, with the other lane blank, random or another key. Random
// bytes almost never hit, so this is where the exact key check and the
// 16-bit prefilter meet their near misses.
func TestDualLaneKeysDifferential(t *testing.T) {
	tabs := dualLaneTables()
	var keys []uint32
	for j := range tabs.keys {
		if len(tabs.keys[j]) == 0 {
			t.Fatalf("lane %d has no keys", j)
		}
		keys = append(keys, tabs.keys[j]...)
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
	want := findDualXORSerial(img, 0, 0)
	if got := FindDualXOR(img, 0, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("lane-key predicate found %d hits, serial oracle %d", len(got), len(want))
	}
	if len(want) < len(keys) {
		t.Fatalf("only %d hits for %d planted keys", len(want), len(keys))
	}
}

func TestScannerDualWindowsShareOnePass(t *testing.T) {
	img := plantImage(t)
	s := NewScanner(FindOptions{})
	s.AddDualXOR("all", 0, 0)
	s.AddDualXOR("head", 0, 5*bitstream.FrameBytes)
	res := s.Scan(img)
	if res.Stats.Passes != 1 {
		t.Fatalf("two windows took %d passes, want 1", res.Stats.Passes)
	}
	if !reflect.DeepEqual(res.DualHits["all"], findDualXORSerial(img, 0, 0)) {
		t.Fatal("full window diverged from the serial oracle")
	}
	if !reflect.DeepEqual(res.DualHits["head"], findDualXORSerial(img, 0, 5*bitstream.FrameBytes)) {
		t.Fatal("head window diverged from the serial oracle")
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

// checkScanAgainstOracles compares every function's batch matches with
// a FindLUT of its own and with Algorithm 1 as written.
func checkScanAgainstOracles(t *testing.T, label string, img []byte, s *Scanner, fns map[string]boolfn.TT) {
	t.Helper()
	res := s.Scan(img)
	for key, f := range fns {
		got := res.Matches[key]
		matchesEqual(t, label+" "+key, got, FindLUT(img, f, FindOptions{}))
		want := FindLUTReference(img, f, SevenSeries())
		if len(got) != len(want) {
			t.Fatalf("%s %s: scanner %d indexes, Algorithm 1 %d", label, key, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != want[i] {
				t.Fatalf("%s %s: index %d is %d, Algorithm 1 says %d", label, key, i, got[i].Index, want[i])
			}
		}
	}
}

// TestScannerSharedAnchorKeys batches functions whose candidates share
// anchor keys (a function under two keys, a P-equivalent variant, and
// small-support shapes whose sub-vectors recur), so index buckets mix
// functions. Re-adding after a Scan rebuilds the index in place.
func TestScannerSharedAnchorKeys(t *testing.T) {
	img := plantImage(t)[:8*bitstream.FrameBytes] // every function's plants; the reference is slow
	fns := map[string]boolfn.TT{
		"f2":       boolfn.F2,
		"f2 again": boolfn.F2,
		"f2 perm":  boolfn.F2.Permute([]int{3, 0, 5, 1, 4, 2}),
		"f8":       boolfn.F8,
		"xor2":     boolfn.MustParse("a1^a2"),
		"mux":      boolfn.MustParse("a1a2 + !a1a3"),
	}
	keys := make([]string, 0, len(fns))
	for k := range fns {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	s := NewScanner(FindOptions{})
	for _, k := range keys {
		s.AddFunction(k, fns[k])
	}
	checkScanAgainstOracles(t, "shared", img, s, fns)
	if shared := checkAnchorIndex(t, s); shared == 0 {
		t.Fatal("no anchor key is shared by two functions; the row tests nothing")
	}

	// Re-add after a Scan: replace one key's function and add a new key.
	fns["xor2"] = boolfn.F19
	fns["f19 perm"] = boolfn.F19.Permute([]int{5, 4, 3, 2, 1, 0})
	s.AddFunction("xor2", fns["xor2"]).AddFunction("f19 perm", fns["f19 perm"])
	checkScanAgainstOracles(t, "re-added", img, s, fns)
	checkAnchorIndex(t, s)
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
	found := false
	for _, m := range res.Matches["f8"] {
		if m.Index == 10 {
			found = true
		}
	}
	if !found {
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

// FuzzScannerDifferential feeds random frames to the batch scanner, the
// per-function FindLUT loop and the serial dual-XOR oracle; any
// divergence is a bug in the shared-pass demultiplexer.
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
		fns := []boolfn.TT{boolfn.F2, boolfn.F19, boolfn.MustParse("a1a2 + !a1a3")}
		s := NewScanner(FindOptions{})
		for i, fn := range fns {
			s.AddFunction(fmt.Sprintf("fn%d", i), fn)
		}
		s.AddDualXOR("dual", 0, 0)
		res := s.Scan(b)
		for i, fn := range fns {
			single := FindLUT(b, fn, FindOptions{})
			batch := res.Matches[fmt.Sprintf("fn%d", i)]
			if len(batch) != len(single) {
				t.Fatalf("fn%d: batch %d vs single %d matches", i, len(batch), len(single))
			}
			for j := range batch {
				if batch[j].Index != single[j].Index || batch[j].Order != single[j].Order ||
					!reflect.DeepEqual(batch[j].Perm, single[j].Perm) {
					t.Fatalf("fn%d match %d: %+v vs %+v", i, j, batch[j], single[j])
				}
			}
		}
		if want := findDualXORSerial(b, 0, 0); !reflect.DeepEqual(res.DualHits["dual"], want) {
			t.Fatalf("dual hits %v, serial oracle %v", res.DualHits["dual"], want)
		}
	})
}
