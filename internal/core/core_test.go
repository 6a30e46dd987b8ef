package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/device"
	"snowbma/internal/hdl"
	"snowbma/internal/mapper"
	"snowbma/internal/snow3g"
)

var (
	secretKey = snow3g.Key{0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48}
	attackIV  = snow3g.IV{0xEA024714, 0xAD5C4D84, 0xDF1F9B25, 0x1C0BF45F}
)

// buildVictim assembles a victim device. The secret key is known only to
// this test fixture; the attack sees bytes and keystream.
func buildVictim(t testing.TB, protected bool, encrypted bool) *device.FPGA {
	t.Helper()
	d := hdl.Build(hdl.Config{Key: secretKey, Protected: protected})
	opts := mapper.Options{K: 6, Boundaries: d.Boundaries}
	pol := mapper.PackPolicy{}
	if protected {
		opts.TrivialCuts = d.TrivialCuts
		pol = mapper.PackPolicy{Prefer: d.TrivialCuts, PairWithOthers: true}
	}
	r, err := mapper.Map(d.N, opts)
	if err != nil {
		t.Fatal(err)
	}
	phys := mapper.Pack(r, pol)
	img, err := bitstream.Assemble(d.N, phys, bitstream.AssembleOptions{Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	var kE [bitstream.KeySize]byte
	if encrypted {
		for i := range kE {
			kE[i] = byte(0xE0 ^ i)
		}
		var kA [bitstream.KeySize]byte
		for i := range kA {
			kA[i] = byte(0xA5 + i)
		}
		var cbcIV [16]byte
		img, err = bitstream.Seal(img, kE, kA, cbcIV)
		if err != nil {
			t.Fatal(err)
		}
	}
	f := device.New(kE)
	if err := f.Program(img); err != nil {
		t.Fatal(err)
	}
	return f
}

// newAttack opens an attack with attackIV on a victim from buildVictim.
func newAttack(t testing.TB, protected, encrypted bool, logf func(string, ...any)) *Attack {
	t.Helper()
	atk, err := NewAttack(buildVictim(t, protected, encrypted), attackIV, logf)
	if err != nil {
		t.Fatal(err)
	}
	return atk
}

func TestEndToEndAttackRecoversKey(t *testing.T) {
	victim := buildVictim(t, false, false)
	atk, err := NewAttack(victim, attackIV, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := atk.Run()
	if err != nil {
		t.Fatalf("attack failed: %v", err)
	}
	if rep.Key != secretKey {
		t.Fatalf("recovered key %08x, want %08x", rep.Key, secretKey)
	}
	if !rep.Verified {
		t.Fatal("report not marked verified")
	}
	if len(rep.LUT1) != 32 || len(rep.LUT2) != 24 || len(rep.LUT3) != 8 {
		t.Fatalf("confirmed LUT counts %d/%d/%d, want 32/24/8",
			len(rep.LUT1), len(rep.LUT2), len(rep.LUT3))
	}
	// The device must be restored to a working state with the original
	// image (attack model epilogue).
	z := hdl.GenerateKeystream(victim, attackIV, 4)
	model := snow3g.New(snow3g.Fault{})
	model.Init(secretKey, attackIV)
	want := model.KeystreamWords(4)
	for i := range want {
		if z[i] != want[i] {
			t.Fatal("victim not restored to original behaviour")
		}
	}
}

func TestEndToEndAttackTableIIIAndIV(t *testing.T) {
	// The key-independent keystream observed on the victim must equal
	// the software model's (the generalization of paper Table III), and
	// the final faulty keystream must rewind to a consistent γ state.
	atk := newAttack(t, false, false, nil)
	rep, err := atk.Run()
	if err != nil {
		t.Fatal(err)
	}
	model := snow3g.New(snow3g.Fault{FSMStuckInit: true, LFSRZeroLoad: true})
	model.Init(snow3g.Key{}, snow3g.IV{})
	wantIII := model.KeystreamWords(16)
	for i := range wantIII {
		if rep.KeyIndependent[i] != wantIII[i] {
			t.Fatalf("key-independent word %d: %08x != %08x", i+1, rep.KeyIndependent[i], wantIII[i])
		}
	}
	modelIV := snow3g.New(snow3g.Fault{FSMStuckInit: true, FSMStuckKeystream: true})
	modelIV.Init(secretKey, attackIV)
	wantZ := modelIV.KeystreamWords(16)
	for i := range wantZ {
		if rep.FaultyFinal[i] != wantZ[i] {
			t.Fatalf("faulty keystream word %d: %08x != %08x", i+1, rep.FaultyFinal[i], wantZ[i])
		}
	}
	if rep.RecoveredS0 != snow3g.Gamma(secretKey, attackIV) {
		t.Fatal("recovered S0 is not γ(K, IV)")
	}
}

func TestEndToEndAttackPaperTablesExact(t *testing.T) {
	// With the victim keyed with the ETSI test key and driven with the
	// paper's IV, the attack's observed keystreams are bit-exactly the
	// paper's Tables III and IV, and the recovered state is Table V.
	atk := newAttack(t, false, false, nil)
	rep, err := atk.Run()
	if err != nil {
		t.Fatal(err)
	}
	tableIII := []uint32{
		0xa1fb4788, 0xe4382f8e, 0x3b72471c, 0x33ebb59a,
		0x32ac43c7, 0x5eebfd82, 0x3a325fd4, 0x1e1d7001,
		0xb7f15767, 0x3282c5b0, 0x103da78f, 0xe42761e4,
		0xc6ded1bb, 0x089fa36c, 0x01c7c690, 0xbf921256,
	}
	tableIV := []uint32{
		0x3ffe4851, 0x35d1c393, 0x5914acef, 0xe98446cc,
		0x689782d9, 0x8abdb7fc, 0xa11b0377, 0x5a2dd294,
		0x5deb29fa, 0xc2c6009a, 0xa82ee62f, 0x925268ed,
		0xd04e2c33, 0x3890311b, 0xe8d27b84, 0xa70aeeaa,
	}
	for i := range tableIII {
		if rep.KeyIndependent[i] != tableIII[i] {
			t.Fatalf("Table III word %d: device gave %08x, paper %08x",
				i+1, rep.KeyIndependent[i], tableIII[i])
		}
	}
	for i := range tableIV {
		if rep.FaultyFinal[i] != tableIV[i] {
			t.Fatalf("Table IV word %d: device gave %08x, paper %08x",
				i+1, rep.FaultyFinal[i], tableIV[i])
		}
	}
	if rep.RecoveredS0[15] != 0xa283b85c || rep.RecoveredS0[0] != 0xd429ba60 {
		t.Fatalf("Table V mismatch: S0 = %08x", rep.RecoveredS0)
	}
}

func TestEncryptedBitstreamAttack(t *testing.T) {
	atk := newAttack(t, false, true, nil)
	rep, err := atk.Run()
	if err != nil {
		t.Fatalf("attack on encrypted bitstream failed: %v", err)
	}
	if !rep.Encrypted {
		t.Fatal("report did not flag encrypted image")
	}
	if rep.Key != secretKey {
		t.Fatalf("recovered key %08x, want %08x", rep.Key, secretKey)
	}
}

func TestAttackFailsOnProtectedDesign(t *testing.T) {
	atk := newAttack(t, true, false, nil)
	_, err := atk.Run()
	if err == nil {
		t.Fatal("attack succeeded against the protected design")
	}
	rep := atk.Report()
	// Table VI shape: all feedback-path candidate rows must be empty.
	for _, row := range rep.CandidateTable {
		if row.Path == "s15" && row.Count != 0 {
			t.Errorf("protected bitstream still matches %s (%d hits)", row.Name, row.Count)
		}
	}
	if rep.Key == secretKey {
		t.Fatal("protected design leaked the key")
	}
}

func TestTableIIShape(t *testing.T) {
	atk := newAttack(t, false, false, nil)
	counts := map[string]int{}
	for _, row := range atk.CountCandidates() {
		counts[row.Name] = row.Count
	}
	if counts["f2"] < 32 {
		t.Errorf("f2 count %d, want ≥ 32 (paper: 81 incl. false positives)", counts["f2"])
	}
	if counts["f8"] < 24 {
		t.Errorf("f8 count %d, want ≥ 24 (paper: 24)", counts["f8"])
	}
	if counts["f19"] < 8 {
		t.Errorf("f19 count %d, want ≥ 8 (paper: 8)", counts["f19"])
	}
	if counts["f8"]+counts["f19"] < 32 {
		t.Errorf("feedback-path candidates %d, want the paper's ≥ 32", counts["f8"]+counts["f19"])
	}
}

func TestTableVIShape(t *testing.T) {
	atk := newAttack(t, true, false, nil)
	counts := map[string]int{}
	for _, row := range atk.CountCandidates() {
		counts[row.Name] = row.Count
	}
	for name, n := range counts {
		c, _ := tableRow(name)
		if c.Path == "s15" && n != 0 {
			t.Errorf("protected: %s has %d hits, want 0 (Table VI)", name, n)
		}
	}
	// Section VII-B: the dual-output XOR search must return far more
	// candidates than the 32 targets, making selection infeasible.
	hits := FindDualXOR(atk.plain, 0, 0)
	if len(hits) < 96 {
		t.Fatalf("dual-XOR search found %d hits, want ≥ 96 for infeasibility", len(hits))
	}
	effort := Log2Binomial(len(hits)-32, 32)
	if effort < 64 {
		t.Errorf("selection effort 2^%.1f too low for the countermeasure claim", effort)
	}
}

func TestFindLUTLocatesKnownLUT(t *testing.T) {
	// White-box check: plant a LUT in an empty frame region and find it.
	frames := make([]byte, 10*bitstream.FrameBytes)
	f := boolfn.MustParse("(a1^a2^a3)a4a5!a6")
	loc := bitstream.Loc{Frame: 3, Slot: 11, Type: bitstream.SliceM}
	if err := bitstream.WriteLUT(frames, loc, f); err != nil {
		t.Fatal(err)
	}
	matches := FindLUT(frames, f, FindOptions{})
	// Misaligned false positives are expected (Section IV-C: "the set L
	// returned by FINDLUT may contain false positives"); the planted LUT
	// must be among the matches with correct metadata.
	wantIndex := 3*bitstream.FrameBytes + 11*bitstream.SubVectorBytes
	i := slices.IndexFunc(matches, func(m Match) bool { return m.Index == wantIndex })
	if i < 0 {
		t.Fatalf("planted LUT at %d not among %d matches", wantIndex, len(matches))
	}
	m := &matches[i]
	if m.Order != bitstream.SliceM {
		t.Fatalf("match order %v, want SLICEM", m.Order)
	}
	if got := ReadMatch(frames, *m); got != f {
		t.Fatalf("ReadMatch gave %v, want %v", got, f)
	}
}

func TestFindLUTFindsPermutedVariants(t *testing.T) {
	frames := make([]byte, 6*bitstream.FrameBytes)
	f := boolfn.F19
	// Plant a P-equivalent variant, not f itself.
	variant := f.Permute([]int{3, 0, 5, 1, 4, 2})
	loc := bitstream.Loc{Frame: 1, Slot: 7, Type: bitstream.SliceL}
	if err := bitstream.WriteLUT(frames, loc, variant); err != nil {
		t.Fatal(err)
	}
	matches := FindLUT(frames, f, FindOptions{})
	wantIndex := 1*bitstream.FrameBytes + 7*bitstream.SubVectorBytes
	i := slices.IndexFunc(matches, func(m Match) bool { return m.Index == wantIndex })
	if i < 0 {
		t.Fatalf("permuted variant at %d not among %d matches", wantIndex, len(matches))
	}
	// The reported permutation must reconstruct the stored table.
	if got := ReadMatch(frames, matches[i]); got != f {
		t.Fatalf("ReadMatch through reported perm gave %v, want the searched %v", got, f)
	}
}

func TestFindLUTDoesNotFindAbsentFunction(t *testing.T) {
	frames := make([]byte, 4*bitstream.FrameBytes)
	if err := bitstream.WriteLUT(frames, bitstream.Loc{Frame: 0, Slot: 0}, boolfn.F2); err != nil {
		t.Fatal(err)
	}
	if got := FindLUT(frames, boolfn.F8, FindOptions{}); len(got) != 0 {
		t.Fatalf("found %d spurious matches", len(got))
	}
}

func TestWriteMatchRoundTrip(t *testing.T) {
	frames := make([]byte, 4*bitstream.FrameBytes)
	if err := bitstream.WriteLUT(frames, bitstream.Loc{Frame: 2, Slot: 5, Type: bitstream.SliceM}, boolfn.F8); err != nil {
		t.Fatal(err)
	}
	m := FindLUT(frames, boolfn.F8, FindOptions{})[0]
	WriteMatch(frames, m, boolfn.F8Alpha)
	if got := ReadMatch(frames, m); got != boolfn.F8Alpha {
		t.Fatalf("after WriteMatch, ReadMatch gives %v, want F8Alpha", got)
	}
}

func TestMatchOverlap(t *testing.T) {
	a := Match{Index: 100}
	cases := []struct {
		idx  int
		want bool
	}{
		{100, true}, {101, true}, {102, false}, {99, true}, {98, false},
		{201, true}, // a's sub-vector at 201 collides with b's base
		{100 + 3*101 + 1, true},
		{100 + 4*101, false},
	}
	for _, c := range cases {
		b := Match{Index: c.idx}
		if got := a.Overlaps(b); got != c.want {
			t.Errorf("Overlaps(100, %d) = %v, want %v", c.idx, got, c.want)
		}
	}
}

// TestMatchOverlapsMatchesByteSets checks the closed-form overlap rule
// against the byte sets Bytes() defines, for every index difference out
// to one sub-vector stride past the widest possible collision.
func TestMatchOverlapsMatchesByteSets(t *testing.T) {
	const d = bitstream.SubVectorOffset
	a := Match{Index: 5 * d}
	overlapping := 0
	for delta := -4*d - 3; delta <= 4*d+3; delta++ {
		b := Match{Index: a.Index + delta}
		want := false
		for _, x := range a.Bytes() {
			for _, y := range b.Bytes() {
				want = want || x == y
			}
		}
		if got := a.Overlaps(b); got != want {
			t.Fatalf("Overlaps at Δ=%d = %v, byte sets say %v", delta, got, want)
		}
		if b.Overlaps(a) != want {
			t.Fatalf("Overlaps not symmetric at Δ=%d", delta)
		}
		if want {
			overlapping++
		}
	}
	if overlapping != 21 {
		t.Fatalf("%d overlapping deltas, want 21 (7 strides × 3 byte offsets)", overlapping)
	}
}

// TestFindOptionsAblation: a scan harness row of F2 planted five times
// across both slice types; every plant must be found.
func TestFindOptionsAblation(t *testing.T) {
	frames := make([]byte, 8*bitstream.FrameBytes)
	for s := 0; s < 5; s++ {
		loc := bitstream.Loc{Frame: s, Slot: 3 * s, Type: bitstream.FrameSliceType(s)}
		if err := bitstream.WriteLUT(frames, loc, boolfn.F2); err != nil {
			t.Fatal(err)
		}
	}
	res := checkScan(t, &scanCase{name: "F2 plants", img: frames, fns: []boolfn.TT{boolfn.F2}}, scanImpls)
	for s := 0; s < 5; s++ {
		if idx := s*bitstream.FrameBytes + 3*s*bitstream.SubVectorBytes; !slices.Contains(res.indexes[0], idx) {
			t.Errorf("scan missed planted LUT %d at %d", s, idx)
		}
	}
}

func TestComplexityPaperNumbers(t *testing.T) {
	// Section VII-C: C(171, 32) ≈ 4.9 × 10^34 ≈ 2^115.
	bits := Log2Binomial(171, 32)
	if math.Abs(bits-115.2) > 0.5 {
		t.Errorf("log2 C(171,32) = %.2f, paper says ≈ 115", bits)
	}
	// Section VII-A: x ≥ 16/e − 1 ≈ 4.9, so 5 decoy words suffice.
	if got := MinDecoyRatio(32, 128); got != 5 {
		t.Errorf("MinDecoyRatio(32, 128) = %d, want 5", got)
	}
	// The Lemma bound dominates the exact effort.
	for _, r := range []int{32, 96, 160} {
		if LemmaBound(32, r) < SearchEffort(32, r) {
			t.Errorf("Lemma bound below exact effort at r=%d", r)
		}
	}
}

func TestBinomialSmall(t *testing.T) {
	cases := map[[2]int]int64{{5, 2}: 10, {10, 0}: 1, {10, 10}: 1, {52, 5}: 2598960}
	for in, want := range cases {
		if got := Binomial(in[0], in[1]); got.Int64() != want {
			t.Errorf("C(%d,%d) = %v, want %d", in[0], in[1], got, want)
		}
	}
}

func BenchmarkFindLUTOnVictimImage(b *testing.B) {
	victim := buildVictim(b, false, false)
	img := victim.ReadFlash()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindLUT(img, boolfn.F2, FindOptions{})
	}
}

func TestGroupTestingExcludesHarmfulMuxCandidate(t *testing.T) {
	// Sabotage the MUX candidate list with a harmful false positive (a
	// confirmed z-path LUT disguised as a load MUX): the group-testing
	// fallback must exclude it and still confirm the key-independent
	// keystream.
	atk := newAttack(t, false, false, nil)
	if err := atk.VerifyZPath(); err != nil {
		t.Fatal(err)
	}
	if err := atk.CollectFeedbackCandidates(); err != nil {
		t.Fatal(err)
	}
	// Build the genuine candidate set the way MakeKeyIndependent does,
	// then poison it.
	matches, specOf := atk.muxCandidates(muxCatalogue())
	harm := muxSpec{fn: boolfn.F2, zeroSel1: boolfn.Const0, zeroSel0: boolfn.Const0}
	matches = append(matches, atk.rep.LUT1[5].Match)
	specOf = append(specOf, harm)

	beta, err := atk.resolveBeta(matches, specOf)
	if err != nil {
		t.Fatalf("group testing failed to rescue the poisoned set: %v", err)
	}
	if beta.excluded != 1 {
		t.Fatalf("excluded %d candidates, want exactly the 1 poison", beta.excluded)
	}
	// The attack must still complete from here.
	if err := atk.IdentifyVPairs(beta); err != nil {
		t.Fatal(err)
	}
	if err := atk.ExtractKey(); err != nil {
		t.Fatal(err)
	}
	if atk.rep.Key != secretKey {
		t.Fatalf("recovered %08x, want %08x", atk.rep.Key, secretKey)
	}
}

// TestReferenceMatchesOptimizedFindLUT: a scan harness row over a real
// victim image, every test function.
func TestReferenceMatchesOptimizedFindLUT(t *testing.T) {
	runScan(t, &scanCase{name: "victim", img: buildVictim(t, false, false).ReadFlash(), fns: scannerTestFuncs()})
}

func TestReferenceGenericGeometry(t *testing.T) {
	// Plant a LUT with a hypothetical r=2, d=37 format and find it with
	// the parameterized Algorithm 1.
	p := RefParams{D: 37, R: 2}
	f := boolfn.F8
	sub := partitionXi(f, p.R)
	bs := make([]byte, 500)
	base := 123
	for q := 0; q < p.R; q++ {
		copy(bs[base+q*p.D:], sub[q])
	}
	hits := FindLUTReference(bs, f, p)
	if !slices.Contains(hits, base) {
		t.Fatalf("generic geometry search missed the planted LUT (hits %v)", hits)
	}
}

func TestReferenceAllOrdersSuperset(t *testing.T) {
	victim := buildVictim(t, false, false)
	img := victim.ReadFlash()
	two := FindLUTReference(img, boolfn.F19, SevenSeries())
	all := FindLUTReference(img, boolfn.F19, RefParams{D: 101, R: 4, AllOrders: true})
	if len(all) < len(two) {
		t.Fatalf("all-orders search found fewer hits (%d) than two-orders (%d)", len(all), len(two))
	}
}

func TestReferenceRejectsBadR(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FindLUTReference(make([]byte, 100), boolfn.F2, RefParams{D: 10, R: 3})
}

func BenchmarkFindLUTReferenceVsOptimized(b *testing.B) {
	victim := buildVictim(b, false, false)
	img := victim.ReadFlash()
	b.Run("algorithm1-literal", func(b *testing.B) {
		b.SetBytes(int64(len(img)))
		for i := 0; i < b.N; i++ {
			FindLUTReference(img, boolfn.F2, SevenSeries())
		}
	})
	b.Run("indexed", func(b *testing.B) {
		b.SetBytes(int64(len(img)))
		for i := 0; i < b.N; i++ {
			FindLUT(img, boolfn.F2, FindOptions{})
		}
	})
}

func TestAttackWithCRCRecompute(t *testing.T) {
	// The paper's first Section V-B option: recompute the CRC for every
	// modified bitstream instead of disabling it. The victim keeps
	// verifying every load.
	victim := buildVictim(t, false, false)
	atk, err := NewAttackCRCMode(victim, attackIV, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := atk.Run()
	if err != nil {
		t.Fatalf("CRC-recompute attack failed: %v", err)
	}
	if rep.Key != secretKey {
		t.Fatalf("recovered %08x, want %08x", rep.Key, secretKey)
	}
	if !victim.Status().Configured {
		t.Fatal("victim not left configured")
	}
}

func TestAttackRobustnessMatrix(t *testing.T) {
	// The attack must succeed independent of the secret key and of the
	// placement seed (LUT positions in the bitstream).
	if testing.Short() {
		t.Skip("matrix test skipped in -short mode")
	}
	cases := []struct {
		key  snow3g.Key
		seed int64
		pad  int
	}{
		{snow3g.Key{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF}, 2, 0},
		{snow3g.Key{0, 0, 0, 1}, 99, 0},
		{snow3g.Key{0x13579BDF, 0x2468ACE0, 0x0F1E2D3C, 0x4B5A6978}, 7, 40},
	}
	for ci, c := range cases {
		d := hdl.Build(hdl.Config{Key: c.key})
		r, err := mapper.Map(d.N, mapper.Options{K: 6, Boundaries: d.Boundaries})
		if err != nil {
			t.Fatal(err)
		}
		img, err := bitstream.Assemble(d.N, mapper.Pack(r, mapper.PackPolicy{}),
			bitstream.AssembleOptions{Seed: c.seed, PadFrames: c.pad})
		if err != nil {
			t.Fatal(err)
		}
		f := device.New([bitstream.KeySize]byte{})
		if err := f.Program(img); err != nil {
			t.Fatal(err)
		}
		atk, err := NewAttack(f, attackIV, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := atk.Run()
		if err != nil {
			t.Fatalf("case %d: attack failed: %v", ci, err)
		}
		if rep.Key != c.key {
			t.Fatalf("case %d: recovered %08x, want %08x", ci, rep.Key, c.key)
		}
	}
}

func TestOverlapAnalysisDismissesArtifacts(t *testing.T) {
	// Stray hits on the low-count s15 rows must overlap real candidate
	// sets (the paper's reasoning for dismissing f9/f11/f21), or there
	// must be none at all.
	victim := buildVictim(t, false, false)
	img := victim.ReadFlash()
	counts := map[string]int{}
	for _, name := range []string{"f8", "f9", "f11", "f19", "f21"} {
		c, _ := tableRow(name)
		counts[name] = len(FindLUT(img, c.TT, FindOptions{}))
	}
	rows := OverlapAnalysis(img, []string{"f8", "f9", "f11", "f19", "f21"})
	// Any nonzero f9/f11/f21 population must be explainable by overlap.
	for _, name := range []string{"f9", "f11", "f21"} {
		if counts[name] == 0 {
			continue
		}
		explained := 0
		for _, r := range rows {
			if r.A == name || r.B == name {
				explained += r.Shared
			}
		}
		if explained == 0 {
			t.Errorf("%s has %d matches but no overlaps with real candidates", name, counts[name])
		}
	}
}

func TestFaultInjectionSweepNeverPanics(t *testing.T) {
	// BiFI-style robustness: zero out many random LUT locations one at a
	// time; each modified bitstream must either be rejected at load or
	// produce some keystream — never crash the device model.
	victim := buildVictim(t, false, false)
	atk, err := NewAttack(victim, attackIV, nil)
	if err != nil {
		t.Fatal(err)
	}
	luts, err := bitstream.ExtractLUTs(victim.ReadFlash())
	if err != nil {
		t.Fatal(err)
	}
	step := len(luts)/40 + 1
	injected, rejected, changed := 0, 0, 0
	clean, err := atk.loadAndRun(atk.working(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(luts); i += step {
		b := atk.working()
		p, _ := bitstream.ParsePackets(b)
		fdri := p.FDRI(b)
		regions, err := bitstream.ParseRegions(fdri)
		if err != nil {
			t.Fatal(err)
		}
		clb := fdri[regions.CLBOff : regions.CLBOff+regions.CLBLen]
		if err := bitstream.WriteLUT(clb, luts[i].Loc, boolfn.Const0); err != nil {
			t.Fatal(err)
		}
		injected++
		z, err := atk.loadAndRun(b, 4)
		if err != nil {
			rejected++
			continue
		}
		for w := range z {
			if z[w] != clean[w] {
				changed++
				break
			}
		}
	}
	if injected < 10 {
		t.Fatalf("sweep too small: %d injections", injected)
	}
	if changed == 0 {
		t.Fatal("no injected fault ever changed the keystream")
	}
	t.Logf("fault sweep: %d injected, %d rejected at load, %d changed keystream",
		injected, rejected, changed)
}

func TestCensusCandidatesUnprotected(t *testing.T) {
	// Census-guided discovery must surface the exact f2/f8/f19
	// populations without a hand-written catalogue.
	victim := buildVictim(t, false, false)
	classes, err := CensusCandidates(victim.ReadFlash(), 8)
	if err != nil {
		t.Fatal(err)
	}
	byCanon := map[boolfn.TT]CensusClass{}
	for _, c := range classes {
		byCanon[c.Canon] = c
	}
	for _, want := range []struct {
		f     boolfn.TT
		count int
		name  string
	}{
		{boolfn.F2, 32, "f2"},
		{boolfn.F8, 24, "f8"},
		{boolfn.F19, 8, "f19"},
	} {
		c, ok := byCanon[boolfn.PClassCanon(want.f)]
		if !ok {
			t.Errorf("census missed the %s class", want.name)
			continue
		}
		if c.Count != want.count {
			t.Errorf("census counts %d %s LUTs, want %d", c.Count, want.name, want.count)
		}
		if len(c.Groups) == 0 {
			t.Errorf("%s class lost its XOR group", want.name)
		}
	}
}

func TestCensusCandidatesProtectedFlooded(t *testing.T) {
	// On the protected bitstream the dominant XOR-structured class is
	// the bare XOR2 with ≥ 192 members, and neither f8 nor f19 appears:
	// the census attacker is flooded exactly as Section VII intends.
	victim := buildVictim(t, true, false)
	classes, err := CensusCandidates(victim.ReadFlash(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) == 0 {
		t.Fatal("census empty")
	}
	xor2 := boolfn.PClassCanon(boolfn.Xor(boolfn.A(1), boolfn.A(2)))
	f8 := boolfn.PClassCanon(boolfn.F8)
	f19 := boolfn.PClassCanon(boolfn.F19)
	var xor2Count int
	for _, c := range classes {
		if c.Canon == f8 || c.Canon == f19 {
			t.Fatal("protected census still shows f8/f19")
		}
		if c.Canon == xor2 {
			xor2Count = c.Count
		}
	}
	// Dual-packed XOR2 halves decode as distinct 6-var tables, so the
	// single-function XOR2 class may split; the flood is the point:
	// the biggest XOR-structured class must dwarf the 32 targets.
	if classes[0].Count < 96 {
		t.Fatalf("largest census class has %d members, want ≥ 96 (flood)", classes[0].Count)
	}
	_ = xor2Count
}

func TestDiffLocalizesKeyInBRAM(t *testing.T) {
	// Two images of the same design with different keys must differ only
	// in the BRAM content (the key ROMs) and the configuration CRC —
	// the differential-analysis demonstration of attack-model
	// assumption 2 ("the key is stored in the bitstream").
	build := func(key snow3g.Key) []byte {
		d := hdl.Build(hdl.Config{Key: key})
		r, err := mapper.Map(d.N, mapper.Options{K: 6, Boundaries: d.Boundaries})
		if err != nil {
			t.Fatal(err)
		}
		img, err := bitstream.Assemble(d.N, mapper.Pack(r, mapper.PackPolicy{}),
			bitstream.AssembleOptions{Seed: 4321})
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	a := build(secretKey)
	b := build(snow3g.Key{0x11111111, 0x22222222, 0x33333333, 0x44444444})
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes[DiffCLB] != 0 || rep.Bytes[DiffDescription] != 0 || rep.Bytes[DiffHeaderFrame] != 0 {
		t.Fatalf("key change leaked outside BRAM: %v", rep.Bytes)
	}
	if rep.Bytes[DiffBRAM] == 0 {
		t.Fatal("key change invisible in BRAM region")
	}
	if rep.Bytes[DiffBRAM] > 32 {
		t.Fatalf("too many BRAM bytes differ (%d); key ROMs are 32 bytes", rep.Bytes[DiffBRAM])
	}
	// The CRC word differs (packets region).
	if rep.Bytes[DiffPackets] == 0 || rep.Bytes[DiffPackets] > 4 {
		t.Fatalf("packet-region diff %d bytes, want the 1-4 CRC bytes", rep.Bytes[DiffPackets])
	}
}

func TestDiffSeesLUTModification(t *testing.T) {
	victim := buildVictim(t, false, false)
	a := victim.ReadFlash()
	b := append([]byte(nil), a...)
	m := FindLUT(b, boolfn.F2, FindOptions{})[0]
	WriteMatch(b, m, boolfn.Const0)
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes[DiffCLB] == 0 {
		t.Fatal("LUT modification invisible to Diff")
	}
	if len(rep.LUTSlots) == 0 {
		t.Fatal("no LUT slot localized")
	}
}

func TestDiffErrors(t *testing.T) {
	victim := buildVictim(t, false, false)
	a := victim.ReadFlash()
	if _, err := Diff(a, a[:len(a)-4]); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := Diff([]byte{1, 2, 3, 4}, []byte{1, 2, 3, 5}); err == nil {
		t.Fatal("non-bitstream input accepted")
	}
}

// TestDiffUnmappedFrame: a byte in an FDRI frame past the regions the
// header declares lies outside every region — not in the BRAM region,
// which ends one frame earlier.
func TestDiffUnmappedFrame(t *testing.T) {
	img := buildVictim(t, false, false).ReadFlash()
	p, err := bitstream.ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	fdri := append(append([]byte(nil), p.FDRI(img)...), make([]byte, bitstream.FrameBytes)...)
	a, err := bitstream.WrapFDRI(fdri)
	if err != nil {
		t.Fatal(err)
	}
	fdri[len(fdri)-1] = 0x5a
	b, err := bitstream.WrapFDRI(fdri)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes[DiffUnmapped] != 1 || rep.Bytes[DiffBRAM] != 0 || len(rep.BRAMOffsets) != 0 {
		t.Fatalf("extra-frame byte classified as %v (BRAM offsets %v), want 1 unmapped", rep.Bytes, rep.BRAMOffsets)
	}
}

func TestFailedAttackRestoresVictim(t *testing.T) {
	// Even an aborted attack must return the device to its legitimate
	// state (the supply-chain attacker hands the device back unchanged).
	victim := buildVictim(t, true, false) // protected: attack will fail
	atk, err := NewAttack(victim, attackIV, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atk.Run(); err == nil {
		t.Fatal("attack unexpectedly succeeded")
	}
	got := hdl.GenerateKeystream(victim, attackIV, 4)
	model := snow3g.New(snow3g.Fault{})
	model.Init(secretKey, attackIV)
	want := model.KeystreamWords(4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("victim left corrupted after failed attack (word %d)", i+1)
		}
	}
}

func TestAttackViaConfigurationReadback(t *testing.T) {
	// Attack-model variant: the attacker has no flash access, only JTAG
	// configuration readback. The frame region read from the device is
	// wrapped in (public) packet framing and the standard attack runs
	// against it.
	victim := buildVictim(t, false, false)
	fdri, err := victim.Readback()
	if err != nil {
		t.Fatal(err)
	}
	img, err := bitstream.WrapFDRI(fdri)
	if err != nil {
		t.Fatal(err)
	}
	jtag := &readbackVictim{FPGA: victim, img: img}
	atk, err := NewAttack(jtag, attackIV, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := atk.Run()
	if err != nil {
		t.Fatalf("readback attack failed: %v", err)
	}
	if rep.Key != secretKey {
		t.Fatalf("readback attack recovered %08x", rep.Key)
	}
}

// readbackVictim models the JTAG-only attacker view: ReadFlash returns
// the wrapped readback image instead of flash content.
type readbackVictim struct {
	*device.FPGA
	img []byte
}

func (r *readbackVictim) ReadFlash() []byte { return append([]byte(nil), r.img...) }

func TestCensusGuidedAttackRecoversKey(t *testing.T) {
	// The catalogue-free attack: no Table II guessing at all — every
	// target class discovered from the LUT census, every fault table
	// derived from the class function.
	victim := buildVictim(t, false, false)
	atk, err := NewAttack(victim, attackIV, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := atk.RunCensusGuided()
	if err != nil {
		t.Fatalf("census-guided attack failed: %v", err)
	}
	if rep.Key != secretKey {
		t.Fatalf("recovered %08x, want %08x", rep.Key, secretKey)
	}
	if !rep.Verified {
		t.Fatal("not verified")
	}
	// Victim restored.
	z := hdl.GenerateKeystream(victim, attackIV, 2)
	model := snow3g.New(snow3g.Fault{})
	model.Init(secretKey, attackIV)
	want := model.KeystreamWords(2)
	if z[0] != want[0] || z[1] != want[1] {
		t.Fatal("victim not restored")
	}
}

func TestCensusGuidedAttackFailsOnProtected(t *testing.T) {
	atk := newAttack(t, true, false, nil)
	if _, err := atk.RunCensusGuided(); err == nil {
		t.Fatal("census-guided attack succeeded against the countermeasure")
	}
}

// Bytes returns the byte positions occupied by the matched LUT, used for
// the overlap rule of Section VI-C ("two valid LUTs cannot overlap").
func (m Match) Bytes() [8]int {
	var out [8]int
	for q := 0; q < bitstream.SubVectors; q++ {
		out[2*q] = m.Index + q*bitstream.SubVectorOffset
		out[2*q+1] = m.Index + q*bitstream.SubVectorOffset + 1
	}
	return out
}

// ReadMatch decodes the current truth table at a match location, in the
// searched function's variable frame.
func ReadMatch(b []byte, m Match) boolfn.TT {
	var sub [bitstream.SubVectors][bitstream.SubVectorBytes]byte
	for q := 0; q < bitstream.SubVectors; q++ {
		off := m.Index + q*bitstream.SubVectorOffset
		sub[q][0], sub[q][1] = b[off], b[off+1]
	}
	stored := bitstream.DecodeLUT(sub, m.Order)
	return stored.Permute(invertPerm(m.Perm))
}

func invertPerm(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// OverlapRow reports, for a pair of Table II candidate functions, how
// many of their FINDLUT matches occupy overlapping byte positions. The
// paper uses this analysis in Section VI-C.2 to dismiss the f9/f11/f21
// hits: "by examining their byte positions in the bitstream we can see
// that they are the same as for f19" — overlapping matches cannot both
// be real LUTs.
type OverlapRow struct {
	A, B   string
	Shared int
	ACount int
	BCount int
}

// OverlapAnalysis runs FINDLUT for every named candidate on the
// bitstream — batched into one scan pass — and reports all pairs with at
// least one overlapping match.
func OverlapAnalysis(b []byte, names []string) []OverlapRow {
	type set struct {
		name    string
		matches []Match
	}
	s := NewScanner(FindOptions{})
	var sets []set
	for _, name := range names {
		c, ok := tableRow(name)
		if !ok {
			continue
		}
		s.AddFunction(name, c.TT)
		sets = append(sets, set{name: name})
	}
	res := s.Scan(b)
	for i := range sets {
		sets[i].matches = res.Matches[sets[i].name]
	}
	var out []OverlapRow
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			shared := 0
			for _, ma := range sets[i].matches {
				for _, mb := range sets[j].matches {
					if ma.Overlaps(mb) {
						shared++
						break
					}
				}
			}
			if shared > 0 {
				out = append(out, OverlapRow{
					A: sets[i].name, B: sets[j].name, Shared: shared,
					ACount: len(sets[i].matches), BCount: len(sets[j].matches),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shared > out[j].Shared })
	return out
}

// tableRow returns the Table II row called name.
func tableRow(name string) (boolfn.Candidate, bool) {
	for _, c := range boolfn.Candidates() {
		if c.Name == name {
			return c, true
		}
	}
	return boolfn.Candidate{}, false
}
