package bitstream

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"snowbma/internal/boolfn"
	"snowbma/internal/hdl"
	"snowbma/internal/mapper"
	"snowbma/internal/snow3g"
)

// xiFormula is the closed form of Table I, used as a structural
// cross-check against transcription errors: the B index of F[a6..a1] is
// {¬a4, ¬(a1⊕a4), ¬a6, ¬a5, ¬a3, ¬a2} from MSB to LSB.
func xiFormula(i int) int {
	a := func(n uint) uint64 { return uint64(i) >> (n - 1) & 1 }
	out5 := 1 - a(4)
	out4 := 1 - (a(1) ^ a(4))
	out3 := 1 - a(6)
	out2 := 1 - a(5)
	out1 := 1 - a(3)
	out0 := 1 - a(2)
	return int(out5<<5 | out4<<4 | out3<<3 | out2<<2 | out1<<1 | out0)
}

func TestXiTableIStructure(t *testing.T) {
	// The hardcoded Table I must agree with its closed form and be a
	// permutation.
	var seen [64]bool
	for i := 0; i < 64; i++ {
		j := int(xiTable[i])
		if j != xiFormula(i) {
			t.Errorf("Table I row %d: table says B[%d], formula says B[%d]", i, j, xiFormula(i))
		}
		if seen[j] {
			t.Fatalf("Table I not a permutation: B[%d] repeated", j)
		}
		seen[j] = true
	}
	// Spot rows straight from the paper.
	rows := map[int]int{0: 63, 1: 47, 8: 15, 31: 24, 32: 55, 62: 0, 63: 16}
	for i, want := range rows {
		if got := int(xiTable[i]); got != want {
			t.Errorf("Table I: F[%d] → B[%d], want B[%d]", i, got, want)
		}
	}
}

func TestXiRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		return XiInv(Xi(boolfn.TT(raw))) == boolfn.TT(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeLUTBothSliceTypes(t *testing.T) {
	f := func(raw uint64, m bool) bool {
		st := SliceL
		if m {
			st = SliceM
		}
		return DecodeLUT(EncodeLUT(boolfn.TT(raw), st), st) == boolfn.TT(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceOrdersDiffer(t *testing.T) {
	init := boolfn.MustParse("(a1^a2^a3)a4a5!a6")
	l := EncodeLUT(init, SliceL)
	m := EncodeLUT(init, SliceM)
	if l == m {
		t.Fatal("SLICEL and SLICEM encodings should differ for this function")
	}
	// SLICEM stores B4,B3,B1,B2 (paper Section V-A).
	if l[3] != m[0] || l[2] != m[1] || l[0] != m[2] || l[1] != m[3] {
		t.Fatal("SLICEM sub-vector order is not B4,B3,B1,B2")
	}
}

func TestWriteReadLUTInFrames(t *testing.T) {
	frames := make([]byte, 4*FrameBytes)
	loc := Loc{Frame: 2, Slot: 17, Type: SliceM}
	init := boolfn.TT(0xDEADBEEFCAFEF00D)
	if err := WriteLUT(frames, loc, init); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLUT(frames, loc)
	if err != nil {
		t.Fatal(err)
	}
	if got != init {
		t.Fatalf("round trip %v != %v", got, init)
	}
	if _, err := ReadLUT(frames, Loc{Frame: 0, Slot: SlotsPerFrame}); err == nil {
		t.Fatal("slot out of range accepted")
	}
}

func TestType1HeadersMatchPaper(t *testing.T) {
	if got := Type1(RegFDRI, 0); got != 0x30004000 {
		t.Errorf("Type1(FDRI, 0) = %08x, want 0x30004000 (paper Section V-A)", got)
	}
	if got := Type1(RegCRC, 1); got != 0x30000001 {
		t.Errorf("Type1(CRC, 1) = %08x, want 0x30000001 (paper Section V-B)", got)
	}
	if got := Type1(RegCMD, 1); got != 0x30008001 {
		t.Errorf("Type1(CMD, 1) = %08x, want 0x30008001 (paper Section V-B)", got)
	}
	// Paper example: 0x50251c50 is Type 2, word count 2432080.
	if got := Type2(2432080); got != 0x50251C50 {
		t.Errorf("Type2(2432080) = %08x, want 0x50251c50", got)
	}
}

func testImage(t testing.TB) ([]byte, *hdl.Design, *mapper.Result) {
	key := snow3g.Key{0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48}
	d := hdl.Build(hdl.Config{Key: key})
	r, err := mapper.Map(d.N, mapper.Options{K: 6, Boundaries: d.Boundaries})
	if err != nil {
		t.Fatal(err)
	}
	phys := mapper.Pack(r, mapper.PackPolicy{})
	img, err := Assemble(d.N, phys, AssembleOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return img, d, r
}

func TestAssembleParsesBack(t *testing.T) {
	img, _, r := testImage(t)
	p, err := ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	if p.CRCOffset < 0 {
		t.Fatal("no CRC write in assembled image")
	}
	regions, err := ParseRegions(p.FDRI(img))
	if err != nil {
		t.Fatal(err)
	}
	desc, err := UnmarshalDescription(p.FDRI(img)[regions.DescOff : regions.DescOff+regions.DescLen])
	if err != nil {
		t.Fatal(err)
	}
	if len(desc.LUTs) != len(r.LUTs) {
		t.Fatalf("description has %d LUTs, mapping has %d", len(desc.LUTs), len(r.LUTs))
	}
	if len(desc.Eval) != len(desc.LUTs)+len(desc.BRAMs)+len(desc.Adders) {
		t.Fatal("evaluation order incomplete")
	}
	// Every placed LUT truth table must read back from the CLB frames.
	clb := p.FDRI(img)[regions.CLBOff : regions.CLBOff+regions.CLBLen]
	for i, lrec := range desc.LUTs {
		got, err := ReadLUT(clb, lrec.Loc)
		if err != nil {
			t.Fatal(err)
		}
		// Find the physical LUT with the same O6 root.
		want := boolfn.TT(0)
		found := false
		for _, lut := range r.LUTs {
			if uint32(lut.Root) == lrec.O6 {
				want, found = lut.Fn, true
				break
			}
		}
		if !found {
			t.Fatalf("description LUT %d has unknown O6 net", i)
		}
		if got != want {
			t.Fatalf("LUT %d truth table %v != %v", i, got, want)
		}
	}
}

func TestCRCCheckDetectsTamper(t *testing.T) {
	img, _, _ := testImage(t)
	if err := CheckCRC(img); err != nil {
		t.Fatalf("fresh image fails CRC: %v", err)
	}
	p, _ := ParsePackets(img)
	img[p.FDRIOffset+FrameBytes+10] ^= 0xFF // flip a CLB byte
	if err := CheckCRC(img); err == nil {
		t.Fatal("CRC accepted tampered image")
	}
	// Paper option 1: recompute and replace.
	if err := RecomputeCRC(img); err != nil {
		t.Fatal(err)
	}
	if err := CheckCRC(img); err != nil {
		t.Fatalf("recomputed CRC still fails: %v", err)
	}
	// Paper option 2: disable entirely.
	img[p.FDRIOffset+FrameBytes+11] ^= 0xFF
	if err := DisableCRC(img); err != nil {
		t.Fatal(err)
	}
	if err := CheckCRC(img); err != nil {
		t.Fatalf("disabled CRC should always pass: %v", err)
	}
	q, err := ParsePackets(img)
	if err != nil {
		t.Fatal(err)
	}
	if q.CRCOffset >= 0 {
		t.Fatal("CRC write still present after disable")
	}
	// With no CRC write left there is nothing to recompute.
	if err := RecomputeCRC(img); err == nil {
		t.Fatal("RecomputeCRC accepted a CRC-disabled image")
	}
}

func TestDescriptionRoundTrip(t *testing.T) {
	d := &Description{
		NumNets:    42,
		CLBFrames:  3,
		BRAMFrames: 1,
		Ports:      []Port{{Name: "load", Dir: In, Net: 2}, {Name: "z[0]", Dir: Out, Net: 40}},
		FFs:        []FFRec{{Init: true, Q: 7, D: 40}},
		BRAMs:      []BRAMRec{{Addr: []uint32{2, 3}, Out: []uint32{8, 9}, DataBits: 2, ContentOff: 0}},
		Adders:     []AdderRec{{A: []uint32{2}, B: []uint32{3}, Sum: []uint32{10}}},
		LUTs:       []LUTRec{{Loc: Loc{Frame: 1, Slot: 5, Type: SliceM}, Inputs: []uint32{2, 3}, O6: 40, O5: NoNet}},
		Eval:       []EvalItem{{Kind: EvalBRAM, Index: 0}, {Kind: EvalLUT, Index: 0}},
	}
	got, err := UnmarshalDescription(MarshalDescription(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNets != d.NumNets || len(got.Ports) != 2 || got.Ports[0].Name != "load" ||
		got.LUTs[0].Loc.Type != SliceM || got.LUTs[0].O5 != NoNet ||
		got.FFs[0].Q != 7 || got.Eval[1].Kind != EvalLUT {
		t.Fatalf("description round trip mismatch: %+v", got)
	}
}

func TestDescriptionRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalDescription([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted short garbage")
	}
	d := MarshalDescription(&Description{})
	d[0] ^= 0xFF
	if _, err := UnmarshalDescription(d); err == nil {
		t.Fatal("accepted bad magic")
	}
}

// craftedIDListDescription is 32 bytes declaring a 2^20-entry BRAM
// address list: magic, three zero sizes, no ports or flip-flops, one
// BRAM, then the lying count.
func craftedIDListDescription() []byte {
	b := binary.BigEndian.AppendUint32(nil, descMagic)
	for _, v := range []uint32{0, 0, 0, 0, 0, 1, 1 << 20} {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return b
}

// TestDescriptionIDListBoundedByInput: a declared id count is checked
// against the bytes left before anything is allocated, so the crafted
// 32-byte description fails without allocating its 4 MiB list.
func TestDescriptionIDListBoundedByInput(t *testing.T) {
	crafted := craftedIDListDescription()
	if len(crafted) != 32 {
		t.Fatalf("crafted description is %d bytes, want 32", len(crafted))
	}
	if _, err := UnmarshalDescription(crafted); err == nil {
		t.Fatal("accepted an id list longer than the description")
	}
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = UnmarshalDescription(crafted)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Fatalf("rejecting the crafted description allocated %d B per call, want < 1 KiB", per)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	packets := []byte("not really packets but enough for the envelope 0123456789")
	var kE, kA [KeySize]byte
	for i := range kE {
		kE[i], kA[i] = byte(i), byte(0x80+i)
	}
	var iv [16]byte
	enc, err := Seal(packets, kE, kA, iv)
	if err != nil {
		t.Fatal(err)
	}
	if !IsEncrypted(enc) {
		t.Fatal("sealed image not recognized as encrypted")
	}
	if bytes.Contains(enc, packets[:16]) {
		t.Fatal("ciphertext leaks plaintext")
	}
	got, gotKA, ok, err := Open(enc, kE)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("HMAC should verify")
	}
	if gotKA != kA {
		t.Fatal("authentication key not recovered from envelope")
	}
	if !bytes.Equal(got, packets) {
		t.Fatal("decrypted packets differ")
	}
}

func TestOpenDetectsTamperButLeaksKA(t *testing.T) {
	packets := make([]byte, 256)
	for i := range packets {
		packets[i] = byte(i)
	}
	var kE, kA [KeySize]byte
	kA[0] = 0xAB
	var iv [16]byte
	enc, _ := Seal(packets, kE, kA, iv)
	// Modify, reseal with recovered K_A (the attack flow), verify OK.
	plain, gotKA, ok, err := Open(enc, kE)
	if err != nil || !ok {
		t.Fatalf("open failed: %v ok=%v", err, ok)
	}
	plain[10] ^= 0x40
	resealed, err := Reseal(plain, kE, gotKA, iv)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ok, err = Open(resealed, kE)
	if err != nil || !ok {
		t.Fatal("resealed modified bitstream should authenticate (this is the attack)")
	}
	// A naive bit flip inside the ciphertext must break the HMAC.
	enc[30] ^= 1
	_, _, ok, err = Open(enc, kE)
	if err == nil && ok {
		t.Fatal("tampered ciphertext passed HMAC")
	}
}

func TestOpenWrongKey(t *testing.T) {
	var kE, kA, wrong [KeySize]byte
	wrong[5] = 9
	var iv [16]byte
	enc, _ := Seal([]byte("payload payload payload"), kE, kA, iv)
	if _, _, ok, err := Open(enc, wrong); err == nil && ok {
		t.Fatal("wrong K_E produced a valid open")
	}
}

func TestAuthKeyStoredTwice(t *testing.T) {
	// Fig 1: K_A appears in two plaintext locations inside the decrypted
	// region.
	packets := make([]byte, 128)
	var kE, kA [KeySize]byte
	for i := range kA {
		kA[i] = byte(0xC0 + i)
	}
	var iv [16]byte
	enc, _ := Seal(packets, kE, kA, iv)
	// Decrypt manually and count K_A occurrences.
	plain := decryptRaw(t, enc, kE)
	if n := bytes.Count(plain, kA[:]); n != 2 {
		t.Fatalf("K_A appears %d times in the decrypted region, want 2", n)
	}
}

// decryptRaw exposes the full decrypted region for structural checks.
func decryptRaw(t *testing.T, enc []byte, kE [KeySize]byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(kE[:])
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(enc)-20)
	cipher.NewCBCDecrypter(block, enc[4:20]).CryptBlocks(out, enc[20:])
	return out
}

func TestPadFramesGrowImage(t *testing.T) {
	key := snow3g.Key{1, 2, 3, 4}
	d := hdl.Build(hdl.Config{Key: key})
	r, err := mapper.Map(d.N, mapper.Options{K: 6, Boundaries: d.Boundaries})
	if err != nil {
		t.Fatal(err)
	}
	phys := mapper.Pack(r, mapper.PackPolicy{})
	small, err := Assemble(d.N, phys, AssembleOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Assemble(d.N, phys, AssembleOptions{Seed: 1, PadFrames: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= len(small)+99*FrameBytes {
		t.Fatalf("padding did not grow image: %d vs %d", len(big), len(small))
	}
	if err := CheckCRC(big); err != nil {
		t.Fatal(err)
	}
}

func TestParsePacketsErrors(t *testing.T) {
	words := func(ws ...uint32) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.BigEndian.AppendUint32(b, w)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"unaligned input", []byte{1, 2, 3}},
		{"missing sync word", make([]byte, 16)},
		{"truncated FDRI", words(SyncWord, Type1(RegFDRI, 0), Type2(1000))},
		// The "write CRC" header is the last word: no CRC value follows.
		{"truncated CRC write", words(SyncWord, Type1(RegFDRI, 0), Type2(2), 0x01234567, 0x89ABCDEF, writeCRCHeader)},
	} {
		if _, err := ParsePackets(tc.data); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func BenchmarkAssemble(b *testing.B) {
	key := snow3g.Key{1, 2, 3, 4}
	d := hdl.Build(hdl.Config{Key: key})
	r, err := mapper.Map(d.N, mapper.Options{K: 6, Boundaries: d.Boundaries})
	if err != nil {
		b.Fatal(err)
	}
	phys := mapper.Pack(r, mapper.PackPolicy{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(d.N, phys, AssembleOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXiMapping(b *testing.B) {
	tt := boolfn.TT(0x123456789ABCDEF0)
	for i := 0; i < b.N; i++ {
		tt = XiInv(Xi(tt))
	}
	_ = tt
}

func TestExtractLUTsFindsAllPlaced(t *testing.T) {
	img, _, r := testImage(t)
	luts, err := ExtractLUTs(img)
	if err != nil {
		t.Fatal(err)
	}
	// Every mapped LUT whose INIT is non-zero must be extracted with the
	// right truth table.
	wantByFn := map[boolfn.TT]int{}
	for _, lut := range r.LUTs {
		if lut.Fn != boolfn.Const0 {
			wantByFn[lut.Fn]++
		}
	}
	gotByFn := map[boolfn.TT]int{}
	for _, e := range luts {
		gotByFn[e.Init]++
	}
	for fn, n := range wantByFn {
		if gotByFn[fn] < n {
			t.Fatalf("extraction found %d LUTs with table %v, want ≥ %d", gotByFn[fn], fn, n)
		}
	}
	if len(luts) != len(r.LUTs) {
		t.Fatalf("extracted %d LUTs, mapping has %d", len(luts), len(r.LUTs))
	}
}

func TestHistogramCensus(t *testing.T) {
	img, _, _ := testImage(t)
	luts, err := ExtractLUTs(img)
	if err != nil {
		t.Fatal(err)
	}
	hist := Histogram(luts)
	total := 0
	for _, n := range hist {
		total += n
	}
	if total != len(luts) {
		t.Fatal("histogram does not partition the extracted LUTs")
	}
	// The f2 class must appear at least 32 times (the paper's LUT1s).
	f2 := boolfn.PClassCanon(boolfn.MustParse("(a1^a2^a3)a4a5!a6"))
	if hist[f2] < 32 {
		t.Fatalf("census shows %d f2-class LUTs, want ≥ 32", hist[f2])
	}
}

// A negative pad used to reach rand.Intn with a non-positive frame
// count and panic; it is an error now.
func TestAssembleRejectsNegativePad(t *testing.T) {
	key := snow3g.Key{0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48}
	d := hdl.Build(hdl.Config{Key: key})
	r, err := mapper.Map(d.N, mapper.Options{K: 6, Boundaries: d.Boundaries})
	if err != nil {
		t.Fatal(err)
	}
	phys := mapper.Pack(r, mapper.PackPolicy{})
	for _, pad := range []int{-1, -1000} {
		if _, err := Assemble(d.N, phys, AssembleOptions{Seed: 1, PadFrames: pad}); err == nil {
			t.Errorf("Assemble with PadFrames %d = nil error", pad)
		}
	}
}
