package hdl

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"snowbma/internal/boolfn"
	"snowbma/internal/mapper"
	"snowbma/internal/netlist"
	"snowbma/internal/snow3g"
)

var (
	testKey = snow3g.Key{0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48}
	testIV  = snow3g.IV{0xEA024714, 0xAD5C4D84, 0xDF1F9B25, 0x1C0BF45F}
)

func buildSim(t *testing.T, cfg Config) (*Design, *SimDevice) {
	t.Helper()
	d := Build(cfg)
	dev, err := NewSimDevice(d.N)
	if err != nil {
		t.Fatal(err)
	}
	return d, dev
}

func TestDesignMatchesReferenceCipher(t *testing.T) {
	_, dev := buildSim(t, Config{Key: testKey})
	got := GenerateKeystream(dev, testIV, 8)
	ref := snow3g.New(snow3g.Fault{})
	ref.Init(testKey, testIV)
	want := ref.KeystreamWords(8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hardware z%d = %08x, software %08x", i+1, got[i], want[i])
		}
	}
}

func TestDesignMatchesReferenceAcrossKeysAndIVs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 4; trial++ {
		var k snow3g.Key
		var iv snow3g.IV
		for i := range k {
			k[i], iv[i] = rng.Uint32(), rng.Uint32()
		}
		_, dev := buildSim(t, Config{Key: k})
		got := GenerateKeystream(dev, iv, 4)
		ref := snow3g.New(snow3g.Fault{})
		ref.Init(k, iv)
		want := ref.KeystreamWords(4)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d word %d: hw %08x sw %08x", trial, i+1, got[i], want[i])
			}
		}
	}
}

func TestDesignReinitializable(t *testing.T) {
	_, dev := buildSim(t, Config{Key: testKey})
	first := GenerateKeystream(dev, testIV, 4)
	second := GenerateKeystream(dev, testIV, 4) // re-load without reset
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("re-initialization diverged at word %d", i)
		}
	}
}

func TestProtectedDesignSameBehaviour(t *testing.T) {
	_, dev := buildSim(t, Config{Key: testKey, Protected: true})
	got := GenerateKeystream(dev, testIV, 4)
	ref := snow3g.New(snow3g.Fault{})
	ref.Init(testKey, testIV)
	want := ref.KeystreamWords(4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("protected design diverges at word %d: %08x vs %08x", i+1, got[i], want[i])
		}
	}
}

func TestProtectedConstraintCounts(t *testing.T) {
	d := Build(Config{Key: testKey, Protected: true})
	if len(d.TrivialCuts) == 0 {
		t.Fatal("protected design has no trivial-cut constraints")
	}
	// 32 target XORs + 5 decoy words of 32 bits each (paper Section
	// VII-A: m = 32, r = 160, x = 5 ≥ 4.9).
	if d.DecoyXORs != 160 {
		t.Fatalf("decoy XOR count %d, want 160", d.DecoyXORs)
	}
	if len(d.TrivialCuts) != 192 {
		t.Fatalf("trivial cut count %d, want 192", len(d.TrivialCuts))
	}
	for _, vi := range d.V {
		if !d.TrivialCuts[vi] {
			t.Fatal("target XOR not constrained in protected design")
		}
	}
}

func TestUnprotectedMappingContainsPaperLUTs(t *testing.T) {
	// The heart of the reproduction: after technology mapping, the z_t
	// path must contain 32 LUTs P-equivalent to f2 covering v, and the
	// feedback path 24 f8-LUTs + 8 f19-LUTs.
	d := Build(Config{Key: testKey})
	r, err := mapper.Map(d.N, mapper.Options{K: 6, Boundaries: d.Boundaries})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(32, 7); err != nil {
		t.Fatal(err)
	}
	canonF2 := boolfn.PClassCanon(boolfn.F2)
	canonF8 := boolfn.PClassCanon(boolfn.F8)
	canonF19 := boolfn.PClassCanon(boolfn.F19)
	var nF2, nF8, nF19 int
	for _, lut := range r.LUTs {
		switch boolfn.PClassCanon(lut.Fn) {
		case canonF2:
			nF2++
		case canonF8:
			nF8++
		case canonF19:
			nF19++
		}
	}
	if nF2 < 32 {
		t.Errorf("mapping contains %d f2-class LUTs, want ≥ 32", nF2)
	}
	if nF8 < 24 {
		t.Errorf("mapping contains %d f8-class LUTs, want ≥ 24", nF8)
	}
	if nF19 < 8 {
		t.Errorf("mapping contains %d f19-class LUTs, want ≥ 8", nF19)
	}
	// Every target XOR must be covered by at least two LUTs (z_t path and
	// feedback path), mirroring Fig 5.
	for i, vi := range d.V {
		if cov := r.CoveringLUTs(vi); len(cov) < 2 {
			t.Errorf("v[%d] covered by %d LUTs, want ≥ 2", i, len(cov))
		}
	}
}

func TestProtectedMappingHidesTargets(t *testing.T) {
	d := Build(Config{Key: testKey, Protected: true})
	r, err := mapper.Map(d.N, mapper.Options{K: 6, TrivialCuts: d.TrivialCuts, Boundaries: d.Boundaries})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(32, 8); err != nil {
		t.Fatal(err)
	}
	canonF8 := boolfn.PClassCanon(boolfn.F8)
	canonF19 := boolfn.PClassCanon(boolfn.F19)
	xor2 := boolfn.PClassCanon(boolfn.Xor(boolfn.A(1), boolfn.A(2)))
	var nXor2 int
	for _, lut := range r.LUTs {
		switch boolfn.PClassCanon(lut.Fn) {
		case canonF8, canonF19:
			t.Fatalf("protected mapping still contains an f8/f19-class LUT")
		case xor2:
			nXor2++
		}
	}
	// All 192 trivially cut XORs must be bare XOR2 LUTs.
	if nXor2 < 192 {
		t.Fatalf("protected mapping has %d XOR2 LUTs, want ≥ 192", nXor2)
	}
	// Every constrained node is its own root.
	for v := range d.TrivialCuts {
		if _, ok := r.LUTIndex[v]; !ok {
			t.Fatalf("constrained node %d not a LUT root", v)
		}
	}
}

func TestProtectedCriticalPathLonger(t *testing.T) {
	du := Build(Config{Key: testKey})
	dp := Build(Config{Key: testKey, Protected: true})
	ru, err := mapper.Map(du.N, mapper.Options{K: 6, Boundaries: du.Boundaries})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := mapper.Map(dp.N, mapper.Options{K: 6, TrivialCuts: dp.TrivialCuts, Boundaries: dp.Boundaries})
	if err != nil {
		t.Fatal(err)
	}
	model := mapper.DefaultDelays()
	tu, tp := ru.Timing(model), rp.Timing(model)
	if tp.Delay <= tu.Delay {
		t.Fatalf("protected critical path %.3f ≤ unprotected %.3f (paper: 7.514 vs 6.313 ns)",
			tp.Delay, tu.Delay)
	}
}

func TestDesignStatsReasonable(t *testing.T) {
	d := Build(Config{Key: testKey})
	if n := len(d.N.FFs); n != 16*32+3*32+32 {
		t.Fatalf("FF count %d, want 640 (16 LFSR stages + R1..R3 + zreg)", n)
	}
	if n := len(d.N.BRAMs); n != 4+4+4+1+1 {
		t.Fatalf("BRAM count %d, want 14", n)
	}
	if len(d.N.Adders) != 2 {
		t.Fatalf("adder count %d, want 2", len(d.N.Adders))
	}
	if err := d.N.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVNodesAreXor2(t *testing.T) {
	d := Build(Config{Key: testKey})
	for i, vi := range d.V {
		nd := d.N.Nodes[vi]
		if nd.Op != netlist.OpXor {
			t.Fatalf("v[%d] is %v, want xor", i, nd.Op)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Build(Config{Key: testKey})
	}
}

func BenchmarkNetlistKeystream16(b *testing.B) {
	d := Build(Config{Key: testKey})
	dev, err := NewSimDevice(d.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GenerateKeystream(dev, testIV, 16)
	}
}

func TestPlanCountermeasureOnSnow3G(t *testing.T) {
	// The automated Section VII-A planner, applied to the real design
	// with the 32 target XORs, must find enough same-function decoys for
	// 2^128 and the resulting mapping must hide the f8/f19 populations.
	d := Build(Config{Key: testKey})
	plan, err := mapper.PlanCountermeasure(d.N, d.V, 128)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SecurityBits < 128 {
		t.Fatalf("plan reaches only 2^%.1f", plan.SecurityBits)
	}
	// Lemma VII-A at m = 32 needs r ≈ 157 decoys for 2^128 (x ≥ 4.9).
	if len(plan.Decoys) < 150 {
		t.Fatalf("plan selected %d decoys, expected ≈ 157", len(plan.Decoys))
	}
	r, err := mapper.Map(d.N, mapper.Options{K: 6,
		TrivialCuts: plan.TrivialCuts, Boundaries: d.Boundaries})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(32, 9); err != nil {
		t.Fatal(err)
	}
	canonF8 := boolfn.PClassCanon(boolfn.F8)
	canonF19 := boolfn.PClassCanon(boolfn.F19)
	for _, lut := range r.LUTs {
		c := boolfn.PClassCanon(lut.Fn)
		if c == canonF8 || c == canonF19 {
			t.Fatal("auto-planned countermeasure still exposes an f8/f19 LUT")
		}
	}
}

func TestTopPathsFeedbackNotAlwaysCritical(t *testing.T) {
	// The paper reads the ten-slowest-paths report; ours must produce a
	// consistent one for the mapped SNOW 3G design.
	d := Build(Config{Key: testKey})
	r, err := mapper.Map(d.N, mapper.Options{K: 6, Boundaries: d.Boundaries})
	if err != nil {
		t.Fatal(err)
	}
	top := r.TopPaths(mapper.DefaultDelays(), 10)
	if len(top) != 10 {
		t.Fatalf("got %d paths, want 10", len(top))
	}
	for i := 1; i < 10; i++ {
		if top[i].Delay > top[i-1].Delay {
			t.Fatal("paths not sorted")
		}
	}
	if top[0].Endpoint == "" || len(top[0].Through) < 2 {
		t.Fatal("critical path report incomplete")
	}
}

func TestTraceDeviceProducesVCD(t *testing.T) {
	_, dev := buildSim(t, Config{Key: testKey})
	var buf bytes.Buffer
	in, out := KeystreamPins()
	tr := NewTraceDevice(dev, &buf, in, out)
	z := GenerateKeystream(tr, testIV, 4)
	cycles, err := tr.Close()
	if err != nil {
		t.Fatal(err)
	}
	// 1 load + 32 init + 1 discard + 4 keystream cycles.
	if cycles != 38 {
		t.Fatalf("traced %d cycles, want 38", cycles)
	}
	dump := buf.String()
	if !strings.Contains(dump, "$var wire 1") || !strings.Contains(dump, "z[31]") {
		t.Fatal("VCD header incomplete")
	}
	// The keystream through the traced wrapper must be unchanged.
	ref := snow3g.New(snow3g.Fault{})
	ref.Init(testKey, testIV)
	want := ref.KeystreamWords(4)
	for i := range want {
		if z[i] != want[i] {
			t.Fatal("tracing changed device behaviour")
		}
	}
}

func TestSnow3GMappingFormallyVerified(t *testing.T) {
	// Formal (BDD) equivalence proof of the complete mapped SNOW 3G
	// design against its source netlist, both variants.
	for _, protected := range []bool{false, true} {
		d := Build(Config{Key: testKey, Protected: protected})
		opts := mapper.Options{K: 6, Boundaries: d.Boundaries}
		if protected {
			opts.TrivialCuts = d.TrivialCuts
		}
		r, err := mapper.Map(d.N, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.VerifyFormal(0); err != nil {
			t.Fatalf("protected=%v: %v", protected, err)
		}
	}
}

func TestProtocolMisuseDoesNotCrash(t *testing.T) {
	// Driving the control pins out of order must never crash the model;
	// it just produces a wrong keystream (as on hardware).
	_, dev := buildSim(t, Config{Key: testKey})
	dev.SetInput(PortLoad, true)
	dev.SetInput(PortInit, true) // illegal: load and init together
	dev.SetInput(PortRun, true)
	dev.SetInput(PortGen, true)
	for i := 0; i < 8; i++ {
		dev.Clock()
	}
	_ = dev.Read("z[0]")
	// A proper run afterwards still works.
	got := GenerateKeystream(dev, testIV, 2)
	ref := snow3g.New(snow3g.Fault{})
	ref.Init(testKey, testIV)
	want := ref.KeystreamWords(2)
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatal("device did not recover from protocol misuse")
	}
}

func TestHoldWithoutRunFreezesState(t *testing.T) {
	// With all controls low the LFSR keeps shifting (free-running
	// datapath) but no keystream is produced: z stays 0.
	_, dev := buildSim(t, Config{Key: testKey})
	for _, pin := range []string{PortLoad, PortInit, PortRun, PortGen} {
		dev.SetInput(pin, false)
	}
	for i := 0; i < 4; i++ {
		dev.Clock()
		for b := 0; b < 32; b++ {
			if dev.Read(fmt.Sprintf("z[%d]", b)) {
				t.Fatal("keystream register active without gen")
			}
		}
	}
}
