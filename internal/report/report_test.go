package report

import (
	"strings"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/core"
	"snowbma/internal/device"
	"snowbma/internal/hdl"
	"snowbma/internal/mapper"
	"snowbma/internal/obs"
	"snowbma/internal/snow3g"
)

// goldenTables pins the keystream sections of the end-to-end attack
// report bit-for-bit against the paper's Tables III and IV.
const goldenTables = `key-independent keystream (Table III analogue):
  z1  a1fb4788
  z2  e4382f8e
  z3  3b72471c
  z4  33ebb59a
  z5  32ac43c7
  z6  5eebfd82
  z7  3a325fd4
  z8  1e1d7001
  z9  b7f15767
  z10 3282c5b0
  z11 103da78f
  z12 e42761e4
  z13 c6ded1bb
  z14 089fa36c
  z15 01c7c690
  z16 bf921256
faulty keystream (Table IV analogue):
  z1  3ffe4851
  z2  35d1c393
  z3  5914acef
  z4  e98446cc
  z5  689782d9
  z6  8abdb7fc
  z7  a11b0377
  z8  5a2dd294
  z9  5deb29fa
  z10 c2c6009a
  z11 a82ee62f
  z12 925268ed
  z13 d04e2c33
  z14 3890311b
  z15 e8d27b84
  z16 a70aeeaa
`

const goldenTail = `RECOVERED KEY: 2bd6459f 82c5b300 952c4910 4881ff48 (verified=true)
RECOVERED IV:  ea024714 ad5c4d84 df1f9b25 1c0bf45f
`

func TestGoldenAttackReport(t *testing.T) {
	key := snow3g.Key{0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48}
	iv := snow3g.IV{0xEA024714, 0xAD5C4D84, 0xDF1F9B25, 0x1C0BF45F}
	d := hdl.Build(hdl.Config{Key: key})
	r, err := mapper.Map(d.N, mapper.Options{K: 6, Boundaries: d.Boundaries})
	if err != nil {
		t.Fatal(err)
	}
	img, err := bitstream.Assemble(d.N, mapper.Pack(r, mapper.PackPolicy{}),
		bitstream.AssembleOptions{Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	f := device.New([bitstream.KeySize]byte{})
	if err := f.Program(img); err != nil {
		t.Fatal(err)
	}
	atk, err := core.NewAttack(f, iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := atk.Run()
	if err != nil {
		t.Fatal(err)
	}
	text := Attack(rep)
	if !strings.Contains(text, goldenTables) {
		t.Fatalf("report keystream sections diverge from the paper's tables:\n%s", text)
	}
	if !strings.HasSuffix(text, goldenTail) {
		t.Fatalf("report tail diverges:\n%s", text)
	}
	if !strings.Contains(text, "32 LUT1 + 24 LUT2 + 8 LUT3") {
		t.Fatalf("confirmed LUT populations diverge:\n%s", text)
	}
}

// TestFabricStatsCountsCompilesAndReuses: the compiled-fabric line
// carries the run's compile and reuse counters when it has telemetry
// (attack -stats) and is unchanged without (the plain report and repro).
func TestFabricStatsCountsCompilesAndReuses(t *testing.T) {
	s := device.CompileStats{Insns: 1148, Temps: 5}
	const line = "compiled fabric:       1148 instructions, 5 synthesis temps"
	if got := FabricStats(s, nil); !strings.HasPrefix(got, line+"\n") {
		t.Fatalf("untraced fabric line:\n%s", got)
	}
	tel := obs.New()
	tel.Counter("device.compiles").Add(3)
	tel.Counter("device.reuses").Add(44)
	if got := FabricStats(s, tel); !strings.HasPrefix(got, line+"; 3 compile(s), 44 reuse(s) this run\n") {
		t.Fatalf("traced fabric line:\n%s", got)
	}
}

func TestCandidateTableLayout(t *testing.T) {
	rows := []core.CandidateCount{
		{Name: "f2", Path: "zt", Expr: "(a1^a2^a3)a4a5!a6", Count: 42},
		{Name: "f8", Path: "s15", Expr: "(a1^a2)!a3a4a5 ^ a6", Count: 24},
	}
	text := CandidateTable(rows)
	if !strings.Contains(text, "z_t    | f2 = (a1^a2^a3)a4a5!a6") ||
		!strings.Contains(text, "s15    | f8 = (a1^a2)!a3a4a5 ^ a6") {
		t.Fatalf("layout broken:\n%s", text)
	}
}

func TestTimingLayout(t *testing.T) {
	text := Timing([]mapper.PathReport{
		{Delay: 6.313, Levels: 4, Endpoint: "FF R2[0]"},
		{Delay: 5.2, Levels: 3, Endpoint: "FF s15[0]"},
	})
	if !strings.Contains(text, " 6.313 ns") || !strings.Contains(text, "FF s15[0]") {
		t.Fatalf("timing layout broken:\n%s", text)
	}
}

func TestFig5Rendering(t *testing.T) {
	rep := &core.Report{
		LUT1: []core.ConfirmedLUT{{Bit: 0, KeepVar: 2,
			Match: core.Match{Index: 1234, Perm: []int{0, 1, 2, 3, 4, 5}}}},
		LUT2: []core.Match{{Index: 5678}},
		LUT3: []core.Match{{Index: 9012}},
	}
	text := Fig5(rep)
	for _, want := range []string{"LUT1", "LUT2", "LUT3", "1234", "5678", "9012", "s0 on XOR pin 3"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Fig5 missing %q:\n%s", want, text)
		}
	}
}
