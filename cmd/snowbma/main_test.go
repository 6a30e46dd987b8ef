package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"snowbma/internal/bitstream"
)

func TestParseWords(t *testing.T) {
	got, err := parseWords("0x1,2,deadbeef,0", [4]uint32{9, 9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if got != [4]uint32{1, 2, 0xDEADBEEF, 0} {
		t.Fatalf("parseWords = %08x", got)
	}
	def := [4]uint32{7, 7, 7, 7}
	got, err = parseWords("", def)
	if err != nil || got != def {
		t.Fatal("empty string should yield the default")
	}
	if _, err := parseWords("1,2,3", def); err == nil {
		t.Fatal("accepted 3 words")
	}
	if _, err := parseWords("1,2,3,zz", def); err == nil {
		t.Fatal("accepted non-hex word")
	}
}

func TestSynthFindInspectExtractFlow(t *testing.T) {
	dir := t.TempDir()
	bit := filepath.Join(dir, "dut.bit")
	if err := cmdSynth([]string{"-o", bit}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(bit); err != nil || fi.Size() < 10000 {
		t.Fatalf("synth output missing or too small: %v", err)
	}
	if err := cmdFindLUT([]string{"-bits", bit, "-f", "(a1^a2^a3)a4a5!a6"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInspect([]string{"-bits", bit}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExtract([]string{"-bits", bit, "-census"}); err != nil {
		t.Fatal(err)
	}
	vcd := filepath.Join(dir, "dut.vcd")
	if err := cmdTrace([]string{"-o", vcd, "-n", "2"}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(vcd); err != nil || fi.Size() == 0 {
		t.Fatal("trace produced no waveform")
	}
}

func TestCmdKeystreamAndComplexity(t *testing.T) {
	if err := cmdKeystream([]string{"-n", "2", "-stuck-init", "-zero-lfsr"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdComplexity([]string{"-m", "32", "-bits", "128"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdFindLUT([]string{}); err == nil {
		t.Fatal("findlut without -bits should fail")
	}
	if err := cmdInspect([]string{}); err == nil {
		t.Fatal("inspect without -bits should fail")
	}
	if err := cmdExtract([]string{}); err == nil {
		t.Fatal("extract without -bits should fail")
	}
	if err := cmdFindLUT([]string{"-bits", "/nonexistent"}); err == nil {
		t.Fatal("findlut on missing file should fail")
	}
}

func TestCmdFlagValidation(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.bit")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"findlut empty bitstream", func() error { return cmdFindLUT([]string{"-bits", empty}) }},
		{"inspect empty bitstream", func() error { return cmdInspect([]string{"-bits", empty}) }},
		{"extract empty bitstream", func() error { return cmdExtract([]string{"-bits", empty}) }},
		{"census empty bitstream", func() error { return cmdCensus([]string{"-bits", empty}) }},
		{"verify empty bitstream", func() error { return cmdVerify([]string{"-bits", empty}) }},
		{"diff empty bitstream", func() error { return cmdDiff([]string{"-a", empty, "-b", empty}) }},
		{"findlut negative -parallel", func() error {
			return cmdFindLUT([]string{"-bits", empty, "-parallel", "-3"})
		}},
		{"synth negative -pad", func() error { return cmdSynth([]string{"-pad", "-1", "-o", os.DevNull}) }},
		{"synth negative -autoprotect", func() error {
			return cmdSynth([]string{"-autoprotect", "-8", "-o", os.DevNull})
		}},
		{"keystream zero -n", func() error { return cmdKeystream([]string{"-n", "0"}) }},
		{"trace zero -n", func() error { return cmdTrace([]string{"-n", "0"}) }},
		{"census zero -min", func() error { return cmdCensus([]string{"-bits", empty, "-min", "0"}) }},
		{"verify zero -ivs", func() error { return cmdVerify([]string{"-bits", empty, "-ivs", "0"}) }},
		{"verify zero -n", func() error { return cmdVerify([]string{"-bits", empty, "-n", "-2"}) }},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestCmdOversizedBitstream feeds a sparse file one byte over
// bitstream.MaxImageBytes to findlut -bits and to the directory corpus
// (DirCorpus): both refuse it with ErrImageTooLarge without reading it.
func TestCmdOversizedBitstream(t *testing.T) {
	dir := t.TempDir()
	big := filepath.Join(dir, "big.bit")
	if err := os.WriteFile(big, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(big, bitstream.MaxImageBytes+1); err != nil {
		t.Fatal(err)
	}
	if err := cmdFindLUT([]string{"-bits", big}); !errors.Is(err, bitstream.ErrImageTooLarge) {
		t.Fatalf("findlut -bits on an oversized file = %v, want ErrImageTooLarge", err)
	}
	if err := cmdCensus([]string{"-corpus", "-dir", dir}); !errors.Is(err, bitstream.ErrImageTooLarge) {
		t.Fatalf("census -corpus -dir over an oversized file = %v, want ErrImageTooLarge", err)
	}
}

func TestCmdFindLUTStatsAndParallel(t *testing.T) {
	dir := t.TempDir()
	bit := filepath.Join(dir, "dut.bit")
	if err := cmdSynth([]string{"-o", bit}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFindLUT([]string{"-bits", bit, "-stats", "-parallel", "2"}); err != nil {
		t.Fatalf("findlut -stats -parallel 2 failed: %v", err)
	}
}

func TestCmdAttackEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("attack CLI test skipped in -short mode")
	}
	if err := cmdAttack([]string{"-stats"}); err != nil {
		t.Fatalf("attack command failed: %v", err)
	}
}

// TestCmdAttackLanesErrorMessage: retired knobs are not flags. The
// sweep width (-lanes on attack and campaign) and the census window
// memo (-dedup) are undefined, so flag.ExitOnError exits 2. The commands
// run in a child process because they exit it.
func TestCmdAttackLanesErrorMessage(t *testing.T) {
	if args := os.Getenv("SNOWBMA_TEST_ARGS"); args != "" {
		os.Args = append([]string{"snowbma"}, strings.Fields(args)...)
		main()
		return
	}
	for _, row := range []struct{ args, flag string }{
		{"attack -lanes 64", "lanes"},
		{"campaign -runs 1 -lanes 64", "lanes"},
		{"census -corpus -n 4 -dedup=false", "dedup"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCmdAttackLanesErrorMessage$")
		cmd.Env = append(os.Environ(), "SNOWBMA_TEST_ARGS="+row.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(string(out), "flag provided but not defined: -"+row.flag) {
			t.Fatalf("snowbma %s: err %v, output:\n%s", row.args, err, out)
		}
	}
}

func TestCmdRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("repro runner skipped in -short mode")
	}
	if err := cmdRepro(nil); err != nil {
		t.Fatalf("repro runner failed: %v", err)
	}
}

func TestCmdVerifyAndDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.bit")
	b := filepath.Join(dir, "b.bit")
	if err := cmdSynth([]string{"-o", a}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSynth([]string{"-o", b, "-key", "1,2,3,4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-bits", a, "-ivs", "2", "-n", "4"}); err != nil {
		t.Fatalf("verify of a healthy bitstream failed: %v", err)
	}
	// Wrong key must fail verification.
	if err := cmdVerify([]string{"-bits", b, "-ivs", "1", "-n", "2"}); err == nil {
		t.Fatal("verify accepted a device keyed differently from the model")
	}
	if err := cmdDiff([]string{"-a", a, "-b", b}); err != nil {
		t.Fatalf("diff failed: %v", err)
	}
	if err := cmdCensus([]string{"-bits", a, "-min", "16"}); err != nil {
		t.Fatalf("census failed: %v", err)
	}
}

func TestCmdExport(t *testing.T) {
	dir := t.TempDir()
	blif := filepath.Join(dir, "d.blif")
	st := filepath.Join(dir, "d.netlist")
	if err := cmdExport([]string{"-blif", blif, "-structural", st}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{blif, st} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Fatalf("export output %s missing", f)
		}
	}
	if err := cmdExport(nil); err == nil {
		t.Fatal("export with no outputs accepted")
	}
}
