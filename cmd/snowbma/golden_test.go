package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the table golden files from this run")

// TestCmdTableGolden pins the stdout of `snowbma table2`, `snowbma
// table6` and `snowbma repro` byte for byte against
// testdata/<command>.golden: the Table II and Table VI candidate counts,
// the dual-output XOR search, and every artefact repro regenerates
// (Tables I–VI, the covers, timing and the Lemma). Of repro only the
// part before its engine block is pinned (reproEngineHeader). Each
// command runs in a child process (this test binary re-executed as the
// CLI), so it sees a fresh process as a user's shell would. Run with
// -update to accept a change on purpose.
func TestCmdTableGolden(t *testing.T) {
	if runAsCLI() {
		return
	}
	for _, name := range []string{"table2", "table6", "repro"} {
		if name == "repro" && testing.Short() {
			continue // synthesizes and attacks both victims, as TestCmdRepro does
		}
		got := cliStdout(t, "TestCmdTableGolden", name)
		if name == "repro" {
			var ok bool
			if got, _, ok = bytes.Cut(got, []byte(reproEngineHeader)); !ok {
				t.Fatalf("snowbma repro: no engine header in:\n%s", got)
			}
		}
		checkGolden(t, name, got)
	}
}

// TestCmdExtractCensusGolden pins `snowbma extract -census` on the
// default victim against testdata/extract-census.golden: the P-class
// census with its ties (classes of equal size) in canon order, as
// core.CensusAllClasses sorts them.
func TestCmdExtractCensusGolden(t *testing.T) {
	if runAsCLI() {
		return
	}
	bit := filepath.Join(t.TempDir(), "v.bit")
	if err := cmdSynth([]string{"-o", bit}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "extract-census", cliStdout(t, "TestCmdExtractCensusGolden", "extract -bits "+bit+" -census"))
}

// runAsCLI runs the CLI in place of the test when the test binary was
// re-executed as a child by cliStdout, and reports whether it did.
func runAsCLI() bool {
	args := os.Getenv("SNOWBMA_TEST_ARGS")
	if args == "" {
		return false
	}
	os.Args = append([]string{"snowbma"}, strings.Fields(args)...)
	main()
	return true
}

// cliStdout runs `snowbma args` in a child process — this test binary
// re-executed as the CLI through the named test — so the command sees
// a fresh process as a user's shell would, and returns its stdout.
func cliStdout(t *testing.T, test, args string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "SNOWBMA_TEST_ARGS="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("snowbma %s: %v\n%s", args, err, stderr.Bytes())
	}
	// The child's test framework ends its stdout with its verdict.
	got, ok := bytes.CutSuffix(out, []byte("PASS\n"))
	if !ok {
		t.Fatalf("snowbma %s: child did not end with PASS:\n%s", args, out)
	}
	return got
}

// checkGolden compares got with testdata/<name>.golden byte for byte,
// rewriting the file first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s line %d:\n got %s\nwant %s\n(rerun with -update to accept the new output)", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: output has %d lines, golden %d (rerun with -update to accept)", path, len(g), len(w))
}
