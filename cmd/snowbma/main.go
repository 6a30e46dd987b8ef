// Command snowbma is the command-line front end of the reproduction:
// synthesize victim bitstreams, search them with FINDLUT, regenerate the
// paper's tables and run the complete key-recovery attack.
//
// Usage:
//
//	snowbma synth      [-protected] [-key k0,k1,k2,k3] [-pad N] [-seed N] [-o out.bit]
//	snowbma attack     [-protected] [-encrypted] [-census] [-stats] [-trace file] [-key ...] [-iv ...] [-v]
//	snowbma campaign   [-runs N] [-parallel N] [-seed N] [-chaos] [-json file]
//	snowbma findlut    -bits file [-f expr] [-parallel N] [-stats] [-trace file]
//	snowbma census     -bits file [-min N] | -corpus [-n N] [-seed N] [-dir dir] [-json file] [-stats]
//	snowbma table2     [-key ...] [-stats]
//	snowbma table6     [-key ...] [-stats]
//	snowbma keystream  [-key ...] [-iv ...] [-n 16] [-stuck-init] [-stuck-gen] [-zero-lfsr]
//	snowbma inspect    -bits file
//	snowbma complexity [-m 32] [-bits 128]
//	snowbma serve      [-addr host:port] [-workers N] [-queue N] [-drain 1m] [-store dir] [-tenants a=3,b=1] [-rig-latency 300ms] [-q]
//	snowbma fleet      -workers url1,url2,... [-addr host:port] [-health 250ms] [-lease 1s] [-q]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"math/rand"

	"snowbma"
	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/core"
	"snowbma/internal/device"
	"snowbma/internal/hdl"
	"snowbma/internal/mapper"
	"snowbma/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "synth":
		err = cmdSynth(args)
	case "attack":
		err = cmdAttack(args)
	case "findlut":
		err = cmdFindLUT(args)
	case "table2":
		err = cmdTable(args, false)
	case "table6":
		err = cmdTable(args, true)
	case "keystream":
		err = cmdKeystream(args)
	case "inspect":
		err = cmdInspect(args)
	case "extract":
		err = cmdExtract(args)
	case "trace":
		err = cmdTrace(args)
	case "census":
		err = cmdCensus(args)
	case "repro":
		err = cmdRepro(args)
	case "diff":
		err = cmdDiff(args)
	case "verify":
		err = cmdVerify(args)
	case "export":
		err = cmdExport(args)
	case "complexity":
		err = cmdComplexity(args)
	case "campaign":
		err = cmdCampaign(args)
	case "serve":
		err = cmdServe(args)
	case "fleet":
		err = cmdFleet(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snowbma:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: snowbma <command> [flags]

commands:
  synth       synthesize a SNOW 3G victim bitstream
  attack      run the full bitstream modification attack
  findlut     search a bitstream for a Boolean function (Algorithm 1)
  table2      regenerate the Table II candidate counts (unprotected)
  table6      regenerate the Table VI counts + dual-XOR search (protected)
  keystream   run the software model (optionally faulted)
  inspect     dump the packet structure of a bitstream
  extract     decode all LUT truth tables from a bitstream ([14]-style)
  trace       run the device and dump a VCD waveform of its pins
  census      shortlist XOR-structured LUT classes; -corpus runs the census at scale
  repro       regenerate every paper table/figure in one run
  diff        classify the differences between two bitstreams by region
  verify      boot a bitstream and check it against the software model
  export      write the mapped design as BLIF and structural netlist
  complexity  countermeasure complexity analysis (Lemma VII-A)
  campaign    run a randomized attack campaign (optionally with chaos faults)
  serve       run the attack-as-a-service HTTP job engine
  fleet       shard jobs across serve workers with crash recovery`)
	os.Exit(2)
}

func parseWords(s string, def [4]uint32) ([4]uint32, error) {
	if s == "" {
		return def, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return def, fmt.Errorf("want 4 comma-separated hex words, got %q", s)
	}
	var out [4]uint32
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimPrefix(strings.TrimSpace(p), "0x"), 16, 32)
		if err != nil {
			return def, err
		}
		out[i] = uint32(v)
	}
	return out, nil
}

// readBitstream loads a -bits argument through bitstream.ReadImageFile,
// which refuses empty and oversized files; an unset flag is an error
// too.
func readBitstream(cmd, path string) ([]byte, error) {
	if path == "" {
		return nil, fmt.Errorf("%s: -bits required (path to a bitstream file)", cmd)
	}
	bits, err := bitstream.ReadImageFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cmd, err)
	}
	return bits, nil
}

// ErrTracePath is the named validation error for the -trace flag:
// callers (and tests) can match it with errors.Is regardless of the
// wrapping command.
var ErrTracePath = errors.New("invalid -trace path")

// traceFlag registers the shared -trace flag.
func traceFlag(fs *flag.FlagSet) *string {
	return fs.String("trace", "", "write an NDJSON telemetry trace (phase spans + metrics) to this file")
}

// openTrace validates the -trace argument and opens the output file up
// front, so an unwritable path fails before any attack work instead of
// after it. An unset flag returns a nil file (tracing off); an
// explicitly empty or unwritable path is a named ErrTracePath error.
func openTrace(cmd string, fs *flag.FlagSet, path string) (*os.File, error) {
	set := false
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "trace" {
			set = true
		}
	})
	if !set {
		return nil, nil
	}
	if path == "" {
		return nil, fmt.Errorf("%s: %w: path must not be empty", cmd, ErrTracePath)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %v", cmd, ErrTracePath, err)
	}
	return f, nil
}

// writeTrace exports tel to the open trace file and closes it. Export
// and close errors fail the command — a truncated trace must not pass
// silently.
func writeTrace(f *os.File, tel *snowbma.Telemetry) error {
	if f == nil {
		return nil
	}
	if err := snowbma.WriteTrace(f, tel); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace %s: %w", f.Name(), err)
	}
	fmt.Printf("wrote trace %s\n", f.Name())
	return nil
}

// positive validates an integer flag that must be ≥ 1.
func positive(cmd, name string, v int) error {
	if v < 1 {
		return fmt.Errorf("%s: -%s must be at least 1, got %d", cmd, name, v)
	}
	return nil
}

func keyFlag(fs *flag.FlagSet) *string {
	return fs.String("key", "", "key words k0,k1,k2,k3 in hex (default: the paper's ETSI test key)")
}

func ivFlag(fs *flag.FlagSet) *string {
	return fs.String("iv", "", "IV words iv0,iv1,iv2,iv3 in hex (default: the paper's IV)")
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	protected := fs.Bool("protected", false, "apply the Section VII-A countermeasure")
	autoBits := fs.Int("autoprotect", 0, "plan the countermeasure automatically for this security level (bits)")
	pad := fs.Int("pad", 0, "extra empty fabric frames")
	out := fs.String("o", "snow3g.bit", "output file")
	seed := fs.Int64("seed", 0, "placement seed (0 picks the default)")
	keyStr := keyFlag(fs)
	_ = fs.Parse(args)
	if *pad < 0 {
		return fmt.Errorf("synth: -pad must be non-negative, got %d", *pad)
	}
	if *autoBits < 0 {
		return fmt.Errorf("synth: -autoprotect must be non-negative, got %d", *autoBits)
	}
	if err := validateSeed("synth", *seed); err != nil {
		return err
	}
	key, err := parseWords(*keyStr, snowbma.PaperKey)
	if err != nil {
		return err
	}
	v, err := snowbma.BuildVictim(snowbma.VictimConfig{
		Key: key, Protected: *protected, AutoProtectBits: *autoBits, PadFrames: *pad, Seed: *seed,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, v.Image, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d bytes, %d LUTs, depth %d, critical path %.3f ns (%s)\n",
		*out, len(v.Image), v.LUTs, v.Depth, v.CriticalPathNs, v.CriticalEndpoint)
	return nil
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	protected := fs.Bool("protected", false, "attack the protected implementation")
	encrypted := fs.Bool("encrypted", false, "victim uses an encrypted bitstream")
	verbose := fs.Bool("v", false, "log attack progress")
	census := fs.Bool("census", false, "use census-guided discovery instead of the Table II catalogue")
	stats := fs.Bool("stats", false, "print scan-engine and batch-sweep counters even on failure")
	tracePath := traceFlag(fs)
	keyStr := keyFlag(fs)
	ivStr := ivFlag(fs)
	_ = fs.Parse(args)
	traceFile, err := openTrace("attack", fs, *tracePath)
	if err != nil {
		return err
	}
	key, err := parseWords(*keyStr, snowbma.PaperKey)
	if err != nil {
		return err
	}
	iv, err := parseWords(*ivStr, snowbma.PaperIV)
	if err != nil {
		return err
	}
	cfg := snowbma.VictimConfig{Key: key, Protected: *protected}
	if *encrypted {
		cfg.Encrypt = &snowbma.EncryptionKeys{
			KE: [32]byte{0xE0, 0x01, 0x72}, KA: [32]byte{0xA4, 0x99, 0x55},
		}
	}
	victim, err := snowbma.BuildVictim(cfg)
	if err != nil {
		return err
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(f string, a ...any) { fmt.Printf("  [attack] "+f+"\n", a...) }
	}
	var tel *snowbma.Telemetry
	if traceFile != nil || *stats {
		tel = snowbma.NewTelemetry()
	}
	run := snowbma.Attack
	if *census {
		run = snowbma.CensusAttack
	}
	rep, err := run(context.Background(), victim, iv,
		snowbma.WithLogf(logf), snowbma.WithTelemetry(tel))
	// The trace is written whatever the attack outcome — a failed run's
	// trace is exactly the one worth reading — and a truncated trace
	// fails the command even when the attack succeeded.
	if terr := writeTrace(traceFile, tel); terr != nil {
		return terr
	}
	if err != nil {
		if rep != nil {
			fmt.Print(report.CandidateTable(rep.CandidateTable))
			if *stats {
				fmt.Print(report.ScanStats(rep.Scan))
				fmt.Print(report.BatchStats(rep.Batch))
				fmt.Print(report.FabricStats(rep.Fabric, tel))
				fmt.Print(report.Trace(tel))
			}
		}
		return fmt.Errorf("attack failed (as expected for -protected): %w", err)
	}
	// The success report carries the scan and batch-sweep sections.
	if *stats {
		fmt.Print(report.AttackStats(rep, tel))
		fmt.Print(report.Trace(tel))
	} else {
		fmt.Print(report.Attack(rep))
	}
	if *verbose {
		fmt.Println("\nidentified covers (Fig 5 analogue):")
		fmt.Print(report.Fig5(rep))
	}
	return nil
}

func cmdFindLUT(args []string) error {
	fs := flag.NewFlagSet("findlut", flag.ExitOnError)
	file := fs.String("bits", "", "bitstream file")
	expr := fs.String("f", "(a1^a2^a3)a4a5!a6", "Boolean function over a1..a6, or an INIT literal 64'h...")
	parallel := fs.Int("parallel", 0, "scan worker goroutines (0 = all CPUs)")
	stats := fs.Bool("stats", false, "print scan-engine counters")
	tracePath := traceFlag(fs)
	_ = fs.Parse(args)
	if *parallel < 0 {
		return fmt.Errorf("findlut: -parallel must be non-negative, got %d (0 means all CPUs)", *parallel)
	}
	traceFile, err := openTrace("findlut", fs, *tracePath)
	if err != nil {
		return err
	}
	bits, err := readBitstream("findlut", *file)
	if err != nil {
		return err
	}
	var tel *snowbma.Telemetry
	if traceFile != nil || *stats {
		tel = snowbma.NewTelemetry()
	}
	hits, st, err := snowbma.FindLUTs(context.Background(), bits, *expr,
		snowbma.WithParallel(*parallel), snowbma.WithTelemetry(tel))
	if err != nil {
		return err
	}
	if terr := writeTrace(traceFile, tel); terr != nil {
		return terr
	}
	fmt.Printf("%d candidate LUTs for %s:\n", len(hits), *expr)
	for _, l := range hits {
		fmt.Printf("  byte index %d\n", l)
	}
	if *stats {
		fmt.Print(report.ScanStats(st))
		fmt.Print(report.Trace(tel))
	}
	return nil
}

func cmdTable(args []string, protected bool) error {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	keyStr := keyFlag(fs)
	stats := fs.Bool("stats", false, "print scan-engine counters")
	_ = fs.Parse(args)
	key, err := parseWords(*keyStr, snowbma.PaperKey)
	if err != nil {
		return err
	}
	victim, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: key, Protected: protected})
	if err != nil {
		return err
	}
	rows, scan, err := snowbma.CountCandidates(victim, snowbma.PaperIV)
	if err != nil {
		return err
	}
	fmt.Print(report.CandidateTable(rows))
	if protected {
		flash := victim.Device.ReadFlash()
		all, dualScan := snowbma.DualXORHits(flash, 0, 0)
		window, _ := snowbma.DualXORHits(flash, 0, 200000)
		fmt.Printf("\ndual-output XOR search (Section VII-B):\n")
		fmt.Printf("  unconstrained: %d hits (paper: 481)\n", len(all))
		fmt.Printf("  first 200000 byte positions: %d hits (paper: 203)\n", len(window))
		fmt.Printf("  selection effort: 2^%.1f (paper: C(171,32) ≈ 2^115)\n",
			snowbma.SearchEffortBits(32, len(all)-32))
		scan.Accumulate(dualScan)
	}
	if *stats {
		fmt.Print(report.ScanStats(scan))
	}
	return nil
}

func cmdKeystream(args []string) error {
	fs := flag.NewFlagSet("keystream", flag.ExitOnError)
	keyStr := keyFlag(fs)
	ivStr := ivFlag(fs)
	n := fs.Int("n", 16, "keystream words")
	stuckInit := fs.Bool("stuck-init", false, "FSM output stuck at 0 during initialization")
	stuckGen := fs.Bool("stuck-gen", false, "FSM output stuck at 0 during keystream generation")
	zeroLFSR := fs.Bool("zero-lfsr", false, "load the all-0 vector instead of γ(K, IV)")
	_ = fs.Parse(args)
	if err := positive("keystream", "n", *n); err != nil {
		return err
	}
	key, err := parseWords(*keyStr, snowbma.PaperKey)
	if err != nil {
		return err
	}
	iv, err := parseWords(*ivStr, snowbma.PaperIV)
	if err != nil {
		return err
	}
	z := snowbma.FaultyKeystream(key, iv, *stuckInit, *stuckGen, *zeroLFSR, *n)
	fmt.Print(report.Keystream(z))
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	file := fs.String("bits", "", "bitstream file")
	_ = fs.Parse(args)
	bits, err := readBitstream("inspect", *file)
	if err != nil {
		return err
	}
	if bitstream.IsEncrypted(bits) {
		fmt.Println("encrypted image (AES-256-CBC + HMAC envelope, Fig 1)")
		return nil
	}
	p, err := bitstream.ParsePackets(bits)
	if err != nil {
		return err
	}
	fmt.Printf("total size:   %d bytes\n", len(bits))
	fmt.Printf("sync word at: byte %d\n", p.SyncOffset-4)
	fmt.Printf("FDRI data:    offset %d, %d bytes (%d frames of %d words)\n",
		p.FDRIOffset, p.FDRILen, p.FDRILen/bitstream.FrameBytes, bitstream.WordsPerFrame)
	if p.CRCOffset >= 0 {
		fmt.Printf("CRC write at: byte %d, value %08x", p.CRCOffset, p.CRCValue)
		if err := bitstream.CheckCRC(bits); err != nil {
			fmt.Printf("  (INVALID: %v)", err)
		} else {
			fmt.Printf("  (valid)")
		}
		fmt.Println()
	} else {
		fmt.Println("CRC:          disabled (no 0x30000001 write)")
	}
	return nil
}

func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	file := fs.String("bits", "", "bitstream file")
	census := fs.Bool("census", false, "print the P-class census instead of each LUT")
	_ = fs.Parse(args)
	bits, err := readBitstream("extract", *file)
	if err != nil {
		return err
	}
	if *census {
		// Every class, so the header counts them all; ties print in
		// canon order.
		classes, err := core.CensusAllClasses(bits, 1)
		if err != nil {
			return err
		}
		n := 0
		for _, c := range classes {
			n += c.Count
		}
		fmt.Printf("%d LUTs in %d P-equivalence classes\n", n, len(classes))
		for _, c := range classes {
			if c.Count >= 8 {
				fmt.Printf("  %4d × %s\n", c.Count, c.Expr)
			}
		}
		return nil
	}
	luts, err := bitstream.ExtractLUTs(bits)
	if err != nil {
		return err
	}
	fmt.Printf("%d occupied LUT slots:\n", len(luts))
	for _, l := range luts {
		kind := "single"
		if l.Dual {
			kind = "dual?"
		}
		fmt.Printf("  frame %3d slot %2d %s %-6s %s = %s\n",
			l.Loc.Frame, l.Loc.Slot, l.Loc.Type, kind, l.Init, boolfn.Minimize(l.Init))
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "snow3g.vcd", "output VCD file")
	n := fs.Int("n", 8, "keystream words to generate while tracing")
	keyStr := keyFlag(fs)
	ivStr := ivFlag(fs)
	_ = fs.Parse(args)
	if err := positive("trace", "n", *n); err != nil {
		return err
	}
	key, err := parseWords(*keyStr, snowbma.PaperKey)
	if err != nil {
		return err
	}
	iv, err := parseWords(*ivStr, snowbma.PaperIV)
	if err != nil {
		return err
	}
	victim, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: key})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	ins, outs := hdl.KeystreamPins()
	tr := hdl.NewTraceDevice(victim.Device, f, ins, outs)
	hdl.GenerateKeystream(tr, iv, *n)
	cycles, err := tr.Close()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d cycles, %d signals\n", *out, cycles, len(ins)+len(outs))
	return nil
}

func cmdCensus(args []string) error {
	fs := flag.NewFlagSet("census", flag.ExitOnError)
	file := fs.String("bits", "", "bitstream file")
	min := fs.Int("min", 8, "minimum class population")
	tracePath := traceFlag(fs)
	corpusMode := fs.Bool("corpus", false, "census a whole corpus of designs instead of one bitstream")
	n := fs.Int("n", 50, "corpus mode: seeded designs to synthesize")
	seed := fs.Int64("seed", 1, "corpus mode: master seed; identical seeds reproduce the report")
	dir := fs.String("dir", "", "corpus mode: census every bitstream file of this directory instead of synthesizing")
	parallel := fs.Int("parallel", 0, "corpus mode: scan worker-pool width (0 = all CPUs)")
	jsonOut := fs.String("json", "", "corpus mode: write the corpus report as JSON to this file")
	stats := fs.Bool("stats", false, "corpus mode: print accumulated scan-engine counters")
	_ = fs.Parse(args)
	if *corpusMode {
		if *file != "" {
			return errors.New("census: -corpus and -bits are mutually exclusive (use -dir to ingest files)")
		}
		return runCensusCorpus(fs, corpusOpts{
			n: *n, seed: *seed, dir: *dir, parallel: *parallel,
			jsonOut: *jsonOut, stats: *stats, tracePath: *tracePath,
		})
	}
	if err := positive("census", "min", *min); err != nil {
		return err
	}
	traceFile, err := openTrace("census", fs, *tracePath)
	if err != nil {
		return err
	}
	bits, err := readBitstream("census", *file)
	if err != nil {
		return err
	}
	var tel *snowbma.Telemetry
	if traceFile != nil {
		tel = snowbma.NewTelemetry()
	}
	span := tel.StartSpan("census.scan")
	classes, err := core.CensusCandidates(bits, *min)
	span.SetAttr("bytes", len(bits))
	span.SetAttr("classes", len(classes))
	span.End()
	if err != nil {
		return err
	}
	tel.Gauge("census.classes").Set(float64(len(classes)))
	if terr := writeTrace(traceFile, tel); terr != nil {
		return terr
	}
	fmt.Printf("%d XOR-structured classes with ≥ %d members:\n", len(classes), *min)
	for _, c := range classes {
		fmt.Printf("  %4d × %s  (xor groups %v)\n", c.Count, c.Expr, c.Groups)
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	blifOut := fs.String("blif", "", "write the mapped LUT network as BLIF")
	structOut := fs.String("structural", "", "write the gate-level netlist as structural text")
	protected := fs.Bool("protected", false, "export the protected variant")
	keyStr := keyFlag(fs)
	_ = fs.Parse(args)
	key, err := parseWords(*keyStr, snowbma.PaperKey)
	if err != nil {
		return err
	}
	d := hdl.Build(hdl.Config{Key: key, Protected: *protected})
	opts := mapper.Options{K: 6, Boundaries: d.Boundaries}
	if *protected {
		opts.TrivialCuts = d.TrivialCuts
	}
	r, err := mapper.Map(d.N, opts)
	if err != nil {
		return err
	}
	if *blifOut != "" {
		f, err := os.Create(*blifOut)
		if err != nil {
			return err
		}
		if err := mapper.WriteBLIF(f, r, "snow3g"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d LUTs)\n", *blifOut, len(r.LUTs))
	}
	if *structOut != "" {
		f, err := os.Create(*structOut)
		if err != nil {
			return err
		}
		if err := d.N.WriteStructural(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d nodes)\n", *structOut, d.N.NumNodes())
	}
	if *blifOut == "" && *structOut == "" {
		return fmt.Errorf("export: nothing to do; pass -blif and/or -structural")
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	file := fs.String("bits", "", "bitstream file")
	n := fs.Int("n", 16, "keystream words per IV")
	trials := fs.Int("ivs", 8, "random IVs to compare")
	keyStr := keyFlag(fs)
	_ = fs.Parse(args)
	if err := positive("verify", "n", *n); err != nil {
		return err
	}
	if err := positive("verify", "ivs", *trials); err != nil {
		return err
	}
	bits, err := readBitstream("verify", *file)
	if err != nil {
		return err
	}
	key, err := parseWords(*keyStr, snowbma.PaperKey)
	if err != nil {
		return err
	}
	dev := device.New([32]byte{})
	if err := dev.Program(bits); err != nil {
		return fmt.Errorf("verify: configuration failed: %w", err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < *trials; trial++ {
		iv := snowbma.IV{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
		got := hdl.GenerateKeystream(dev, iv, *n)
		want := snowbma.Keystream(key, iv, *n)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("verify: IV %08x...: word %d is %08x, model says %08x",
					iv[0], i+1, got[i], want[i])
			}
		}
	}
	fmt.Printf("verified: device matches the SNOW 3G model on %d IVs x %d words\n", *trials, *n)
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fileA := fs.String("a", "", "first bitstream")
	fileB := fs.String("b", "", "second bitstream")
	_ = fs.Parse(args)
	if *fileA == "" || *fileB == "" {
		return fmt.Errorf("diff: -a and -b required")
	}
	a, err := bitstream.ReadImageFile(*fileA)
	if err != nil {
		return fmt.Errorf("diff: %w", err)
	}
	b, err := bitstream.ReadImageFile(*fileB)
	if err != nil {
		return fmt.Errorf("diff: %w", err)
	}
	rep, err := core.Diff(a, b)
	if err != nil {
		return err
	}
	fmt.Println("differing bytes by region:")
	for _, region := range []core.DiffRegion{core.DiffPackets, core.DiffHeaderFrame,
		core.DiffCLB, core.DiffDescription, core.DiffBRAM, core.DiffUnmapped} {
		if n := rep.Bytes[region]; n > 0 {
			fmt.Printf("  %-12s %d\n", region, n)
		}
	}
	if len(rep.LUTSlots) > 0 {
		fmt.Printf("modified LUT slots (%d):\n", len(rep.LUTSlots))
		for _, l := range rep.LUTSlots {
			fmt.Printf("  frame %3d slot %2d (%s)\n", l.Frame, l.Slot, l.Type)
		}
	}
	if len(rep.BRAMOffsets) > 0 {
		fmt.Printf("modified BRAM bytes: %d (first at region offset %d)\n",
			len(rep.BRAMOffsets), rep.BRAMOffsets[0])
	}
	return nil
}

func cmdComplexity(args []string) error {
	fs := flag.NewFlagSet("complexity", flag.ExitOnError)
	m := fs.Int("m", 32, "number of target nodes with the same function")
	bits := fs.Int("bits", 128, "required security level (bits)")
	_ = fs.Parse(args)
	fmt.Printf("targets m = %d, required security 2^%d\n", *m, *bits)
	fmt.Printf("paper lower bound on decoy ratio: 16/e - 1 ≈ 4.89\n")
	x := snowbma.MinDecoyRatio(*m, *bits)
	fmt.Printf("minimal integer decoy ratio x: %d (r = %d decoys)\n", x, *m*x)
	fmt.Println("\n  x |  r   | Lemma VII-A bound | exact C(m+r, m)")
	for i := 1; i <= x+2; i++ {
		r := *m * i
		fmt.Printf("  %d | %4d | 2^%-15.1f | 2^%.1f\n",
			i, r, snowbma.LemmaBoundBits(*m, r), snowbma.SearchEffortBits(*m, r))
	}
	return nil
}
