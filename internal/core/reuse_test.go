package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/device"
	"snowbma/internal/hdl"
	"snowbma/internal/obs"
	"snowbma/internal/victim"
)

// cliKeys is the protection-key pair `snowbma attack -encrypted` seals
// its victim with.
var cliKeys = &victim.Keys{KE: [bitstream.KeySize]byte{0xE0, 0x01, 0x72}, KA: [bitstream.KeySize]byte{0xA4, 0x99, 0x55}}

// attackRow names one of the CLI's attacks: the Table II attack or the
// census-guided one, with candidate CRCs disabled or recomputed.
type attackRow struct {
	census, recompute bool
}

// attackVictim runs row's attack on v's device at a sweep width,
// traced into a fresh telemetry handle.
func attackVictim(t *testing.T, v *victim.Victim, row attackRow, lanes int) (*Report, *obs.Telemetry, error) {
	t.Helper()
	atk, err := NewAttackCRCMode(v.Device, attackIV, nil, row.recompute)
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.SetLanes(lanes); err != nil {
		t.Fatal(err)
	}
	tel := obs.New()
	atk.SetTelemetry(tel)
	var rep *Report
	if row.census {
		rep, err = atk.RunCensusGuided()
	} else {
		rep, err = atk.Run()
	}
	return rep, tel, err
}

// runFacts drops the report fields two runs of one attack may disagree
// on: wall-clock times, and the catalogue cache's hit/miss split, which
// depends on what the process scanned before.
func runFacts(r *Report) *Report {
	c := r.Clone()
	c.Scan.CompileTime = 0
	c.Scan.ScanTime = 0
	c.Scan.CatalogueHits = 0
	c.Scan.CatalogueMisses = 0
	return c
}

// diffFacts reports every field on which two reports' run facts differ.
func diffFacts(t *testing.T, label string, got, want *Report) {
	t.Helper()
	g, w := reflect.ValueOf(runFacts(got)).Elem(), reflect.ValueOf(runFacts(want)).Elem()
	for f := 0; f < g.NumField(); f++ {
		if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
			t.Errorf("%s: %s = %+v, want %+v", label, g.Type().Field(f).Name, g.Field(f), w.Field(f))
		}
	}
}

// sweepWidths is the attack harness's implementation axis: the
// bitsliced sweep over a full lane word, and the one-lane sweep that
// loads every candidate into the victim as the paper's attacker does.
var sweepWidths = []int{DefaultLanes, 1}

// engineCounts are an attack's engine counters: modeled loads, fabric
// passes, scalar fallbacks, confirmed z-path and feedback LUTs (the
// LUT2/LUT3 split both flows write back from their fault plan), and the
// fabric programs the run compiled or reused.
type engineCounts struct {
	Loads, Passes, Fallbacks, ZPathLUTs, LUT2, LUT3 int
	Compiles, Reuses                                int64
}

// attackCase is one attack harness row: one of the CLI's attacks, and
// the engine counters its full-width sweep must report.
type attackCase struct {
	cfg     victim.Config
	row     attackRow
	wantErr bool
	want    engineCounts
}

// attackCases are the attack harness's rows. Each attack runs on a
// cache hit, so programming the victim compiled nothing; the compiles
// left are the scalar candidates whose patches reach the design
// description. Every other load of the run — both sweep bases and the
// restoring epilogue — carries the programmed bytes and reuses its
// Compiled.
var attackCases = map[string]attackCase{
	"plain":         {cfg: victim.Config{Key: secretKey}, want: engineCounts{47, 4, 3, 32, 24, 8, 3, 3}},
	"encrypted":     {cfg: victim.Config{Key: secretKey, Encrypt: cliKeys}, want: engineCounts{47, 4, 3, 32, 24, 8, 3, 3}},
	"recompute-CRC": {cfg: victim.Config{Key: secretKey}, row: attackRow{recompute: true}, want: engineCounts{47, 4, 3, 32, 24, 8, 3, 3}},
	"census":        {cfg: victim.Config{Key: secretKey}, row: attackRow{census: true}, want: engineCounts{1072, 21, 3, 32, 24, 8, 3, 3}},
	"protected":     {cfg: victim.Config{Key: secretKey, Protected: true}, wantErr: true, want: engineCounts{18, 1, 6, 0, 0, 0, 6, 3}},
}

// runAttackCase runs the named row's attack at one sweep width on a
// victim built from a cache hit, and returns its report and counters.
func runAttackCase(t *testing.T, name string, lanes int) (*Report, engineCounts, error) {
	t.Helper()
	tc, ok := attackCases[name]
	if !ok {
		t.Fatalf("no attack harness row %q", name)
	}
	cache := victim.NewCache(0)
	first, err := cache.Build(tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cache.Build(tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v.Device.Compiled() != first.Device.Compiled() {
		t.Fatal("cache hit recompiled the victim's configuration")
	}
	rep, tel, err := attackVictim(t, v, tc.row, lanes)
	if (err != nil) != tc.wantErr {
		t.Fatalf("lanes=%d: attack error = %v, want error: %v", lanes, err, tc.wantErr)
	}
	return rep, engineCounts{rep.Loads, rep.Batch.Passes, rep.Batch.Fallbacks, len(rep.LUT1), len(rep.LUT2), len(rep.LUT3),
		tel.Counter("device.compiles").Value(), tel.Counter("device.reuses").Value()}, err
}

// TestEngineInvariants pins each attack harness row's engine counters
// at the full sweep width.
func TestEngineInvariants(t *testing.T) {
	for _, name := range []string{"plain", "encrypted", "recompute-CRC", "census", "protected"} {
		t.Run(name, func(t *testing.T) {
			if _, got, _ := runAttackCase(t, name, DefaultLanes); got != attackCases[name].want {
				t.Errorf("got  %+v\nwant %+v", got, attackCases[name].want)
			}
		})
	}
}

// checkSweepWidths runs the named row at every sweep width. The widths
// must report the same attack — key, keystreams, tables and modeled
// loads, every field but the sweep's own counters, and the same error —
// and the one-lane sweep must run no fabric pass.
func checkSweepWidths(t *testing.T, name string) {
	t.Helper()
	reps := make([]*Report, len(sweepWidths))
	errs := make([]string, len(sweepWidths))
	for i, lanes := range sweepWidths {
		rep, got, err := runAttackCase(t, name, lanes)
		if err != nil {
			errs[i] = err.Error()
		}
		if lanes == 1 && got.Passes != 0 {
			t.Errorf("one-lane sweep ran %d fabric passes, want 0", got.Passes)
		}
		reps[i] = rep.Clone()
		reps[i].Batch = BatchStats{}
	}
	for i, lanes := range sweepWidths[1:] {
		label := fmt.Sprintf("lanes=%d vs %d", lanes, sweepWidths[0])
		if errs[i+1] != errs[0] {
			t.Errorf("%s: error %q, want %q", label, errs[i+1], errs[0])
		}
		diffFacts(t, label, reps[i+1], reps[0])
	}
}

// The sweep-width axis, one entry point per attack harness row. On the
// encrypted row the full-width sweep configures its lanes from the
// sealed base and the one-lane sweep reseals every candidate; on the
// protected row both widths fail the same way.
func TestBatchSweepMatchesScalarAttack(t *testing.T)       { checkSweepWidths(t, "plain") }
func TestBatchSweepEncryptedMatchesScalar(t *testing.T)    { checkSweepWidths(t, "encrypted") }
func TestBatchSweepCRCRecomputeMatchesScalar(t *testing.T) { checkSweepWidths(t, "recompute-CRC") }
func TestCensusGuidedBatchMatchesScalar(t *testing.T)      { checkSweepWidths(t, "census") }
func TestProtectedBatchMatchesScalar(t *testing.T)         { checkSweepWidths(t, "protected") }

// TestRestoreMatchesFreshLoad: the attack's restoring epilogue reloads
// the flash image over the device's own Compiled, with no separate undo
// step, and must leave it indistinguishable from a freshly programmed
// device — readback (or its refusal), flip-flop state and 16 keystream
// words.
func TestRestoreMatchesFreshLoad(t *testing.T) {
	for _, enc := range []*victim.Keys{nil, cliKeys} {
		t.Run(fmt.Sprintf("encrypted=%v", enc != nil), func(t *testing.T) {
			v, err := victim.Build(victim.Config{Key: secretKey, Encrypt: enc})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := attackVictim(t, v, attackRow{}, DefaultLanes); err != nil {
				t.Fatal(err)
			}
			var kE [bitstream.KeySize]byte
			if enc != nil {
				kE = enc.KE
			}
			fresh := device.New(kE)
			if err := fresh.Program(v.Image); err != nil {
				t.Fatal(err)
			}
			view := func(f *device.FPGA) string {
				rb, err := f.Readback()
				return fmt.Sprintf("status %+v\nreadback %x err %v\nff %v\nz %08x",
					f.Status(), rb, err, f.FlipFlops(), hdl.GenerateKeystream(f, attackIV, 16))
			}
			if got, want := view(v.Device), view(fresh); got != want {
				t.Fatalf("restored device differs from a fresh one:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestConcurrentAttacksShareOneCacheEntry runs two attacks at once on
// victims built from one cache entry — one image, one Compiled, one
// Program — and each must report exactly what a solo run reports. Run
// under -race it shows that the shared configuration is read-only.
func TestConcurrentAttacksShareOneCacheEntry(t *testing.T) {
	cache := victim.NewCache(0)
	cfg := victim.Config{Key: secretKey}
	solo, err := cache.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := attackVictim(t, solo, attackRow{}, DefaultLanes)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	reps := make([]*Report, 2)
	errs := make([]error, 2)
	for i := range reps {
		v, err := cache.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			atk, err := NewAttack(v.Device, attackIV, nil)
			if err == nil {
				reps[i], err = atk.Run()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatalf("attack %d: %v", i, errs[i])
		}
		diffFacts(t, fmt.Sprintf("attack %d vs solo run", i), rep, want)
	}
}
