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

// attackVictim runs the Table II attack (or the census-guided one) on
// v's device, traced into a fresh telemetry handle.
func attackVictim(t *testing.T, v *victim.Victim, census bool) (*Report, *obs.Telemetry, error) {
	t.Helper()
	atk, err := NewAttack(v.Device, attackIV, nil)
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New()
	atk.SetTelemetry(tel)
	var rep *Report
	if census {
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

// TestEngineInvariants pins the engine counters of the CLI's attacks as
// want rows: modeled loads, fabric passes, scalar fallbacks, confirmed
// z-path LUTs, and the fabric programs the run compiled. Each attack
// runs on a cache hit, so programming the victim compiled nothing; the
// compiles left are the scalar candidates whose patches reach the
// design description. Every other load of the run — both sweep bases
// and the restoring epilogue — carries the programmed bytes and reuses
// its Compiled.
func TestEngineInvariants(t *testing.T) {
	type counts struct {
		Loads, Passes, Fallbacks, ZPathLUTs int
		Compiles, Reuses                    int64
	}
	for _, tc := range []struct {
		name    string
		cfg     victim.Config
		census  bool
		wantErr bool
		want    counts
	}{
		{
			name: "plain",
			cfg:  victim.Config{Key: secretKey},
			want: counts{Loads: 47, Passes: 4, Fallbacks: 3, ZPathLUTs: 32, Compiles: 3, Reuses: 3},
		},
		{
			name: "encrypted",
			cfg:  victim.Config{Key: secretKey, Encrypt: cliKeys},
			want: counts{Loads: 47, Passes: 4, Fallbacks: 3, ZPathLUTs: 32, Compiles: 3, Reuses: 3},
		},
		{
			name:   "census",
			cfg:    victim.Config{Key: secretKey},
			census: true,
			want:   counts{Loads: 1072, Passes: 21, Fallbacks: 3, ZPathLUTs: 32, Compiles: 3, Reuses: 3},
		},
		{
			name:    "protected",
			cfg:     victim.Config{Key: secretKey, Protected: true},
			wantErr: true,
			want:    counts{Loads: 18, Passes: 1, Fallbacks: 6, ZPathLUTs: 0, Compiles: 6, Reuses: 3},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			rep, tel, err := attackVictim(t, v, tc.census)
			if (err != nil) != tc.wantErr {
				t.Fatalf("attack error = %v, want error: %v", err, tc.wantErr)
			}
			got := counts{
				Loads:     rep.Loads,
				Passes:    rep.Batch.Passes,
				Fallbacks: rep.Batch.Fallbacks,
				ZPathLUTs: len(rep.LUT1),
				Compiles:  tel.Counter("device.compiles").Value(),
				Reuses:    tel.Counter("device.reuses").Value(),
			}
			if got != tc.want {
				t.Errorf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

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
			if _, _, err := attackVictim(t, v, false); err != nil {
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
	want, _, err := attackVictim(t, solo, false)
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
		got, solo := reflect.ValueOf(runFacts(rep)).Elem(), reflect.ValueOf(runFacts(want)).Elem()
		for f := 0; f < got.NumField(); f++ {
			if !reflect.DeepEqual(got.Field(f).Interface(), solo.Field(f).Interface()) {
				t.Errorf("attack %d: %s = %+v, solo run %+v", i, got.Type().Field(f).Name, got.Field(f), solo.Field(f))
			}
		}
	}
}
