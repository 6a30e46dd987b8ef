package core

import (
	"errors"
	"testing"

	"snowbma/internal/device"
)

// runAttack executes the full paper attack at a given sweep width and
// returns the report.
func runAttack(t *testing.T, encrypted bool, recompute bool, lanes int) *Report {
	t.Helper()
	victim := buildVictim(t, false, encrypted)
	atk, err := NewAttackCRCMode(victim, attackIV, nil, recompute)
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.SetLanes(lanes); err != nil {
		t.Fatal(err)
	}
	rep, err := atk.Run()
	if err != nil {
		t.Fatalf("attack (lanes=%d) failed: %v", lanes, err)
	}
	return rep
}

// diffReports asserts the attack outcome and — critically — the modeled
// hardware cost are invariant under the sweep width.
func diffReports(t *testing.T, scalar, batch *Report) {
	t.Helper()
	if scalar.Key != batch.Key {
		t.Fatalf("recovered keys diverge: %08x vs %08x", scalar.Key, batch.Key)
	}
	if !scalar.Verified || !batch.Verified {
		t.Fatal("one of the runs is unverified")
	}
	if scalar.Loads != batch.Loads {
		t.Fatalf("Loads diverge: scalar %d, batch %d — the sweep width leaked into the hardware cost model",
			scalar.Loads, batch.Loads)
	}
	if se, be := scalar.HardwareEstimate(3.3), batch.HardwareEstimate(3.3); se != be {
		t.Fatalf("HardwareEstimate diverges: %v vs %v", se, be)
	}
	for name, pair := range map[string][2][]uint32{
		"CleanKeystream": {scalar.CleanKeystream, batch.CleanKeystream},
		"KeyIndependent": {scalar.KeyIndependent, batch.KeyIndependent},
		"FaultyFinal":    {scalar.FaultyFinal, batch.FaultyFinal},
	} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			t.Fatalf("%s lengths diverge: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] diverges: %08x vs %08x", name, i, a[i], b[i])
			}
		}
	}
}

// TestBatchSweepMatchesScalarAttack is the acceptance differential: the
// full attack at 64 lanes recovers the same key with the same keystreams
// and byte-identical Loads accounting as the scalar path, while
// actually running far fewer fabric passes.
func TestBatchSweepMatchesScalarAttack(t *testing.T) {
	scalar := runAttack(t, false, false, 1)
	batch := runAttack(t, false, false, 64)
	diffReports(t, scalar, batch)
	if scalar.Batch.Passes != 0 {
		t.Fatalf("scalar run executed %d fabric passes, want 0", scalar.Batch.Passes)
	}
	if batch.Batch.Passes == 0 || batch.Batch.Lanes == 0 {
		t.Fatal("batch run never used the bitsliced evaluator")
	}
	if batch.Batch.Passes >= batch.Loads {
		t.Fatalf("batch run took %d passes for %d modeled loads; no amortization",
			batch.Batch.Passes, batch.Loads)
	}
	t.Logf("loads=%d passes=%d lanes=%d fallbacks=%d patched frames=%d",
		batch.Loads, batch.Batch.Passes, batch.Batch.Lanes,
		batch.Batch.Fallbacks, batch.Batch.PatchedFrames)
}

// TestBatchSweepEncryptedMatchesScalar runs the same differential on an
// encrypted victim: the batch path configures lanes from the sealed
// base, the scalar path reseals every candidate.
func TestBatchSweepEncryptedMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("two full encrypted attacks")
	}
	scalar := runAttack(t, true, false, 1)
	batch := runAttack(t, true, false, 64)
	diffReports(t, scalar, batch)
	if !scalar.Encrypted || !batch.Encrypted {
		t.Fatal("victims not encrypted")
	}
}

// TestBatchSweepCRCRecomputeMatchesScalar covers the recompute-CRC
// Section V-B option: candidate CRCs are recomputed on the scalar path
// and ignored by the simulator lanes, with identical outcomes.
func TestBatchSweepCRCRecomputeMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("two full attacks")
	}
	scalar := runAttack(t, false, true, 1)
	batch := runAttack(t, false, true, 64)
	diffReports(t, scalar, batch)
}

// TestCensusGuidedBatchMatchesScalar runs the census-guided flow — the
// generalized attack — at both widths.
func TestCensusGuidedBatchMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("two full census attacks")
	}
	run := func(lanes int) *Report {
		victim := buildVictim(t, false, false)
		atk, err := NewAttack(victim, attackIV, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := atk.SetLanes(lanes); err != nil {
			t.Fatal(err)
		}
		rep, err := atk.RunCensusGuided()
		if err != nil {
			t.Fatalf("census attack (lanes=%d) failed: %v", lanes, err)
		}
		return rep
	}
	scalar := run(1)
	batch := run(64)
	diffReports(t, scalar, batch)
	if batch.Batch.Passes == 0 {
		t.Fatal("census batch run never used the bitsliced evaluator")
	}
}

// TestValidateLanes pins the width check SetLanes makes: 1..device.MaxLanes
// is accepted and anything else is refused with ErrLanes.
func TestValidateLanes(t *testing.T) {
	atk, err := NewAttack(buildVictim(t, false, false), attackIV, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, 0, device.MaxLanes + 1, 128, 256, 1000} {
		if err := atk.SetLanes(bad); !errors.Is(err, ErrLanes) {
			t.Fatalf("SetLanes(%d) = %v, want ErrLanes", bad, err)
		}
	}
	for _, good := range []int{1, 2, DefaultLanes, device.MaxLanes} {
		if err := atk.SetLanes(good); err != nil {
			t.Fatalf("SetLanes(%d) = %v, want nil", good, err)
		}
	}
}

func TestSetLanesValidation(t *testing.T) {
	victim := buildVictim(t, false, false)
	atk, err := NewAttack(victim, attackIV, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := atk.Report().Batch.Width; w != DefaultLanes {
		t.Fatalf("new attack sweeps %d lanes wide, want DefaultLanes %d", w, DefaultLanes)
	}
	for _, bad := range []int{-1, 0, device.MaxLanes + 1} {
		if err := atk.SetLanes(bad); err == nil {
			t.Fatalf("SetLanes(%d) accepted", bad)
		}
		if w := atk.Report().Batch.Width; w != DefaultLanes {
			t.Fatalf("Width = %d after refused SetLanes(%d), want %d", w, bad, DefaultLanes)
		}
	}
	for _, good := range []int{1, 2, 33, 63, device.MaxLanes} {
		if err := atk.SetLanes(good); err != nil {
			t.Fatalf("SetLanes(%d): %v", good, err)
		}
		if atk.Report().Batch.Width != good {
			t.Fatalf("Width = %d after SetLanes(%d)", atk.Report().Batch.Width, good)
		}
	}
}
