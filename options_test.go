package snowbma

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// normalizeReport zeroes the report fields that are not part of the
// semantic attack outcome: wall-clock scan timings and the process-wide
// candidate-catalogue cache counters (which depend on what earlier
// tests already compiled).
func normalizeReport(r *Report) *Report {
	c := r.Clone()
	c.Scan.CompileTime = 0
	c.Scan.ScanTime = 0
	c.Scan.CatalogueHits = 0
	c.Scan.CatalogueMisses = 0
	return c
}

func buildTestVictim(t *testing.T) *Victim {
	t.Helper()
	v, err := BuildVictim(VictimConfig{Key: PaperKey})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAttackCancelledViaFacade(t *testing.T) {
	v := buildTestVictim(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Attack(ctx, v, PaperIV); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Attack with cancelled ctx = %v, want ErrCancelled", err)
	}
	if _, err := CensusAttack(ctx, v, PaperIV); !errors.Is(err, ErrCancelled) {
		t.Fatalf("CensusAttack with cancelled ctx = %v, want ErrCancelled", err)
	}
	if _, _, err := FindLUTs(ctx, v.Device.ReadFlash(), "(a1^a2^a3)a4a5!a6"); !errors.Is(err, ErrCancelled) {
		t.Fatalf("FindLUTs with cancelled ctx = %v, want ErrCancelled", err)
	}
	if _, err := RunCampaign(ctx, CampaignConfig{Runs: 2, Seed: 1}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("RunCampaign with cancelled ctx = %v, want ErrCancelled", err)
	}
}

// TestLaneValidationViaFacade runs both attack entrypoints across the
// sweep-width range: out-of-range widths fail with ErrLanes, and every
// legal width recovers the key with the same modeled outcome. Telemetry
// must record spans without changing the report.
func TestLaneValidationViaFacade(t *testing.T) {
	type kindLanes struct {
		census bool
		lanes  int
	}
	first := map[bool]*Report{}         // first report per entrypoint
	untraced := map[kindLanes]*Report{} // per entrypoint and width
	for _, tc := range []struct {
		name    string
		census  bool
		lanes   int
		traced  bool
		wantErr error
	}{
		{"attack lanes 0", false, 0, false, ErrLanes},
		{"attack lanes -1", false, -1, false, ErrLanes},
		{"attack lanes max+1", false, MaxLanes + 1, false, ErrLanes},
		{"census lanes max+1", true, MaxLanes + 1, false, ErrLanes},
		{"attack lanes max", false, MaxLanes, false, nil},
		{"attack lanes 8", false, 8, false, nil},
		{"attack lanes 8 traced", false, 8, true, nil},
		{"census lanes max", true, MaxLanes, false, nil},
	} {
		run := Attack
		if tc.census {
			run = CensusAttack
		}
		var tel *Telemetry
		if tc.traced {
			tel = NewTelemetry()
		}
		rep, err := run(context.Background(), buildTestVictim(t), PaperIV, WithLanes(tc.lanes), WithTelemetry(tel))
		if tc.wantErr != nil {
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
			}
			if err := ValidateLanes(tc.lanes); !errors.Is(err, ErrLanes) {
				t.Fatalf("%s: ValidateLanes = %v, want ErrLanes", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := ValidateLanes(tc.lanes); err != nil {
			t.Fatalf("%s: ValidateLanes = %v", tc.name, err)
		}
		if !rep.Verified || rep.Key != PaperKey {
			t.Fatalf("%s: verified=%v key=%08x", tc.name, rep.Verified, rep.Key)
		}
		// Across widths only the simulator-side BatchStats may differ;
		// the modeled hardware cost and the recovered secrets are
		// invariant.
		if f := first[tc.census]; f == nil {
			first[tc.census] = rep
		} else if rep.Loads != f.Loads || rep.Key != f.Key || rep.IV != f.IV {
			t.Fatalf("%s: lane width changed the modeled outcome: loads %d vs %d", tc.name, rep.Loads, f.Loads)
		}
		k := kindLanes{tc.census, tc.lanes}
		if !tc.traced {
			untraced[k] = rep
			continue
		}
		if len(tel.Tracer.Roots()) == 0 {
			t.Fatalf("%s: WithTelemetry recorded no spans", tc.name)
		}
		if !reflect.DeepEqual(normalizeReport(rep), normalizeReport(untraced[k])) {
			t.Fatalf("%s: telemetry changed the report", tc.name)
		}
	}
}
