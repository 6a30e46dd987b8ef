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

// TestLaneValidationViaFacade runs both attack entrypoints at the one
// sweep width every entry point uses: each recovers the key in fabric
// passes DefaultLanes wide, and telemetry must record spans without
// changing the report.
func TestLaneValidationViaFacade(t *testing.T) {
	for _, census := range []bool{false, true} {
		run := Attack
		if census {
			run = CensusAttack
		}
		untraced, err := run(context.Background(), buildTestVictim(t), PaperIV)
		if err != nil {
			t.Fatalf("census=%v: %v", census, err)
		}
		tel := NewTelemetry()
		traced, err := run(context.Background(), buildTestVictim(t), PaperIV, WithTelemetry(tel))
		if err != nil {
			t.Fatalf("census=%v traced: %v", census, err)
		}
		for _, rep := range []*Report{untraced, traced} {
			if !rep.Verified || rep.Key != PaperKey {
				t.Fatalf("census=%v: verified=%v key=%08x", census, rep.Verified, rep.Key)
			}
			if rep.Batch.Width != DefaultLanes {
				t.Fatalf("census=%v: sweep width %d, want %d", census, rep.Batch.Width, DefaultLanes)
			}
		}
		roots := 0
		for _, s := range tel.Tracer.Spans() {
			if s.Parent == 0 {
				roots++
			}
		}
		if roots == 0 {
			t.Fatalf("census=%v: WithTelemetry recorded no spans", census)
		}
		if !reflect.DeepEqual(normalizeReport(traced), normalizeReport(untraced)) {
			t.Fatalf("census=%v: telemetry changed the report", census)
		}
	}
}
