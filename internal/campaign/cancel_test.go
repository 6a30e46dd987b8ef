package campaign

import (
	"context"
	"errors"
	"testing"
	"time"

	"snowbma/internal/core"
)

func TestRunContextCancelledBeforeDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, Config{Runs: 4, Seed: 11, Parallel: 2})
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("Run with cancelled ctx = %v, want core.ErrCancelled", err)
	}
	if rep != nil {
		t.Fatal("cancelled campaign returned a partial report")
	}
	if !errors.Is(Config{Runs: 0}.validate(), ErrConfig) {
		t.Fatal("validate regression")
	}
}

func TestRunContextCancelMidCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		defer close(done)
		rep, err = Run(ctx, Config{Runs: 32, Seed: 3, Parallel: 2})
	}()
	// Let a couple of scenarios start, then pull the plug.
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not stop within 30s of cancellation")
	}
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("cancelled campaign = %v, want core.ErrCancelled", err)
	}
	if rep != nil {
		t.Fatal("cancelled campaign returned a partial report")
	}
}

func TestRunScenarioCancelledOutcome(t *testing.T) {
	scns := GenerateScenarios(Config{Runs: 1, Seed: 19})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunScenario(ctx, scns[0], nil)
	if res.Verdict != VerdictCleanFailure || res.Outcome != OutcomeCancelled {
		t.Fatalf("cancelled scenario classified %s/%s, want %s/%s",
			res.Verdict, res.Outcome, VerdictCleanFailure, OutcomeCancelled)
	}
	if !res.Expected {
		t.Fatal("cancellation must not count as an unexpected verdict")
	}
}
